"""CLI tests through main(argv) with on-disk fixtures."""

import pytest

from repro.circuit import write_blif
from repro.circuit.blif import blif_str
from repro.cli import main
from repro.cnf.dimacs import write_dimacs
from repro.cnf import CnfFormula, mk_lit
from repro.encode import Unroller
from repro.workloads import counter_tripwire


@pytest.fixture
def counter_blif(tmp_path):
    circuit, prop = counter_tripwire(
        counter_width=3, target=5, distractor_words=1, distractor_width=3
    )
    path = tmp_path / "counter.blif"
    path.write_text(blif_str(circuit))
    return str(path)


@pytest.fixture
def sat_cnf(tmp_path):
    formula = CnfFormula(2)
    formula.add_clause([mk_lit(0), mk_lit(1)])
    path = tmp_path / "sat.cnf"
    with open(path, "w") as handle:
        write_dimacs(formula, handle)
    return str(path)


@pytest.fixture
def unsat_cnf(tmp_path):
    formula = CnfFormula(1)
    formula.add_clause([mk_lit(0)])
    formula.add_clause([mk_lit(0, True)])
    path = tmp_path / "unsat.cnf"
    with open(path, "w") as handle:
        write_dimacs(formula, handle)
    return str(path)


class TestCheck:
    def test_failing_property_exit_code(self, counter_blif, capsys):
        code = main(["check", counter_blif, "--property", "prop", "--depth", "8"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "counterexample of length 5" in out

    def test_passing_within_depth(self, counter_blif, capsys):
        code = main(["check", counter_blif, "--property", "prop", "--depth", "3"])
        assert code == 0
        assert "passed-bounded" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["bmc", "static", "dynamic", "shtrichman"])
    def test_all_methods(self, counter_blif, method):
        code = main([
            "check", counter_blif, "--property", "prop",
            "--depth", "6", "--method", method,
        ])
        assert code == 1

    def test_unknown_property_reports_error(self, counter_blif, capsys):
        code = main(["check", counter_blif, "--property", "nope", "--depth", "3"])
        assert code == 2
        assert "no output named" in capsys.readouterr().out


class TestSolve:
    def test_sat_prints_model(self, sat_cnf, capsys):
        code = main(["solve", sat_cnf])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAT" in out
        assert out.splitlines()[-1].startswith("v ")

    def test_unsat_with_core(self, unsat_cnf, capsys):
        code = main(["solve", unsat_cnf, "--core"])
        assert code == 1
        out = capsys.readouterr().out
        assert "UNSAT" in out
        assert "unsat core: 2/2" in out


class TestSuite:
    def test_small_suite_all_match(self, capsys):
        code = main(["suite", "--small", "--method", "dynamic"])
        assert code == 0
        assert "6/6 instances matched" in capsys.readouterr().out
