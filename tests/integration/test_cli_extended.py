"""CLI tests for the extended subcommands (prove, expressions, VCD,
incremental, trim)."""

import pytest

from repro.circuit.blif import blif_str
from repro.cli import main
from repro.cnf import CnfFormula, mk_lit
from repro.cnf.dimacs import write_dimacs
from repro.workloads import counter_tripwire, token_ring


@pytest.fixture
def counter_blif(tmp_path):
    circuit, prop = counter_tripwire(
        counter_width=3, target=5, distractor_words=1, distractor_width=3
    )
    path = tmp_path / "counter.blif"
    path.write_text(blif_str(circuit))
    return str(path)


@pytest.fixture
def ring_blif(tmp_path):
    circuit, prop = token_ring(num_nodes=3, distractor_words=1, distractor_width=3)
    path = tmp_path / "ring.blif"
    path.write_text(blif_str(circuit))
    return str(path)


class TestExpressions:
    def test_expr_property(self, ring_blif, capsys):
        code = main([
            "check", ring_blif,
            "--expr", "!(tok0 & tok1) & !(tok0 & tok2) & !(tok1 & tok2)",
            "--depth", "4",
        ])
        assert code == 0
        assert "passed-bounded" in capsys.readouterr().out

    def test_bad_expr_reports_error(self, ring_blif, capsys):
        code = main(["check", ring_blif, "--expr", "ghost &", "--depth", "2"])
        assert code == 2
        assert "bad property expression" in capsys.readouterr().out

    def test_missing_property_reports_error(self, ring_blif, capsys):
        code = main(["check", ring_blif, "--depth", "2"])
        assert code == 2
        assert "provide --property" in capsys.readouterr().out


class TestVcdDump:
    def test_check_writes_vcd(self, counter_blif, tmp_path, capsys):
        vcd_path = tmp_path / "cex.vcd"
        code = main([
            "check", counter_blif, "--property", "prop",
            "--depth", "8", "--vcd", str(vcd_path),
        ])
        assert code == 1
        text = vcd_path.read_text()
        assert "$enddefinitions $end" in text
        assert " prop $end" in text


class TestIncrementalFlag:
    @pytest.mark.parametrize("method", ["bmc", "static", "dynamic"])
    def test_incremental_methods(self, counter_blif, method):
        code = main([
            "check", counter_blif, "--property", "prop",
            "--depth", "8", "--incremental", "--method", method,
        ])
        assert code == 1

    def test_incremental_rejects_shtrichman(self, counter_blif, capsys):
        code = main([
            "check", counter_blif, "--property", "prop",
            "--depth", "4", "--incremental", "--method", "shtrichman",
        ])
        assert code == 2


class TestProve:
    def test_proves_token_ring(self, ring_blif, capsys):
        code = main([
            "prove", ring_blif,
            "--expr", "!(tok0 & tok1) & !(tok0 & tok2) & !(tok1 & tok2)",
            "--max-k", "5",
        ])
        assert code == 0
        assert "proved" in capsys.readouterr().out

    def test_refutes_counter(self, counter_blif, capsys):
        code = main(["prove", counter_blif, "--property", "prop", "--max-k", "8"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "counterexample of length 5" in out

    def test_unknown_when_bound_too_small(self, counter_blif, capsys):
        code = main(["prove", counter_blif, "--property", "prop", "--max-k", "2"])
        assert code == 2
        assert "unknown" in capsys.readouterr().out


class TestSolveTrim:
    def test_trimmed_core(self, tmp_path, capsys):
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(0)])
        formula.add_clause([mk_lit(0, True), mk_lit(1)])
        formula.add_clause([mk_lit(1, True)])
        formula.add_clause([mk_lit(2), mk_lit(1)])  # padding
        path = tmp_path / "f.cnf"
        with open(path, "w") as handle:
            write_dimacs(formula, handle)
        code = main(["solve", str(path), "--core", "--trim"])
        assert code == 1
        out = capsys.readouterr().out
        assert "trimmed core" in out
        assert "unsat core: 3/4" in out
