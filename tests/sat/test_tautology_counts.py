"""Regression tests: tautological clauses must not skew the literal
statistics that seed ``cha_score`` and the dynamic strategy's 1/64
switch threshold (paper §3.3), and original-vs-learned queries must
agree with the arena's LEARNED flag, consistently across
``add_clause``."""

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, RankedStrategy, SolverConfig


def _base_formula():
    formula = CnfFormula(2)
    for _ in range(64):  # 128 installed literals -> switch threshold 2
        formula.add_clause([mk_lit(0), mk_lit(1)])
    return formula


class TestTautologyCounts:
    def test_initial_tautology_not_counted(self):
        formula = CnfFormula(2)
        formula.add_clause([mk_lit(0), mk_lit(1)])
        formula.add_clause([mk_lit(0), mk_lit(0, True)])  # tautology
        solver = CdclSolver(formula)
        counts = solver.original_literal_counts()
        assert counts[mk_lit(0)] == 1  # only the real clause's occurrence
        assert counts[mk_lit(0, True)] == 0
        assert counts[mk_lit(1)] == 1
        assert solver.num_original_literals() == 2

    def test_added_tautology_not_counted(self):
        solver = CdclSolver(_base_formula())
        base_counts = solver.original_literal_counts()
        base_total = solver.num_original_literals()
        cid = solver.add_clause([mk_lit(0), mk_lit(0, True), mk_lit(1)])
        assert solver.original_literal_counts() == base_counts
        assert solver.num_original_literals() == base_total
        # It is still an original clause (just never attached) ...
        assert solver.is_original_clause(cid)
        # ... and the solve is unaffected.
        assert solver.solve().is_sat

    def test_switch_threshold_ignores_tautologies(self):
        solver = CdclSolver(_base_formula())
        assert solver.num_original_literals() == 128
        for _ in range(4):  # would add 8 literals if (wrongly) counted
            solver.add_clause([mk_lit(0), mk_lit(0, True)])
        strategy = RankedStrategy({0: 1.0}, dynamic=True, switch_divisor=64)
        assert solver.solve(strategy=strategy).is_sat
        assert strategy._switch_threshold == 128 // 64


class TestOriginalIdSet:
    def test_consistent_across_add_clause_without_cdg(self):
        formula = CnfFormula(2)
        formula.add_clause([mk_lit(0), mk_lit(1)])
        solver = CdclSolver(formula, config=SolverConfig(record_cdg=False))
        cid = solver.add_clause([mk_lit(0, True), mk_lit(1)])
        assert solver.is_original_clause(cid)
        assert not solver._looks_learned(cid)

    def test_learned_clauses_stay_out_of_the_set(self):
        # PHP(3) forces learning; with CDG off the arena flag is the
        # only original-vs-learned authority.
        n = 3
        formula = CnfFormula((n + 1) * n)
        for p in range(n + 1):
            formula.add_clause(mk_lit(p * n + h) for h in range(n))
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    formula.add_clause(
                        [mk_lit(p1 * n + h, True), mk_lit(p2 * n + h, True)]
                    )
        solver = CdclSolver(formula, config=SolverConfig(record_cdg=False))
        assert solver.solve().is_unsat
        assert solver.stats.learned_clauses > 0
        learned_ids = [
            cid for cid in range(len(solver._arena))
            if not solver.is_original_clause(cid)
        ]
        assert len(learned_ids) == solver.stats.learned_clauses
        for cid in learned_ids:
            assert solver._looks_learned(cid)
            assert not solver.is_original_clause(cid)
