"""Regression: the clause-activity overflow rescale must touch learned
clauses only, and must preserve their activity-based ordering.

The seed bug: on overflow the rescale multiplied the activity of *every*
clause — original clauses included, which never accumulate activity and
whose (externally meaningful) slots were silently corrupted, and the
full-DB sweep was O(all clauses) instead of O(learned).
"""

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig
from repro.sat.types import SolveResult


def _solver_with_learned_clauses():
    # A pigeonhole search is guaranteed to conflict and learn clauses.
    n = 4
    formula = CnfFormula((n + 1) * n)
    for p in range(n + 1):
        formula.add_clause(mk_lit(p * n + h) for h in range(n))
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                formula.add_clause(
                    [mk_lit(p1 * n + h, True), mk_lit(p2 * n + h, True)]
                )
    solver = CdclSolver(
        formula,
        config=SolverConfig(record_cdg=False, clause_deletion=False),
    )
    outcome = solver.solve()
    assert outcome.status is SolveResult.UNSAT
    assert solver._learned_ids, "search must have learned clauses"
    return solver


class TestRescale:
    def test_rescale_is_learned_only(self):
        solver = _solver_with_learned_clauses()
        # Give originals a sentinel activity: a correct rescale must not
        # touch them (originals never earn bumps, so any change would be
        # pure corruption).
        originals = [
            cid for cid in range(len(solver._arena))
            if solver.is_original_clause(cid)
        ]
        assert originals
        for cid in originals:
            solver._activity[cid] = 123.5
        solver._rescale_clause_activity()
        for cid in originals:
            assert solver._activity[cid] == 123.5

    def test_ordering_unchanged_across_overflow_rescale(self):
        solver = _solver_with_learned_clauses()
        learned = list(solver._learned_ids)
        # Spread distinct activities, then force an overflow bump.  The
        # bumped clause legitimately moves (it just earned 2e20); every
        # OTHER learned clause must keep its relative position.
        for rank, cid in enumerate(learned):
            solver._activity[cid] = 1.0 + rank
        others = learned[1:]
        before = sorted(others, key=lambda cid: (solver._activity[cid], -cid))
        solver._activity_inc = 2e20
        solver._bump_clause_activity(learned[0])  # overflow -> rescale
        after = sorted(others, key=lambda cid: (solver._activity[cid], -cid))
        assert before == after
        # The rescale really fired and kept everything in range.
        assert solver._activity_inc < 1e20
        assert all(solver._activity[cid] < 1e20 for cid in learned)

    def test_deletion_order_stable_across_rescale(self):
        # End-to-end: the reduce-DB candidate ordering (activity-based)
        # must be identical whether or not a rescale happened in between.
        solver_a = _solver_with_learned_clauses()
        solver_b = _solver_with_learned_clauses()
        for rank, (cid_a, cid_b) in enumerate(
            zip(solver_a._learned_ids, solver_b._learned_ids)
        ):
            solver_a._activity[cid_a] = 1.0 + rank
            solver_b._activity[cid_b] = 1.0 + rank
        solver_b._activity_inc = 2e20
        solver_b._bump_clause_activity(solver_b._learned_ids[0])

        def candidate_order(solver):
            return sorted(
                solver._learned_ids,
                key=lambda cid: (solver._activity[cid], -cid),
            )

        # solver_b's bumped clause gained activity before the rescale;
        # remove it from the comparison, the rest must order the same.
        bumped = solver_b._learned_ids[0]
        order_a = [c for c in candidate_order(solver_a) if c != bumped]
        order_b = [c for c in candidate_order(solver_b) if c != bumped]
        assert order_a == order_b
