"""Root-level facts without trail reasons must resolve against their
defining unit clauses (PR 2 satellite fix).

Front ends that feed clauses incrementally — the incremental BMC engine
re-feeds frames between ``solve()`` calls — can leave a level-0 variable
whose trail ``reason`` was discharged (-1) even though an original unit
clause defines it.  ``_reason_closure`` used to crash with an
``AssertionError`` on such variables; it now cites the defining unit,
keeping cores and proofs complete.
"""

import pytest

from repro.bmc import incremental
from repro.bmc.incremental import IncrementalBmcEngine
from repro.bmc.result import BmcStatus
from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig
from repro.sat.types import SolveResult
from repro.workloads import generators as gen


class TestReasonClosureFallback:
    def _solver_with_discharged_reason(self):
        solver = CdclSolver(CnfFormula(3))
        unit_cid = solver.add_clause([mk_lit(0)])
        solver.add_clause([mk_lit(0, True), mk_lit(1)])
        # Simulate a front end that discharged the root fact's trail
        # reason after installing it (the unit clause still defines it).
        assert solver._reasons[0] == unit_cid
        solver._reasons[0] = -1
        return solver, unit_cid

    def test_closure_resolves_against_defining_unit(self):
        solver, unit_cid = self._solver_with_discharged_reason()
        antecedents = []
        solver._reason_closure([0], antecedents)  # must not raise
        assert antecedents == [unit_cid]

    def test_conflicting_unit_yields_unsat_not_crash(self):
        solver, unit_cid = self._solver_with_discharged_reason()
        conflict_cid = solver.add_clause([mk_lit(0, True)])
        outcome = solver.solve()
        assert outcome.status is SolveResult.UNSAT
        assert outcome.core_clauses is not None
        assert unit_cid in outcome.core_clauses
        assert conflict_cid in outcome.core_clauses

    def test_variable_without_defining_unit_still_asserts(self):
        solver = CdclSolver(CnfFormula(2))
        solver.add_clause([mk_lit(0, True), mk_lit(1)])
        solver._levels[1] = 0
        solver.lit_truth[2] = 1  # var 1 true, both polarities recorded
        solver.lit_truth[3] = 0
        with pytest.raises(AssertionError):
            solver._reason_closure([1], [])

    def test_relative_closure_prefers_unit_over_assumption(self):
        # A level-0 fact with a discharged reason must not be
        # misreported as a failed assumption by the relative closure.
        solver, unit_cid = self._solver_with_discharged_reason()
        antecedents, assumption_vars = solver._relative_closure([0])
        assert antecedents == [unit_cid]
        assert assumption_vars == set()


class TestIncrementalBmcWithRootUnits:
    """End-to-end through ``bmc/incremental.py``: incremental frames add
    root-level unit clauses (latch init constraints) between solves with
    assumptions; cores must come out sound at every depth."""

    @pytest.mark.parametrize("mode", ("vsids", "static", "dynamic"))
    def test_incremental_pass_instance(self, mode):
        circuit, prop = gen.counter_tripwire(
            counter_width=4, target=15, distractor_words=1,
            distractor_width=4, seed=5,
        )
        engine = IncrementalBmcEngine(circuit, prop, max_depth=6, mode=mode)
        result = engine.run()
        assert result.status is BmcStatus.PASSED_BOUNDED
        assert result.depth_reached == 6
        # Every UNSAT depth produced a (relative) core.
        for depth in result.per_depth:
            assert depth.status == "unsat"
            assert depth.core_clauses and depth.core_clauses > 0

    def test_incremental_with_discharged_root_reasons(self, monkeypatch):
        # Adversarial variant: discharge every level-0 trail reason that
        # has a defining unit between depths, as an aggressive front end
        # might after compacting its own implication log.
        circuit, prop = gen.counter_tripwire(
            counter_width=3, target=7, distractor_words=1,
            distractor_width=4, seed=6,
        )
        engine = IncrementalBmcEngine(circuit, prop, max_depth=5, mode="static")
        original_feed = incremental.feed_frames
        fed_solvers = []

        def feed_and_discharge(solver, unroller, k, fed):
            fed = original_feed(solver, unroller, k, fed)
            fed_solvers.append(solver)
            for var, (lit, _cid) in solver._root_unit_of.items():
                if (
                    solver._levels[var] == 0
                    and solver._reasons[var] != -1
                    and solver.value_of(lit) == 1
                ):
                    solver._reasons[var] = -1
            return fed

        monkeypatch.setattr(incremental, "feed_frames", feed_and_discharge)
        result = engine.run()
        assert len(fed_solvers) == 6  # one batch a depth ...
        assert len(set(map(id, fed_solvers))) == 1  # ... into one solver
        assert result.status is BmcStatus.PASSED_BOUNDED
        assert result.depth_reached == 5
