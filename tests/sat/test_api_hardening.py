"""Solver API hardening (PR 4 satellite).

The incremental interface must fail loudly instead of corrupting watch
state: ``add_clause``/``new_var``/``ensure_num_vars`` during an active
``solve()`` raise ``RuntimeError``.  Variable-space growth is geometric,
so front ends that allocate one variable at a time (the incremental BMC
pattern) pay amortized O(1) per variable.
"""

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig
from repro.sat.heuristics import DecisionStrategy
from tests.conftest import random_formula


class _MutatingStrategy(DecisionStrategy):
    """Calls a solver mutator once from inside the search loop, records
    any RuntimeError, then decides like a plain fixed-order strategy so
    the search still terminates normally."""

    name = "mutating"

    def __init__(self, action):
        super().__init__()
        self._action = action
        self._fired = False
        self.error = None

    def decide(self) -> int:
        if not self._fired:
            self._fired = True
            try:
                self._action(self._solver)
            except RuntimeError as exc:
                self.error = exc
        truth = self._solver.lit_truth
        for var in range(self._solver.num_vars):
            if truth[var + var] == 2:
                return 2 * var
        return -1


def _needs_search(formula=None):
    formula = formula or CnfFormula(3)
    if formula.num_clauses == 0:
        formula.add_clause([mk_lit(0), mk_lit(1)])
    return formula


class TestMidSearchGuards:
    @pytest.mark.parametrize(
        "action",
        [
            lambda s: s.new_var(),
            lambda s: s.ensure_num_vars(s.num_vars + 5),
            lambda s: s.add_clause([mk_lit(0)]),
        ],
        ids=["new_var", "ensure_num_vars", "add_clause"],
    )
    def test_mutators_raise_during_solve(self, action):
        strategy = _MutatingStrategy(action)
        solver = CdclSolver(_needs_search(), strategy=strategy)
        solver.solve()
        assert isinstance(strategy.error, RuntimeError)
        assert "during solve()" in str(strategy.error)

    def test_noop_ensure_is_allowed_mid_search(self):
        # Growing to the current size is a no-op and must not raise —
        # front ends routinely call ensure_num_vars defensively.
        strategy = _MutatingStrategy(lambda s: s.ensure_num_vars(s.num_vars))
        solver = CdclSolver(_needs_search(), strategy=strategy)
        solver.solve()
        assert strategy.error is None

    def test_mutators_fine_between_solves(self):
        solver = CdclSolver(_needs_search())
        assert solver.solve().is_sat
        var = solver.new_var()
        solver.ensure_num_vars(var + 3)
        solver.add_clause([mk_lit(var)])
        assert solver.solve().is_sat


class TestGeometricGrowth:
    def test_capacity_doubles_not_per_call(self):
        solver = CdclSolver(CnfFormula(0))
        capacities = set()
        for _ in range(300):
            solver.new_var()
            capacities.add(solver._var_capacity)
        # 300 one-at-a-time allocations touch only O(log n) capacities.
        assert len(capacities) <= 8
        assert solver._var_capacity >= solver.num_vars
        # Physical arrays match the capacity, logical size the count.
        assert len(solver.lit_truth) == 2 * solver._var_capacity
        assert len(solver._levels) == solver._var_capacity
        assert solver.num_vars == 300

    def test_logical_views_are_exact(self):
        solver = CdclSolver(CnfFormula(0))
        for _ in range(37):
            solver.new_var()
        assert len(solver.original_literal_counts()) == 2 * 37
        assert len(solver.assigns) == 37

    def test_grown_solver_still_solves(self, rng):
        solver = CdclSolver(CnfFormula(0))
        for _ in range(50):
            solver.new_var()
        formula = random_formula(rng, 50, 120)
        for clause in formula.clauses:
            solver.add_clause(clause.literals)
        reference = CdclSolver(formula).solve()
        outcome = solver.solve()
        assert outcome.status is reference.status

    def test_large_jump_allocates_exactly(self):
        solver = CdclSolver(CnfFormula(0))
        solver.ensure_num_vars(1000)
        assert solver.num_vars == 1000
        assert solver._var_capacity >= 1000
        solver.ensure_num_vars(10)  # shrink requests are no-ops
        assert solver.num_vars == 1000


class TestConfigValidation:
    """Settings that used to hang the search or divide by zero at the
    first conflict are rejected at construction, next to the kernel
    check."""

    @pytest.mark.parametrize("restart_base", [0, -5])
    def test_non_positive_restart_base_rejected(self, restart_base):
        # Both values restarted forever on pigeonhole(4), even under
        # max_conflicts=100.
        with pytest.raises(ValueError, match="restart_base"):
            CdclSolver(
                CnfFormula(1),
                config=SolverConfig(restart_base=restart_base, max_conflicts=100),
            )

    # Capture intervals belong to the observers that sample with them
    # (repro.sat.observer), so their constructors reject the zero that
    # would divide by zero at the first conflict.
    def test_zero_progress_interval_rejected_with_hook(self):
        from repro.experiments.runner import ProgressPrinter

        with pytest.raises(ValueError, match="every must be >= 1"):
            ProgressPrinter("row/bmc", every=0)

    def test_zero_access_sample_interval_rejected_with_stream(self, tmp_path):
        from repro.metrics.access import AccessStreamWriter

        path = tmp_path / "s.racc"
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            AccessStreamWriter(str(path), sample_every=0)
        assert not path.exists()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            CdclSolver(CnfFormula(1), config=SolverConfig(kernel="legacy"))
