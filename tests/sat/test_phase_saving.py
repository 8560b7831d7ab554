"""Phase-policy tests (``SolverConfig.phase_mode``).

Covers the three modes on every strategy shape, the
``FixedOrderStrategy`` fallback fix (it used to hard-code the positive
phase), and the rule that assumption literals are never rephased.

Every test runs on both kernels (the native one when it builds): the
native kernel applies the phase policy to the heap decisions it makes
itself and writes the saved phases in its C backtrack, the python
kernel leaves both to the solver.  The kernels are looped over inside
each test, so the test IDs stay those of the single-kernel suite.
"""

import os
import random

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import (
    CdclSolver,
    FixedOrderStrategy,
    SolverConfig,
    VsidsStrategy,
)
from repro.sat.kernel import native_available
from repro.sat.types import SolveResult
from tests.conftest import brute_force_sat, random_formula

KERNELS = ["python"] + (["native"] if native_available() else [])


def _config(kernel, **fields):
    return SolverConfig(kernel=kernel, **fields)


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="the native kernel is optional outside the kernel CI job",
)
def test_native_kernel_is_covered():
    assert "native" in KERNELS


def _free_pair_formula():
    """(x0 or x1): either phase of x0 satisfies, so the chosen phase is
    observable in the model."""
    formula = CnfFormula(2)
    formula.add_clause([mk_lit(0), mk_lit(1)])
    return formula


def _solver_with_saved_negative_x0(strategy, phase_mode, kernel):
    """Prime a solver so x0 has saved phase 0 (it was assigned false
    under an assumption, then unassigned by the next solve's
    backtrack), then re-solve without assumptions."""
    solver = CdclSolver(
        _free_pair_formula(),
        strategy=strategy,
        config=_config(kernel, phase_mode=phase_mode),
    )
    first = solver.solve([mk_lit(0, True)])
    assert first.status is SolveResult.SAT
    assert first.model[0] == 0
    return solver


class TestPhaseModes:
    def test_save_reuses_last_polarity(self):
        for kernel in KERNELS:
            solver = _solver_with_saved_negative_x0(VsidsStrategy(), "save", kernel)
            outcome = solver.solve()
            # VSIDS would propose the positive literal (counts 1 vs 0);
            # the saved polarity overrides it.
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 0, kernel

    def test_default_keeps_strategy_choice(self):
        for kernel in KERNELS:
            solver = _solver_with_saved_negative_x0(
                VsidsStrategy(), "default", kernel
            )
            outcome = solver.solve()
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 1, kernel

    def test_inverted_flips_strategy_choice(self):
        for kernel in KERNELS:
            solver = CdclSolver(
                _free_pair_formula(),
                strategy=VsidsStrategy(),
                config=_config(kernel, phase_mode="inverted"),
            )
            outcome = solver.solve()
            # VSIDS proposes x0 positive (count 1 vs 0); inverted
            # assigns 0.
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 0, kernel

    def test_save_without_history_uses_strategy_choice(self):
        for kernel in KERNELS:
            solver = CdclSolver(
                _free_pair_formula(),
                strategy=VsidsStrategy(),
                config=_config(kernel, phase_mode="save"),
            )
            outcome = solver.solve()
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 1, kernel

    def test_invalid_phase_mode_rejected(self):
        for kernel in KERNELS:
            with pytest.raises(ValueError):
                CdclSolver(
                    _free_pair_formula(), config=_config(kernel, phase_mode="flip")
                )

    def test_assumptions_are_never_rephased(self):
        for kernel in KERNELS:
            for mode in ("save", "default", "inverted"):
                solver = CdclSolver(
                    _free_pair_formula(),
                    strategy=VsidsStrategy(),
                    config=_config(kernel, phase_mode=mode),
                )
                outcome = solver.solve([mk_lit(0, True)])
                assert outcome.status is SolveResult.SAT
                assert outcome.model[0] == 0, (kernel, mode)

    def test_all_modes_preserve_verdicts(self, rng):
        for trial in range(40):
            formula = random_formula(rng, rng.randint(2, 9), rng.randint(2, 32))
            expected = brute_force_sat(formula) is not None
            for kernel in KERNELS:
                for mode in ("save", "default", "inverted"):
                    outcome = CdclSolver(
                        formula, config=_config(kernel, phase_mode=mode)
                    ).solve()
                    assert outcome.is_sat == expected, (trial, kernel, mode)
                    if outcome.is_sat:
                        assert formula.evaluate(outcome.model)


class TestFixedOrderPhase:
    """The satellite fix: FixedOrderStrategy's fallback used to force
    the positive phase; it now follows the solver's phase policy."""

    def test_fallback_honors_saved_phase(self):
        for kernel in KERNELS:
            solver = _solver_with_saved_negative_x0(
                FixedOrderStrategy([]), "save", kernel
            )
            outcome = solver.solve()
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 0, kernel  # saved, not the old +1

    def test_fallback_default_mode_keeps_positive_phase(self):
        for kernel in KERNELS:
            solver = _solver_with_saved_negative_x0(
                FixedOrderStrategy([]), "default", kernel
            )
            outcome = solver.solve()
            assert outcome.status is SolveResult.SAT
            assert outcome.model[0] == 1, kernel  # the historical behaviour

    def test_explicit_order_still_followed(self):
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(0), mk_lit(1), mk_lit(2)])
        for kernel in KERNELS:
            strategy = FixedOrderStrategy([mk_lit(1, True), mk_lit(0)])
            outcome = CdclSolver(
                formula, strategy=strategy, config=_config(kernel, phase_mode="save")
            ).solve()
            assert outcome.status is SolveResult.SAT
            assert outcome.model[1] == 0, kernel  # first decision was ~x1

    def test_fallback_correct_under_all_modes(self, rng):
        for trial in range(20):
            formula = random_formula(rng, rng.randint(2, 8), rng.randint(2, 24))
            expected = brute_force_sat(formula) is not None
            for kernel in KERNELS:
                for mode in ("save", "default", "inverted"):
                    outcome = CdclSolver(
                        formula,
                        strategy=FixedOrderStrategy([]),
                        config=_config(kernel, phase_mode=mode),
                    ).solve()
                    assert outcome.is_sat == expected, (trial, kernel, mode)
