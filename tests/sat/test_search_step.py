"""The kernel's one hot seam, ``search_step``, tested directly.

``search_step(num_assumptions) -> (conflict, analysis_or_None)`` runs
propagation and, for a conflict above the assumption prefix, the
first-UIP walk.  The python kernel composes its two loops in Python,
the native kernel runs them in one C call; the solver's search loop
calls whichever it holds.  These tests drive both kernels step by step
through the same decisions, outside ``solve()``, and check the seam
contract (see ``repro.sat.kernel.base``) call by call:

* a level-0 conflict and an assumption-prefix conflict return
  ``(cid, None)`` and leave the seen marks and scratch lists untouched;
* any other conflict returns the same ``(learned, antecedents)`` pair
  under both kernels, with the asserting literal first, and the same
  side effects — seen marks, the touched and level-0 scratch lists,
  the trail, the queue head and the propagation count.
"""

from __future__ import annotations

import random

import pytest

from repro.cnf import CnfFormula
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.workloads.cnf_families import pigeonhole
from tests.conftest import random_formula

KERNELS = ["python"] + (["native"] if native_available() else [])


def _solver(formula: CnfFormula, kernel: str) -> CdclSolver:
    return CdclSolver(formula, config=SolverConfig(kernel=kernel))


def _decide(solver: CdclSolver, lit: int) -> None:
    """Open a decision level and assign ``lit`` (what ``_search`` does
    for a decision or an assumption)."""
    solver._trail_lim.append(solver._trail_len)
    solver._decision_level += 1
    solver._enqueue(lit, -1)


def _side_effects(solver: CdclSolver) -> tuple:
    return (
        solver._qhead,
        solver._trail_len,
        tuple(solver._trail[:solver._trail_len]),
        bytes(solver._seen),
        tuple(solver._touched_scratch),
        tuple(solver._zero_scratch),
        solver.stats.propagations,
    )


def _untouched(solver: CdclSolver) -> bool:
    return (
        not any(solver._seen)
        and not solver._touched_scratch
        and not solver._zero_scratch
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_level_zero_conflict_returns_no_analysis(kernel):
    # x0 -> x1 and x0 -> !x1; x0 becomes true at level 0 the way a
    # learned unit does, enqueued after a backjump to the root.
    formula = CnfFormula(2)
    formula.add_clause([1, 2])
    formula.add_clause([1, 3])
    solver = _solver(formula, kernel)
    solver._enqueue(0, -1)
    conflict, analysis = solver._kernel.search_step(0)
    assert conflict in (0, 1)
    assert analysis is None
    assert solver._decision_level == 0
    assert _untouched(solver)
    solver._kernel.invalidate_views()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("num_assumptions", [1, 2])
def test_assumption_prefix_conflict_returns_no_analysis(kernel, num_assumptions):
    # a -> b and a -> !b: assuming a conflicts on the assumption level.
    formula = CnfFormula(3)
    formula.add_clause([1, 2])
    formula.add_clause([1, 3])
    solver = _solver(formula, kernel)
    if num_assumptions == 2:
        _decide(solver, 4)  # an unrelated first assumption
        assert solver._kernel.search_step(num_assumptions) == (-1, None)
    _decide(solver, 0)
    conflict, analysis = solver._kernel.search_step(num_assumptions)
    assert conflict in (0, 1)
    assert analysis is None
    assert _untouched(solver)
    solver._kernel.invalidate_views()


@pytest.mark.parametrize("kernel", KERNELS)
def test_conflict_above_the_prefix_is_analyzed(kernel):
    formula = CnfFormula(3)
    formula.add_clause([1, 2])
    formula.add_clause([1, 3])
    solver = _solver(formula, kernel)
    _decide(solver, 4)
    _decide(solver, 0)
    conflict, analysis = solver._kernel.search_step(1)
    assert analysis is not None
    learned, antecedents = analysis
    # First UIP is the decision a itself: learn !a, resolving over the
    # conflict and the reason of b.
    assert learned == [1]
    assert antecedents[0] == conflict
    assert sorted(antecedents) == [0, 1]
    assert sorted(solver._touched_scratch) == [0, 1]
    assert solver._zero_scratch == []
    solver._kernel.invalidate_views()


def _lockstep(formula: CnfFormula, num_assumptions: int, seed: int, steps: int):
    """Drive every kernel through the same decisions and conflicts,
    comparing each ``search_step`` result and its side effects; returns
    the analyzed conflicts' learned-clause lengths and how many
    conflicts were not analyzed."""
    solvers = [_solver(formula, kernel) for kernel in KERNELS]
    rng = random.Random(seed)
    analyzed = []
    terminal = 0
    for _ in range(steps):
        results = [s._kernel.search_step(num_assumptions) for s in solvers]
        effects = [_side_effects(s) for s in solvers]
        assert all(r == results[0] for r in results), results
        assert all(e == effects[0] for e in effects)
        conflict, analysis = results[0]
        level = solvers[0]._decision_level
        if conflict >= 0 and analysis is None:
            assert level <= num_assumptions
            assert all(_untouched(s) for s in solvers)
            terminal += 1
            break
        if conflict >= 0:
            assert level > num_assumptions
            learned, antecedents = analysis
            assert antecedents[0] == conflict
            assert solvers[0]._levels[learned[0] >> 1] == level
            assert all(
                solvers[0]._levels[lit >> 1] < level for lit in learned[1:]
            )
            analyzed.append(len(learned))
            for s in solvers:
                # The solver's tail, as _search runs it.
                s._replay_clause_bumps(antecedents)
                tail, btlevel, _, deps = s._finish_analysis(
                    list(learned), list(antecedents)
                )
                s._backtrack(btlevel)
                cid = s._add_learned(tail, deps)
                if s.lit_truth[tail[0]] == 2:
                    s._enqueue(tail[0], cid)
            continue
        free = [
            v for v in range(formula.num_vars)
            if solvers[0].lit_truth[2 * v] == 2
        ]
        if not free:
            break
        lit = 2 * rng.choice(free) + rng.randint(0, 1)
        for s in solvers:
            _decide(s, lit)
    for s in solvers:
        s._kernel.invalidate_views()
    return analyzed, terminal


@pytest.mark.skipif(len(KERNELS) < 2, reason="needs the native kernel")
def test_kernels_agree_step_by_step():
    rng = random.Random(20040607)
    analyzed = []
    terminal = 0
    formulas = [pigeonhole(5), pigeonhole(6)]
    formulas += [random_formula(rng, rng.randint(8, 16), 60) for _ in range(12)]
    for index, formula in enumerate(formulas):
        for num_assumptions in (0, 1, 2):
            a, t = _lockstep(formula, num_assumptions, index, steps=400)
            analyzed += a
            terminal += t
    # Both kinds of conflict were exercised, and long learned clauses
    # reached the native kernel's install-order mirror.
    assert len(analyzed) > 100
    assert max(analyzed) >= 4
    assert terminal > 0
