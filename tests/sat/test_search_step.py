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

With a nonzero ``budget`` the native step also makes heap decisions;
the lockstep tests at the end run whole searches on both kernels and
compare them at every conflict.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cnf import CnfFormula
from repro.sat import (
    BerkMinStrategy,
    CdclSolver,
    FixedOrderStrategy,
    RankedStrategy,
    SolverConfig,
    VsidsStrategy,
)
from repro.sat.heuristics import NO_POP_LIMIT
from repro.sat.kernel import native_available
from repro.sat.observer import SearchObserver
from repro.workloads.cnf_families import pigeonhole
from tests.conftest import random_formula

KERNELS = ["python"] + (["native"] if native_available() else [])


def _solver(formula: CnfFormula, kernel: str) -> CdclSolver:
    return CdclSolver(formula, config=SolverConfig(kernel=kernel))


def _decide(solver: CdclSolver, lit: int) -> None:
    """Open a decision level and assign ``lit`` (what ``_search`` does
    for a decision or an assumption)."""
    solver._trail_lim[solver._decision_level] = solver._trail_len
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


# -- in-kernel decisions, in lockstep with the python kernel ----------------
#
# The native kernel's search_step also makes the decisions that are plain
# heap pops, up to the budget the solver passes (see repro.sat.kernel.base),
# so a native search returns to Python about once per conflict while the
# python kernel returns once per decision.  Conflicts are the steps both
# kernels share: the tests below record the search state at every step that
# ends in a conflict, and at the end of every solve, and require the two
# kernels to agree at each of them.


def _uniform_3sat(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    formula = CnfFormula(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(num_vars), 3)
        formula.add_clause(2 * v + rng.randint(0, 1) for v in chosen)
    return formula


def _search_state(solver: CdclSolver) -> tuple:
    nv = solver.num_vars
    level = solver._decision_level
    strategy = solver.strategy
    return (
        tuple(solver._trail[:solver._trail_len]),
        tuple(solver._trail_lim[:level]),
        level,
        solver._qhead,
        tuple(solver._levels[:nv]),
        tuple(solver._reasons[:nv]),
        tuple(solver._saved_phase[:nv]),
        solver.stats.decisions,
        solver.stats.max_decision_level,
        solver.stats.propagations,
        getattr(strategy, "_decide_calls", None),
        getattr(strategy, "switched", None),
    )


class _Recorder:
    """Wraps a solver's ``search_step``: the state after every step that
    returns a conflict, and the budgets the solver passed."""

    def __init__(self, solver: CdclSolver) -> None:
        self.solver = solver
        self.states: list = []
        self.budgets: list = []
        self.calls = 0
        inner = solver._kernel.search_step

        def step(num_assumptions, budget=0):
            self.calls += 1
            self.budgets.append(budget)
            result = inner(num_assumptions, budget)
            if result[0] >= 0:
                self.states.append((result, _search_state(solver)))
            return result

        solver._kernel.search_step = step


def _outcome_key(outcome) -> tuple:
    return (
        outcome.status,
        None if outcome.model is None else tuple(outcome.model),
        outcome.stats.decisions,
        outcome.stats.conflicts,
        outcome.stats.propagations,
        outcome.stats.restarts,
        outcome.stats.max_decision_level,
    )


def _run(formula, kernel, make_strategy, config, solves):
    """Solve ``formula`` once per assumption list in ``solves`` on one
    solver; returns the recorder and one record per solve."""
    solver = CdclSolver(
        formula, strategy=make_strategy(),
        config=SolverConfig(kernel=kernel, **config),
    )
    recorder = _Recorder(solver)
    records = []
    for assumptions in solves:
        outcome = solver.solve(assumptions)
        records.append((
            _outcome_key(outcome),
            None if solver.failed_assumptions is None
            else sorted(solver.failed_assumptions),
            _search_state(solver),
        ))
    return recorder, records


def _assert_lockstep(formula, make_strategy, config, solves=((),)):
    """Both kernels agree at every conflict step and after every solve;
    returns the native recorder."""
    py, py_records = _run(formula, "python", make_strategy, config, solves)
    nat, nat_records = _run(formula, "native", make_strategy, config, solves)
    assert len(nat.states) == len(py.states)
    for index, (a, b) in enumerate(zip(py.states, nat.states)):
        assert a == b, f"conflict step {index} differs"
    assert nat_records == py_records
    # The python kernel is the reference path: it is never given a
    # budget and so returns once per decision.
    assert not any(py.budgets)
    return py, nat


def _ranked(dynamic: bool, divisor: int = 64, seed: int = 7):
    def make():
        rng = random.Random(seed)
        rank = {v: float(rng.randint(0, 4)) for v in range(0, 60, 3)}
        return RankedStrategy(rank, dynamic=dynamic, switch_divisor=divisor)
    return make


_HEAP_STRATEGIES = {
    "vsids": VsidsStrategy,
    "ranked-static": _ranked(False),
    "ranked-dynamic": _ranked(True),
}

_native = pytest.mark.skipif(len(KERNELS) < 2, reason="needs the native kernel")


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="the native kernel is optional outside the kernel CI job",
)
def test_native_kernel_is_covered():
    assert "native" in KERNELS


def _formulas():
    rng = random.Random(20251021)
    sat_side = [_uniform_3sat(rng, 60, 240) for _ in range(3)]
    unsat_side = [_uniform_3sat(rng, 50, 240) for _ in range(2)]
    return sat_side + unsat_side + [pigeonhole(5)]


@_native
@pytest.mark.parametrize("phase_mode", ["default", "save", "inverted"])
@pytest.mark.parametrize("strategy", sorted(_HEAP_STRATEGIES))
def test_in_kernel_decisions_match_python_kernel(strategy, phase_mode):
    config = dict(phase_mode=phase_mode, restart_base=8, reduce_base=20)
    conflicts = 0
    fewer_calls = 0
    for formula in _formulas():
        py, nat = _assert_lockstep(formula, _HEAP_STRATEGIES[strategy], config)
        conflicts += len(nat.states)
        fewer_calls += nat.calls < py.calls
    assert conflicts > 100
    # In-kernel decisions happened: native searches return to Python
    # less often than once per decision.
    assert fewer_calls == len(_formulas())


@_native
@pytest.mark.parametrize("phase_mode", ["default", "save", "inverted"])
def test_dynamic_switch_inside_a_step(phase_mode):
    # A threshold of a few dozen decisions: the switch falls after a
    # run of conflict-free decisions, so a finite budget ends a native
    # step at the switch point and the switching decide() runs in
    # Python.
    formula = _uniform_3sat(random.Random(3), 60, 240)
    make = _ranked(True, divisor=32)
    py, nat = _assert_lockstep(formula, make, dict(phase_mode=phase_mode))
    finite = [b for b in nat.budgets if 0 < b < NO_POP_LIMIT]
    assert finite, "no step was cut at the switch point"
    assert nat.states and nat.states[-1][1][-1] is True  # switched


@_native
@pytest.mark.parametrize("max_decisions", [1, 7, 40])
@pytest.mark.parametrize("strategy", sorted(_HEAP_STRATEGIES))
def test_max_decisions_cap(strategy, max_decisions):
    formula = _uniform_3sat(random.Random(11), 60, 250)
    py, nat = _assert_lockstep(
        formula, _HEAP_STRATEGIES[strategy], dict(max_decisions=max_decisions),
    )
    # No native step decides past the cap.
    assert all(b <= max_decisions for b in nat.budgets)


@_native
@pytest.mark.parametrize("phase_mode", ["default", "save", "inverted"])
@pytest.mark.parametrize("strategy", sorted(_HEAP_STRATEGIES))
def test_assumptions_and_repeated_solves(strategy, phase_mode):
    # One solver, several solves under different assumptions: assumption
    # levels are opened by the solver, decisions above them in the
    # kernel, and saved phases and the strategy's counters carry over.
    rng = random.Random(5)
    formula = _uniform_3sat(rng, 60, 230)
    solves = [
        (),
        (0, 5),
        (7,),
        tuple(2 * v + rng.randint(0, 1) for v in rng.sample(range(60), 6)),
        (),
    ]
    _assert_lockstep(
        formula, _HEAP_STRATEGIES[strategy],
        dict(phase_mode=phase_mode, restart_base=8), solves,
    )


class _Events(SearchObserver):
    def __init__(self) -> None:
        self.events: list = []

    def on_decide(self, solver, lit):
        self.events.append(("decide", lit, solver._decision_level))

    def on_conflict(self, solver, level):
        self.events.append(("conflict", level))

    def on_restart(self, solver, level):
        self.events.append(("restart", level))


@_native
@pytest.mark.parametrize(
    "strategy", ["berkmin", "fixed", "vsids-observed", "vsids-profiled"]
)
def test_python_decided_runs_match(strategy):
    # Strategies whose decide() is more than a pop, and runs something
    # watches decision by decision, get budget 0 throughout: the
    # solver's own decision branch runs on both kernels.
    formula = _uniform_3sat(random.Random(17), 60, 240)
    results = []
    for kernel in KERNELS:
        config = dict(kernel=kernel, restart_base=8)
        observer = None
        if strategy == "berkmin":
            made = BerkMinStrategy()
        elif strategy == "fixed":
            made = FixedOrderStrategy([9, 4, 31, 56])
        else:
            made = VsidsStrategy()
            if strategy == "vsids-observed":
                observer = config["observer"] = _Events()
            else:
                config["profile_access"] = True
        solver = CdclSolver(formula, strategy=made, config=SolverConfig(**config))
        recorder = _Recorder(solver)
        outcome = solver.solve()
        assert not any(recorder.budgets)
        results.append((
            _outcome_key(outcome),
            _search_state(solver),
            [state for _, state in recorder.states],
            None if observer is None else observer.events,
        ))
    assert all(r == results[0] for r in results)


@_native
def test_backtrack_reinserts_in_c():
    # With a heap bound, the native backtrack re-inserts in its own C
    # call: the strategy's on_unassigned is never reached mid-search.
    formula = pigeonhole(5)
    calls = []

    class Counting(VsidsStrategy):
        def on_unassigned(self, literals):
            calls.append(len(literals))
            super().on_unassigned(literals)

    solver = CdclSolver(formula, strategy=Counting(), config=SolverConfig(kernel="native"))
    outcome = solver.solve()
    assert outcome.stats.conflicts > 10
    assert calls == []
    reference = CdclSolver(
        formula, strategy=VsidsStrategy(), config=SolverConfig(kernel="python")
    ).solve()
    assert _outcome_key(outcome) == _outcome_key(reference)
