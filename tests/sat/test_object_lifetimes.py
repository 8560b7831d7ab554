"""Object lifetimes on the BMC depth loop: nothing leaks into cycles.

Every depth builds a fresh solver, forked from the run's install
template, and a solver that sits in a reference cycle survives its
depth until a full (generation-2) collection frees it — with its watch
lists, arena and heap.  These tests run each engine flavour with the
cyclic collector off and ``gc.DEBUG_SAVEALL`` on, then collect once:
anything the collector finds unreachable lands in ``gc.garbage``, and no
solver, template, fork, strategy, kernel, watch column or engine may be
among it.  No engine may hold its template, nor the incremental engine
its persistent solver, once ``run()`` has returned, whether it ended in
a verdict, an exhausted budget or an exception.  The native plane runs
when the C kernel can be built.
"""

from __future__ import annotations

import gc
import itertools
import os
import weakref
from contextlib import contextmanager
from typing import Optional

import pytest

from repro.bmc.cnf_cache import EncodingCache
from repro.bmc.engine import BmcEngine
from repro.bmc.incremental import IncrementalBmcEngine
from repro.experiments.runner import make_engine
from repro.metrics import MetricsRegistry
from repro.sat.activity_heap import VariableActivityHeap
from repro.sat.heuristics import DecisionStrategy, RankedStrategy, VsidsStrategy
from repro.sat.kernel import (
    KernelBase,
    NativeActivityHeap,
    WatchColumns,
    native_available,
)
from repro.sat.solver import CdclSolver, InstallTemplate, SolverConfig
from repro.sat.types import SolveResult
from repro.workloads import instance_by_name
from repro.workloads.cnf_families import pigeonhole

PLANES = ["python"] + (["native"] if native_available() else [])

#: Engine flavours: the one-shot strategies through ``make_engine``, the
#: incremental engine, and the deterministic epoch-barrier portfolio.
FLAVOURS = [
    "bmc",
    "static",
    "dynamic",
    "shtrichman",
    "berkmin",
    "incremental",
    "portfolio",
]

#: A failing row (counterexample at depth 7): every flavour runs UNSAT
#: depths, a SAT depth and the trace decode.
ROW = "01_b"

FORBIDDEN = (
    CdclSolver,
    InstallTemplate,
    DecisionStrategy,
    KernelBase,
    WatchColumns,
    BmcEngine,
    IncrementalBmcEngine,
)


@contextmanager
def saved_cyclic_garbage():
    """Run the body with the collector off and DEBUG_SAVEALL on; yields
    a list that, on exit, holds what one collection found unreachable."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    del gc.garbage[:]
    found = []
    try:
        yield found
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()


def _engine(flavour: str, plane: str, config: Optional[SolverConfig] = None):
    row = instance_by_name(ROW)
    config = config or SolverConfig(kernel=plane)
    cache = EncodingCache()
    if flavour == "incremental":
        circuit, prop, unroller = cache.unroller_for(row)
        return IncrementalBmcEngine(
            circuit, prop, max_depth=row.max_depth, mode="dynamic",
            solver_config=config, unroller=unroller,
        )
    return make_engine(
        row, flavour, solver_config=config, encoding_cache=cache,
        portfolio_opts={"deterministic": True},
    )


def _run(flavour: str, plane: str) -> None:
    engine = _engine(flavour, plane)
    result = engine.run()
    assert result.status.value == "failed"
    assert result.trace.depth == instance_by_name(ROW).cex_depth
    _assert_released(engine)


def _assert_released(engine) -> None:
    """The run's install template and persistent solver are gone."""
    assert engine._template is None
    assert getattr(engine, "_solver", None) is None


def _leaked(found):
    return sorted({type(obj).__name__ for obj in found if isinstance(obj, FORBIDDEN)})


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="the native plane is optional outside the kernel CI job",
)
def test_native_plane_is_covered():
    assert "native" in PLANES


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_no_solver_strategy_kernel_or_engine_in_cyclic_garbage(flavour, plane):
    with saved_cyclic_garbage() as found:
        _run(flavour, plane)
    assert _leaked(found) == []


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_budget_exhausted_run_drops_its_template(flavour, plane):
    with saved_cyclic_garbage() as found:
        engine = _engine(
            flavour, plane, SolverConfig(kernel=plane, max_conflicts=1)
        )
        result = engine.run()
        assert result.status.value == "budget-exhausted"
        assert result.per_depth  # a depth was solved before the budget ran out
        _assert_released(engine)
        del engine
    assert _leaked(found) == []


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_raising_run_drops_its_template(flavour, plane, monkeypatch):
    calls = itertools.count()
    solve = CdclSolver.solve

    def failing_solve(solver, *args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("injected solve failure")
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(CdclSolver, "solve", failing_solve)
    with saved_cyclic_garbage() as found:
        engine = _engine(flavour, plane)
        with pytest.raises(RuntimeError, match="injected"):
            engine.run()
        _assert_released(engine)
        del engine
    assert _leaked(found) == []


@pytest.mark.parametrize("plane", PLANES)
def test_raced_depths_only_borrow_the_engine_template(plane, monkeypatch):
    # race_min_clauses=0 sends every depth through a PortfolioSolver
    # whose members fork the engine's template: once run() returns,
    # every template the engine grew must be freed by refcount.
    grown = []
    install_template = BmcEngine.install_template

    def recording_install_template(engine, k):
        template = install_template(engine, k)
        grown.append(weakref.ref(template))
        return template

    monkeypatch.setattr(BmcEngine, "install_template", recording_install_template)
    with saved_cyclic_garbage() as found:
        engine = make_engine(
            instance_by_name(ROW), "portfolio",
            solver_config=SolverConfig(kernel=plane),
            encoding_cache=EncodingCache(),
            portfolio_opts={"deterministic": True, "race_min_clauses": 0},
        )
        result = engine.run()
        assert result.status.value == "failed"
        assert all(d.winner and not d.winner.startswith("serial:")
                   for d in result.per_depth)
        assert grown
        assert [ref for ref in grown if ref() is not None] == []
        del engine
    assert _leaked(found) == []


@pytest.mark.parametrize("plane", PLANES)
def test_standalone_solver_is_freed_by_refcount(plane):
    config = SolverConfig(kernel=plane)
    with saved_cyclic_garbage() as found:
        strategy = RankedStrategy({0: 1.0}, dynamic=True)
        solver = CdclSolver(pigeonhole(4), strategy=strategy, config=config)
        assert solver.solve().status is SolveResult.UNSAT
        del solver
        del strategy
    assert _leaked(found) == []


class TestWarmReattach:
    """``persist_activity`` keeps scores across solves on one solver,
    recognised through a weak reference once ``solve()`` has released
    the solver."""

    @staticmethod
    def _solved(strategy: VsidsStrategy, solver: CdclSolver) -> None:
        solver.solve(strategy=strategy)
        assert strategy._solver is None  # released at solve() exit

    @staticmethod
    def _bump(strategy: VsidsStrategy) -> None:
        # A marker the warm path keeps and the cold path re-seeds away.
        strategy._kinc = 64.0

    def test_same_solver_takes_the_warm_path(self):
        strategy = VsidsStrategy()
        strategy.persist_activity = True
        solver = CdclSolver(pigeonhole(3))
        self._solved(strategy, solver)
        heap = strategy._heap
        self._bump(strategy)
        strategy.attach(solver)
        assert strategy._heap is heap
        assert strategy._kinc == 64.0

    def test_other_solver_takes_the_cold_path(self):
        strategy = VsidsStrategy()
        strategy.persist_activity = True
        first = CdclSolver(pigeonhole(3))
        second = CdclSolver(pigeonhole(3))
        self._solved(strategy, first)
        heap = strategy._heap
        self._bump(strategy)
        strategy.attach(second)
        assert strategy._heap is not heap
        assert strategy._kinc == 1.0

    def test_solver_created_after_the_first_was_freed_is_cold(self):
        strategy = VsidsStrategy()
        strategy.persist_activity = True
        first = CdclSolver(pigeonhole(3))
        self._solved(strategy, first)
        ref = strategy._detached_from
        del first
        assert ref() is None  # freed by refcount, not kept by the strategy
        heap = strategy._heap
        self._bump(strategy)
        second = CdclSolver(pigeonhole(3))
        strategy.attach(second)
        assert strategy._heap is not heap
        assert strategy._kinc == 1.0


needs_native = pytest.mark.skipif(
    not native_available(), reason="the native kernel cannot be built here"
)


@needs_native
def test_native_heap_is_freed_with_its_solver_by_refcount():
    with saved_cyclic_garbage() as found:
        strategy = RankedStrategy({0: 1.0, 3: 2.0}, dynamic=True)
        solver = CdclSolver(
            pigeonhole(4), strategy=strategy,
            config=SolverConfig(kernel="native"),
        )
        assert solver.solve().status is SolveResult.UNSAT
        heap = strategy._heap
        assert isinstance(heap, NativeActivityHeap)
        refs = [weakref.ref(obj) for obj in (solver, strategy, heap)]
        del solver, strategy, heap
        assert [ref() for ref in refs] == [None, None, None]
    assert _leaked(found) == []


def _grow_truth(solver: CdclSolver, how: str) -> None:
    """Resize ``lit_truth`` between solves, the way front ends do: new
    variables alone, or new variables and a batch over them (whose
    unit the install enqueues into the grown ``lit_truth``)."""
    fresh = solver._var_capacity
    solver.ensure_num_vars(fresh + 2)
    if how == "add_clauses":
        solver.add_clauses([[2 * fresh], [2 * fresh + 1, 2 * fresh + 2]])


@needs_native
@pytest.mark.parametrize("persist", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("how", ["ensure_num_vars", "add_clauses"])
def test_native_heap_pins_no_buffer_between_solves(how, persist):
    # A heap that kept its lit_truth view past solve() would make the
    # bytearray's resize raise BufferError.
    strategy = VsidsStrategy()
    strategy.persist_activity = persist
    solver = CdclSolver(
        pigeonhole(3), strategy=strategy, config=SolverConfig(kernel="native")
    )
    assert solver.solve().status is SolveResult.UNSAT
    _grow_truth(solver, how)
    assert solver.solve().status is SolveResult.UNSAT
    assert isinstance(strategy._heap, NativeActivityHeap)


@needs_native
def test_warm_reattach_keeps_the_native_heap_across_a_batch():
    # persist_activity on one solver: the second solve re-attaches warm
    # (same heap object) after an add_clauses batch that resized the
    # solver's clause arrays but not its variable count.
    strategy = VsidsStrategy()
    strategy.persist_activity = True
    solver = CdclSolver(
        pigeonhole(3), strategy=strategy, config=SolverConfig(kernel="native")
    )
    solver.solve()
    heap = strategy._heap
    solver.add_clauses([[0, 2, 4]] * 64)
    assert solver.solve().status is SolveResult.UNSAT
    assert strategy._heap is heap


@pytest.mark.parametrize("plane", PLANES)
def test_heap_size_gauge_reads_the_heap(plane):
    registry = MetricsRegistry()
    strategy = VsidsStrategy()
    solver = CdclSolver(
        pigeonhole(4), strategy=strategy,
        config=SolverConfig(kernel=plane, metrics=registry),
    )
    assert solver.solve().status is SolveResult.UNSAT
    heap = strategy._heap
    expected = VariableActivityHeap if plane == "python" else NativeActivityHeap
    assert type(heap) is expected
    assert 0 < len(heap) <= solver.num_vars
    assert registry.value("solver_heap_size") == len(heap)
