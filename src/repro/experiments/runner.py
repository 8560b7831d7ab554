"""Shared experiment runner: one suite instance under one strategy.

The paper's Table 1 metric is CPU seconds of the whole BMC run.  On this
reproduction the honest analogue is **SAT-search time** (the sum of
per-depth solver times): Python-side CNF assembly is a constant-factor
tax that the authors' C implementation does not pay, and it is identical
across strategies, so including it would only dilute the comparison the
table is about.  Wall time is recorded alongside for completeness, split
into ``build_time`` (circuit construction + unroller setup, i.e. the
part the encoding cache removes) and the engine run;
``wall_time = build_time + run time``.

Cache-sharing and determinism contract
--------------------------------------

Each process holds one :class:`~repro.bmc.cnf_cache.EncodingCache`
(:func:`default_encoding_cache`): every ``run_instance`` call in that
process reuses the circuit build and the CNF frame encodings of earlier
calls on the same suite row, so all five strategies of a Table-1 row
share one build instead of five.  Sharing never changes results —
``Unroller.instance(k)`` yields byte-identical formulas warm or cold,
and engines treat circuit and clause data as read-only — so every
search-derived field (status, depth, decisions, implications,
conflicts, per-depth stats) is independent of cache state.  Only the
timing fields move: ``build_time`` collapses on a hit, and the first
run on a row absorbs the one-time frame-encoding cost inside its wall
time.  Pass ``encoding_cache=None`` explicitly to opt a call out, or a
private :class:`EncodingCache` to scope reuse.

Batches of runs go through :func:`run_instances`, which accepts
``jobs=N`` and fans the (instance, strategy) pairs out over a process
pool (see :mod:`repro.experiments.parallel` for the determinism
contract).  Each worker process memoizes through its own
per-process default cache — no cross-process state.  Since PR 4 the
pool pins all strategies of one suite row to the same worker (affinity
keyed on the instance name), so the per-worker cache hits for every
strategy after the first instead of depending on dynamic assignment.
Timing fields are scheduling-dependent either way; every
search-derived field is identical to a serial run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bmc.cnf_cache import EncodingCache
from repro.bmc.engine import BmcEngine
from repro.bmc.refine import RefineOrderBmc
from repro.bmc.result import BmcResult, BmcStatus, DepthStats
from repro.bmc.shtrichman import ShtrichmanBmc
from repro.sat.observer import SearchObserver, tee
from repro.sat.solver import SolverConfig
from repro.workloads.suite import SuiteInstance

#: Strategy identifiers accepted everywhere in the experiment layer.
#: ``portfolio`` races the paper's strategies per depth with
#: learned-clause sharing (``repro.bmc.portfolio``) instead of picking
#: one ordering.
STRATEGIES = ("bmc", "static", "dynamic", "shtrichman", "berkmin", "portfolio")

#: Sentinel distinguishing "use the process default cache" from an
#: explicit ``encoding_cache=None`` opt-out.
_DEFAULT_CACHE = object()

_process_cache: Optional[EncodingCache] = None


def default_encoding_cache() -> EncodingCache:
    """This process's shared :class:`EncodingCache` (created lazily).

    One per process: serial runs share it across the whole batch;
    ``--jobs`` pool workers each lazily create their own, which is the
    per-worker memo that keeps Table-1 rows from re-encoding per
    strategy inside a worker.
    """
    global _process_cache
    if _process_cache is None:
        _process_cache = EncodingCache()
    return _process_cache


@dataclass
class InstanceResult:
    """Measurements of one (instance, strategy) BMC run."""

    name: str
    strategy: str
    status: str
    depth_reached: int
    solve_time: float  # sum of per-depth SAT times (the Table 1 metric)
    wall_time: float  # build_time + engine run time
    decisions: int
    implications: int
    conflicts: int
    build_time: float = 0.0  # circuit build + unroller setup (pre-run)
    per_depth: List[DepthStats] = field(default_factory=list)


class ProgressPrinter(SearchObserver):
    """Search observer printing the solver's clock-free
    :meth:`~repro.sat.solver.CdclSolver.progress_snapshot` to stderr
    every ``every`` conflicts.  Rates come from ``time.perf_counter``
    deltas taken *here*, never inside the solver.  Module-level and
    attribute-only so instances survive the ``--jobs`` pool's pickling.
    """

    def __init__(self, label: str, every: int) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        self.label = label
        self.every = every
        self._last_time: Optional[float] = None
        self._last_conflicts = 0

    def on_learn(self, solver, learned, btlevel, antecedents) -> None:
        if solver.stats.conflicts % self.every == 0:
            self.report(solver.progress_snapshot())

    def report(self, snap: Dict[str, int]) -> None:
        now = time.perf_counter()
        rate = ""
        if self._last_time is not None:
            elapsed = now - self._last_time
            if elapsed > 0:
                per_sec = (snap["conflicts"] - self._last_conflicts) / elapsed
                rate = f"  {per_sec:,.0f} conflicts/s"
        self._last_time = now
        self._last_conflicts = snap["conflicts"]
        print(
            f"    [{self.label}] conflicts={snap['conflicts']} "
            f"decisions={snap['decisions']} "
            f"propagations={snap['propagations']} "
            f"learned={snap['learned']} "
            f"trail={snap['trail']}/{snap['vars']} "
            f"level={snap['level']}{rate}",
            file=sys.stderr,
            flush=True,
        )


def make_engine(
    instance: SuiteInstance,
    strategy: str,
    solver_config: Optional[SolverConfig] = None,
    switch_divisor: int = 64,
    weighting: str = "linear",
    use_coi: bool = False,
    encoding_cache=_DEFAULT_CACHE,
    phase_mode: Optional[str] = None,
    kernel: Optional[str] = None,
    portfolio_opts: Optional[Dict] = None,
    trace_dir: Optional[str] = None,
    progress: Optional[int] = None,
    profile_access: bool = False,
) -> BmcEngine:
    """Build the BMC engine for a suite row under a named strategy.

    ``encoding_cache`` defaults to the per-process cache (see module
    docstring); pass ``None`` to force a private build.  ``phase_mode``
    and ``kernel`` overlay the matching :class:`SolverConfig` fields on
    whatever configuration is in effect (the experiment CLI's
    ``--phase-mode``/``--kernel`` land here).  ``portfolio_opts`` are
    extra keyword arguments for
    :class:`~repro.bmc.portfolio.PortfolioBmcEngine` when ``strategy``
    is ``"portfolio"`` (e.g. ``deterministic=True``), ignored
    otherwise.  ``trace_dir`` enables binary solver-trace
    telemetry (``repro.sat.trace``): each depth's solve writes
    ``{instance}_{strategy}_d{k:03d}.rtrc`` into that directory.  The
    portfolio engines route the same seam with one caveat — in the row
    race only the *winning* member's solves are kept, and which member
    wins is scheduling-dependent unless ``deterministic=True`` (see
    ``repro.bmc.portfolio``).

    ``progress=N`` tees a :class:`ProgressPrinter` (every ``N``
    conflicts) onto the config's observer.  ``profile_access=True`` turns on
    per-structure access counting (``SolverConfig.profile_access``) and
    — combined with ``trace_dir`` — per-depth ``.racc`` access-stream
    sidecars next to the traces; both are search-identical overlays.
    """
    if encoding_cache is _DEFAULT_CACHE:
        encoding_cache = default_encoding_cache()
    base = solver_config if solver_config is not None else SolverConfig()
    overlay = {}
    if phase_mode is not None:
        overlay["phase_mode"] = phase_mode
    if kernel is not None:
        overlay["kernel"] = kernel
    if profile_access:
        overlay["profile_access"] = True
    if progress is not None:
        overlay["observer"] = tee(
            base.observer,
            ProgressPrinter(f"{instance.name}/{strategy}", progress),
        )
    if overlay:
        solver_config = replace(base, **overlay)
    if encoding_cache is None:
        circuit, prop = instance.build()
        unroller = None
    else:
        circuit, prop, unroller = encoding_cache.unroller_for(instance, use_coi)
    common = dict(
        max_depth=instance.max_depth,
        solver_config=solver_config,
        use_coi=use_coi,
        unroller=unroller,
    )
    if trace_dir is not None:
        common["trace_dir"] = trace_dir
        common["trace_name"] = f"{instance.name}_{strategy}"
    if strategy == "bmc":
        return BmcEngine(circuit, prop, **common)
    if strategy == "portfolio":
        from repro.bmc.portfolio import PortfolioBmcEngine

        opts = dict(portfolio_opts or {})
        opts.setdefault("weighting", weighting)
        return PortfolioBmcEngine(circuit, prop, **opts, **common)
    if strategy == "berkmin":
        from repro.sat.heuristics import BerkMinStrategy

        return BmcEngine(
            circuit, prop,
            strategy_factory=lambda instance, k: BerkMinStrategy(),
            **common,
        )
    if strategy == "shtrichman":
        return ShtrichmanBmc(circuit, prop, **common)
    if strategy == "static":
        return RefineOrderBmc(circuit, prop, mode="static",
                              switch_divisor=switch_divisor,
                              weighting=weighting, **common)
    if strategy == "dynamic":
        return RefineOrderBmc(circuit, prop, mode="dynamic",
                              switch_divisor=switch_divisor,
                              weighting=weighting, **common)
    raise ValueError(f"unknown strategy {strategy!r} (expected one of {STRATEGIES})")


def run_instance(
    instance: SuiteInstance,
    strategy: str,
    solver_config: Optional[SolverConfig] = None,
    **engine_kwargs,
) -> InstanceResult:
    """Run one suite row under one strategy and validate the outcome
    against the row's expectation.

    ``wall_time`` covers the *whole* call — circuit build + unroller
    setup (``build_time``, ~0 on an encoding-cache hit) plus the engine
    run — so cache savings show up in the wall clock rather than
    silently vanishing from it.
    """
    build_start = time.perf_counter()
    engine = make_engine(instance, strategy, solver_config=solver_config, **engine_kwargs)
    build_time = time.perf_counter() - build_start
    result = engine.run()
    _check_expectation(instance, result)
    return InstanceResult(
        name=instance.name,
        strategy=strategy,
        status=result.status.value,
        depth_reached=result.depth_reached,
        solve_time=sum(d.solve_time for d in result.per_depth),
        wall_time=build_time + result.total_time,
        decisions=result.total_decisions,
        implications=result.total_propagations,
        conflicts=result.total_conflicts,
        build_time=build_time,
        per_depth=result.per_depth,
    )


def run_instances(
    pairs: Sequence[Tuple[SuiteInstance, str]],
    jobs: Optional[int] = None,
    nested: bool = False,
    **engine_kwargs,
) -> List[InstanceResult]:
    """Run many (instance, strategy) pairs, optionally in parallel.

    Results are returned in pair order; with ``jobs`` > 1 the pairs are
    distributed over a process pool, with ``jobs=0`` meaning one worker
    per CPU.  ``nested=True`` uses non-daemonic workers so strategies
    that spawn processes of their own (``"portfolio"``) work under a
    pool.  See :mod:`repro.experiments.parallel`.
    """
    from repro.experiments.parallel import run_instances as _run

    return _run(pairs, jobs=jobs, nested=nested, **engine_kwargs)


def _check_expectation(instance: SuiteInstance, result: BmcResult) -> None:
    if instance.expected == "fail":
        if result.status is not BmcStatus.FAILED or result.depth_reached != instance.cex_depth:
            raise AssertionError(
                f"{instance.name}: expected counterexample at depth "
                f"{instance.cex_depth}, got {result.status.value} at {result.depth_reached}"
            )
    else:
        if result.status is not BmcStatus.PASSED_BOUNDED:
            raise AssertionError(
                f"{instance.name}: expected UNSAT through depth {instance.max_depth}, "
                f"got {result.status.value} at {result.depth_reached}"
            )
