"""The BMC depth loop (standard BMC and the paper's Fig. 5 skeleton).

``BmcEngine.run`` is the one depth loop every single-property engine
runs: for ``k = start_depth .. max_depth`` it checks the time budget,
solves depth ``k``, records a :class:`DepthStats`, publishes the depth
metrics, decodes and re-simulates a counterexample on SAT, and calls
the ``on_unsat`` refinement step on UNSAT.  An engine supplies two
things: ``_solve_depth`` (how one depth is solved — here a solver forked
from the run's install template; a persistent solver under an
assumption in ``repro.bmc.incremental``; a strategy portfolio in
``repro.bmc.portfolio``) and ``on_unsat`` (how its ordering is refined —
the paper's ``bmc_score`` update in ``repro.bmc.refine``).  A strategy
factory chooses the decision ordering per instance: plain VSIDS
reproduces "standard BMC".

Per-run state (the install template, a refinement table, a persistent
solver) is created by ``_begin_run`` when ``run()`` starts and released
by ``_end_run`` when it returns, so a second ``run()`` repeats the first.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.encode.unroll import BmcInstance, Unroller
from repro.metrics.access import ACCESS_SUFFIX, AccessStreamWriter
from repro.sat.heuristics import DecisionStrategy, RankedStrategy, VsidsStrategy
from repro.sat.observer import tee
from repro.sat.solver import CdclSolver, InstallTemplate, SolverConfig
from repro.sat.trace import TRACE_SUFFIX, TraceWriter
from repro.sat.types import SolveOutcome, SolveResult
from repro.bmc.result import BmcResult, BmcStatus, DepthStats, Trace

#: What ``_solve_depth`` returns: the outcome and the record's other
#: fields (``num_vars`` and ``num_clauses`` always).
DepthSolve = Tuple[SolveOutcome, Dict[str, Any]]

#: A factory: (instance, k) -> the decision strategy for that SAT call.
StrategyFactory = Callable[[BmcInstance, int], DecisionStrategy]


def vsids_factory(instance: BmcInstance, k: int) -> DecisionStrategy:
    """The baseline: Chaff's default VSIDS on every instance."""
    return VsidsStrategy()


def _gc_counts() -> List[Tuple[int, int]]:
    """``(collections, collected)`` per cyclic-collector generation —
    process-wide counts, no clock read."""
    return [(gen["collections"], gen["collected"]) for gen in gc.get_stats()]


def resolve_unroller(
    circuit: Circuit,
    property_net: int,
    use_coi: bool,
    unroller: Optional[Unroller],
    constrain_init: bool = True,
) -> Unroller:
    """Validate an injected (shared) unroller or build a private one.

    An injected unroller must encode exactly the formula a private one
    would — same circuit object, property, cone-of-influence setting and
    initial-state constraint — otherwise cache sharing would silently
    change results.
    """
    if unroller is None:
        return Unroller(
            circuit, property_net, use_coi=use_coi, constrain_init=constrain_init
        )
    if (
        unroller.circuit is not circuit
        or unroller.property_net != property_net
        or unroller.use_coi != use_coi
        or unroller.constrain_init != constrain_init
    ):
        raise ValueError(
            "injected unroller does not match "
            "circuit/property_net/use_coi/constrain_init"
        )
    return unroller


class BmcEngine:
    """Bounded model checking of an invariant property ``G property_net``.

    Parameters
    ----------
    circuit, property_net:
        The model and the invariant net ``P`` (true = good states).
    max_depth:
        Completeness threshold analogue: the last depth checked.
    strategy_factory:
        Decision-ordering choice per instance (default: VSIDS).
        Subclasses that derive the ordering from their own state
        override :meth:`make_strategy` instead of passing a bound
        method here, which would make the engine reference itself.
    solver_config:
        Per-instance solver configuration, including budgets.
    use_coi:
        Restrict the encoding to the property's cone of influence.
    time_budget:
        Optional wall-clock cap for the whole run; on expiry the run
        reports ``BUDGET_EXHAUSTED`` at the last completed depth (the
        paper's 2-hour-cap rows).
    verify_traces:
        Re-simulate counterexamples before returning them (cheap, on by
        default).
    unroller:
        Optional pre-built (possibly shared) unroller for this circuit
        and property — the CNF-cache hook (see ``repro.bmc.cnf_cache``).
        Must match ``circuit``/``property_net``/``use_coi`` exactly;
        frames already encoded in it are reused, frames it lacks are
        encoded on demand.  Instances assembled from a shared unroller
        are byte-identical to ones from a private unroller.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        strategy_factory: StrategyFactory = vsids_factory,
        solver_config: Optional[SolverConfig] = None,
        use_coi: bool = False,
        start_depth: int = 0,
        time_budget: Optional[float] = None,
        verify_traces: bool = True,
        unroller: Optional[Unroller] = None,
        trace_dir: Optional[str] = None,
        trace_name: str = "bmc",
    ) -> None:
        if max_depth < start_depth:
            raise ValueError("max_depth must be >= start_depth")
        self.circuit = circuit
        self.property_net = property_net
        self.max_depth = max_depth
        self.start_depth = start_depth
        self.strategy_factory = strategy_factory
        self.solver_config = solver_config or SolverConfig()
        #: Per-depth capture (:meth:`capture_config`): each depth's
        #: solve writes ``{trace_name}_d{k:03d}.rtrc`` (and its
        #: ``.racc`` sidecar under ``profile_access``) under this
        #: directory.  The portfolio engines keep the row race's
        #: winning member's files and re-solve a raced depth's winner
        #: with the writers attached — see ``repro.bmc.portfolio``.
        self.trace_dir = trace_dir
        self.trace_name = trace_name
        self.time_budget = time_budget
        self.verify_traces = verify_traces
        self.unroller = resolve_unroller(circuit, property_net, use_coi, unroller)
        #: Optional seam called as ``solver_hook(solver, k)`` right after
        #: each depth's solver is constructed — the portfolio row race
        #: attaches its clause-sharing ``on_learned`` hook here without
        #: subclassing every engine flavour (RefineOrderBmc, Shtrichman
        #: and BerkMin runs all inherit this ``_solve_depth``).
        self.solver_hook = None
        # The run's install template (see install_template), held only
        # while run() runs.
        self._template: Optional[InstallTemplate] = None
        # Collector counts at the last depth boundary (metrics only).
        self._gc_seen: List[Tuple[int, int]] = []

    def make_strategy(self, instance: BmcInstance, k: int) -> DecisionStrategy:
        """The decision strategy for depth ``k`` (default: the factory)."""
        return self.strategy_factory(instance, k)

    def on_unsat(self, k: int, outcome: SolveOutcome) -> Optional[bool]:
        """The refinement step after each UNSAT depth (default: nothing —
        standard BMC learns nothing across depths).  A true return value
        ends the run after depth ``k``."""
        return None

    def _begin_run(self) -> None:
        """Create the per-run state; subclasses add theirs.  The install
        template itself is grown on demand (:meth:`install_template`)."""
        if self.solver_config.metrics is not None:
            self._gc_seen = _gc_counts()

    def _end_run(self) -> None:
        """Release what the run held, whether it ended in a verdict, an
        exhausted budget or an exception."""
        self._template = None

    def _solve_depth(self, k: int) -> DepthSolve:
        """Solve depth ``k``; returns ``(outcome, extras)``, ``extras``
        being the :class:`DepthStats` fields beyond the outcome's.

        Here: a fresh solver for the depth-``k`` instance, forked from
        the run's install template.  Subclasses replace the solving
        machinery — the incremental engine solves on a persistent
        solver, the portfolio engine races several strategies — while
        the depth loop in :meth:`run` stays shared.
        """
        instance = self.unroller.instance(k)
        strategy = self.make_strategy(instance, k)
        config = self.capture_config(self.solver_config, k)
        install_start = time.perf_counter()
        solver = CdclSolver(
            instance.formula, strategy=strategy, config=config,
            template=self.install_template(k),
        )
        extras: Dict[str, Any] = {
            "install_time": time.perf_counter() - install_start,
            "num_vars": instance.formula.num_vars,
            "num_clauses": instance.formula.num_clauses,
        }
        if self.solver_hook is not None:
            self.solver_hook(solver, k)
        outcome = solver.solve()
        if isinstance(strategy, RankedStrategy):
            extras["switched"] = strategy.switched
        return outcome, extras

    def install_template(self, k: int) -> InstallTemplate:
        """The run's install template, grown to frames ``0..k``.

        Depth ``k``'s solver forks it and installs only the property
        clause, so each encoded clause is installed once per run: the
        template grows by constructing the next one from it, which
        installs only the frames it lacks.  Held until :meth:`run`
        returns."""
        prefix, _origins = self.unroller.formula_up_to(k)
        template = self._template
        if template is None or template.num_clauses != prefix.num_clauses:
            template = InstallTemplate(prefix, self.solver_config, template)
            self._template = template
        return template

    def capture_config(self, config: SolverConfig, k: int) -> SolverConfig:
        """``config`` for depth ``k``'s solve: with ``trace_dir`` set,
        its observer teed with a trace writer on
        ``{trace_name}_d{k:03d}.rtrc`` and, under ``profile_access``, an
        access sampler on its ``.racc`` twin."""
        if self.trace_dir is None:
            return config
        stem = os.path.join(self.trace_dir, f"{self.trace_name}_d{k:03d}")
        sinks = [TraceWriter(stem + TRACE_SUFFIX)]
        if config.profile_access:
            sinks.append(AccessStreamWriter(stem + ACCESS_SUFFIX))
        return dc_replace(config, observer=tee(config.observer, *sinks))

    def run(self) -> BmcResult:
        """Execute the depth loop; see :class:`BmcResult`."""
        start = time.perf_counter()
        result = BmcResult(status=BmcStatus.PASSED_BOUNDED, depth_reached=self.start_depth - 1)
        try:
            self._begin_run()
            for k in range(self.start_depth, self.max_depth + 1):
                if (
                    self.time_budget is not None
                    and time.perf_counter() - start > self.time_budget
                ):
                    result.status = BmcStatus.BUDGET_EXHAUSTED
                    break
                outcome, extras = self._solve_depth(k)
                depth_stats = DepthStats.from_outcome(k, outcome, **extras)
                result.per_depth.append(depth_stats)
                self._publish_depth_metrics(depth_stats)
                if outcome.status is SolveResult.UNKNOWN:
                    result.status = BmcStatus.BUDGET_EXHAUSTED
                    break
                result.depth_reached = k
                if outcome.status is SolveResult.SAT:
                    result.status = BmcStatus.FAILED
                    result.trace = Trace.decode(
                        self.unroller, k, outcome.model, self.property_net,
                        verify=self.verify_traces,
                    )
                    break
                if self.on_unsat(k, outcome):
                    break
        finally:
            self._end_run()
        result.total_time = time.perf_counter() - start
        return result

    def _publish_depth_metrics(self, depth_stats: DepthStats) -> None:
        """Publish one depth's outcome into the configured registry.

        The per-solve solver counters already flow through the
        solver's :class:`~repro.sat.observer.MetricsPublisher` (the registry rides
        ``solver_config.metrics`` into every depth's solver); this adds
        the depth-loop view: current depth, instance size, and
        per-status depth counts.  Status is the only extra label of the
        ``bmc_*`` series — depth ``k`` is a gauge value, not a label, to
        keep series cardinality bounded.

        It also publishes the cyclic garbage collector's activity since
        the previous boundary (run start for the first depth), per
        generation: ``python_gc_collections_total`` and
        ``python_gc_collected_total``.  Counts only, like every other
        epoch-boundary publish.  Nothing in the depth loop should need
        the collector, so a generation-2 ``collected`` that stays near
        0 is the sign that no solver is left behind in a reference
        cycle.
        """
        registry = self.solver_config.metrics
        if registry is None:
            return
        labels = dict(self.solver_config.metrics_labels or {})
        registry.gauge("bmc_depth", labels=labels).set(float(depth_stats.k))
        registry.gauge("bmc_instance_vars", labels=labels).set(
            float(depth_stats.num_vars)
        )
        registry.gauge("bmc_instance_clauses", labels=labels).set(
            float(depth_stats.num_clauses)
        )
        registry.counter("bmc_depths_total", labels=labels).inc()
        registry.counter("bmc_solve_seconds_total", labels=labels).inc(
            depth_stats.solve_time
        )
        status_labels = dict(labels)
        status_labels["status"] = depth_stats.status
        registry.counter("bmc_depth_status_total", labels=status_labels).inc()
        seen = _gc_counts()
        for generation, ((collections, collected), (old_c, old_k)) in enumerate(
            zip(seen, self._gc_seen)
        ):
            gen_labels = dict(labels)
            gen_labels["generation"] = str(generation)
            registry.counter(
                "python_gc_collections_total",
                help="Cyclic garbage collector runs, per generation.",
                labels=gen_labels,
            ).inc(collections - old_c)
            registry.counter(
                "python_gc_collected_total",
                help="Objects the cyclic garbage collector freed, per generation.",
                labels=gen_labels,
            ).inc(collected - old_k)
        self._gc_seen = seen
