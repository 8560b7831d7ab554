"""Portfolio BMC: race the paper's strategies on every depth.

Table 1 shows no strategy dominating — which is exactly the situation a
portfolio turns into speed.  Two engines, both reusing the shared
encoding-cache unroller (one circuit build + frame encoding feeds every
member):

* :class:`PortfolioBmcEngine` — the one-shot depth loop of
  :class:`~repro.bmc.engine.BmcEngine` with its per-depth solve
  replaced by a :class:`~repro.sat.portfolio.PortfolioSolver` race over
  several strategy cells.  The winner's verdict/model/core decides the
  depth; its unsat core feeds the paper's ``bmc_score`` ranking so the
  ranked members sharpen depth over depth.  Small instances (below
  ``race_min_clauses``) are solved serially by the lead member —
  process spawn costs more than racing saves there.
* :class:`IncrementalPortfolioBmc` — N *persistent* incremental
  solvers (SATIRE-style: frames streamed once, learned clauses
  surviving across depths), advanced in deterministic conflict-barrier
  epochs per depth with learned-clause sharing between the members at
  every barrier.  Entirely in-process and byte-reproducible.

Soundness note for the incremental engine: members share learned
clauses while solving under the depth-``k`` assumption ``not P(V_k)``,
but CDCL learned clauses never depend on assumption *truth* — analysis
stops at decision variables, so every learned clause is a consequence
of the fed frames alone.  All members feed identical frames (the
watermark-bounded stream of :func:`repro.bmc.incremental.feed_frames`),
hence every shared clause is sound for every peer at every later depth.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.cnf.literals import lit_neg
from repro.encode.unroll import BmcInstance, Unroller
from repro.sat.heuristics import RankedStrategy
from repro.sat.portfolio import (
    DEFAULT_EPOCH_CONFLICTS,
    DEFAULT_SHARE_MAX_LEN,
    MemberReport,
    PortfolioMember,
    PortfolioSolver,
    SharedClauseBus,
    _available_cpus,
    _in_daemon,
    carve_epoch_budgets,
)
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveOutcome, SolveResult
from repro.bmc.engine import BmcEngine, resolve_unroller
from repro.bmc.incremental import decode_trace, feed_frames
from repro.bmc.refine import WEIGHTINGS, bmc_score_update
from repro.bmc.result import BmcResult, BmcStatus, DepthStats

#: Default per-depth portfolio: the paper's Table-1 strategy families.
#: The ranked members receive the engine's live ``bmc_score`` ranking.
BMC_MEMBER_SPECS = ("vsids", "berkmin", "ranked-static", "ranked-dynamic")

#: Below this many clauses a depth is solved serially by the lead
#: member: spawning/racing N solvers costs more wall time than the
#: fastest member could possibly save on a trivial instance.
DEFAULT_RACE_MIN_CLAUSES = 4000

#: Row-race granularities (see :class:`PortfolioBmcEngine`).
GRANULARITIES = ("row", "depth")


def default_bmc_members(
    var_rank: Optional[Dict[int, float]] = None,
    specs: Sequence[str] = BMC_MEMBER_SPECS,
    base_config: Optional[SolverConfig] = None,
) -> List[PortfolioMember]:
    """Portfolio members for a BMC depth race, ranked cells seeded with
    the current ``bmc_score`` table.

    BMC members vary only the *strategy* axis; the phase and minimize
    cells come from ``base_config`` (so a caller's ``--phase-mode``
    applies to the portfolio column exactly as it does to the single
    strategy columns, and the depth and row granularities run the same
    solver configuration)."""
    rank = tuple(sorted((var_rank or {}).items()))
    config = base_config if base_config is not None else SolverConfig()
    members = []
    for spec in specs:
        members.append(
            PortfolioMember(
                name=spec,
                strategy=spec,
                phase_mode=config.phase_mode,
                minimize_learned=config.minimize_learned,
                var_rank=rank if spec.startswith("ranked") else (),
            )
        )
    return members


class PortfolioBmcEngine(BmcEngine):
    """The :class:`BmcEngine` depth loop backed by a strategy portfolio.

    Two race granularities (``granularity``):

    * ``"row"`` (default) — one *persistent* worker process per member,
      each running the member's own full depth loop (ranked members run
      their private Fig. 5 core-refinement loop, exactly as the single
      ``static``/``dynamic`` engines do); the first member to finish
      the whole row supplies the :class:`BmcResult` and the losers are
      cancelled.  Learned clauses are exported at restart points tagged
      with their depth and delivered to peers *at the same depth* —
      every member solves byte-identical depth-``k`` formulas (one
      shared unroller), so same-depth sharing is sound while the
      members' depth loops drift apart freely.  Process spawn is paid
      once per row, not per depth.
    * ``"depth"`` — each depth is one
      :class:`~repro.sat.portfolio.PortfolioSolver` call (deterministic
      epoch-barrier mode available and byte-reproducible); depths whose
      CNF is below ``race_min_clauses`` are solved serially by the lead
      member (recorded as winner ``"serial:<name>"``).  The winner's
      unsat core feeds a shared ``bmc_score`` ranking for the ranked
      members at later depths.

    ``deterministic=True`` forces the ``"depth"`` granularity (a
    wall-clock row race cannot be reproducible).  Inside a daemonic
    pool worker the row race cannot fork and likewise falls back to the
    in-process depth path.

    Solver-trace telemetry (``trace_dir``/``trace_name``, inherited
    from :class:`BmcEngine`): the row race has every member write its
    per-depth traces as ``{trace_name}__{spec}_d{k:03d}.rtrc`` and
    afterwards keeps only the *winner's*, renamed to the canonical
    ``{trace_name}_d{k:03d}.rtrc`` (losers' files, including partial
    files of cancelled members, are removed); the depth granularity
    traces the serial small-formula solves inline and re-solves each
    raced depth's winning member standalone with the writer attached
    (see :meth:`_trace_winner_replay` for why a race cannot be traced
    in place).  Limitation: under the wall-clock row race, which
    member wins — and therefore which traces survive — is
    scheduling-dependent run to run; traced portfolio runs are
    byte-reproducible only with ``deterministic=True``.

    Parameters beyond :class:`BmcEngine` (``strategy_factory`` is
    ignored — the portfolio supplies the strategies): ``member_specs``
    (default :data:`BMC_MEMBER_SPECS`), ``deterministic`` / ``jobs`` /
    ``share_max_len`` / ``epoch_conflicts`` (forwarded to
    :class:`PortfolioSolver` in depth mode), ``race_min_clauses``,
    ``weighting`` (the ``bmc_score`` rule, paper §3.2).
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        member_specs: Sequence[str] = BMC_MEMBER_SPECS,
        granularity: str = "row",
        deterministic: bool = False,
        jobs: Optional[int] = None,
        share_max_len: Optional[int] = DEFAULT_SHARE_MAX_LEN,
        epoch_conflicts: int = DEFAULT_EPOCH_CONFLICTS,
        race_min_clauses: int = DEFAULT_RACE_MIN_CLAUSES,
        weighting: str = "linear",
        **engine_kwargs,
    ) -> None:
        super().__init__(circuit, property_net, max_depth, **engine_kwargs)
        if not member_specs:
            raise ValueError("member_specs must not be empty")
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        if weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        if not self.solver_config.record_cdg and any(
            spec.startswith("ranked") for spec in member_specs
        ):
            raise ValueError("ranked portfolio members require record_cdg=True")
        self.member_specs = tuple(member_specs)
        self.granularity = "depth" if deterministic else granularity
        self.deterministic = deterministic
        self.jobs = jobs
        self.share_max_len = share_max_len
        self.epoch_conflicts = epoch_conflicts
        self.race_min_clauses = race_min_clauses
        self.weighting = weighting
        self.var_rank: Dict[int, float] = {}
        #: Winner of the whole row (row granularity) or None.
        self.row_winner: Optional[str] = None
        #: Per-member row-race reports (row granularity).
        self.reports: List[MemberReport] = []
        #: Per-depth sharing telemetry:
        #: (k, winner, raced, epochs, shared_clauses, deliveries, wall_time).
        self.sharing_log: List[Tuple] = []

    # ------------------------------------------------------------------
    # Row-granularity race.
    # ------------------------------------------------------------------

    def run(self) -> BmcResult:
        if self.granularity == "row" and not _in_daemon():
            width = min(len(self.member_specs), _available_cpus())
            if self.jobs is not None and self.jobs > 0:
                width = min(width, self.jobs)
            if width <= 1:
                return self._run_row_serial()
            return self._run_row_race(width)
        return super().run()

    def _run_row_serial(self) -> BmcResult:
        """Width-1 degradation of the row race (single CPU or
        ``jobs=1``): the lead member's engine runs in-process — no
        spawn, no bus, no overhead over the plain engine."""
        start = time.perf_counter()
        spec = self.member_specs[0]
        engine = _member_engine(
            spec, self.circuit, self.property_net, self.max_depth,
            self.solver_config, self.weighting, self.start_depth,
            self.time_budget, self.verify_traces, self.unroller.use_coi,
            self.unroller, self.trace_dir, self.trace_name,
        )
        result = engine.run()
        winner = f"serial:{spec}"
        for depth_stats in result.per_depth:
            depth_stats.winner = winner
        self.row_winner = winner
        self.reports = [MemberReport(name=spec, status=result.status.value,
                                     winner=True)]
        for other in self.member_specs[1:]:
            self.reports.append(MemberReport(name=other, status="skipped"))
        wall = time.perf_counter() - start
        self.sharing_log.append(
            (result.depth_reached, winner, False, 0, 0, 0, wall)
        )
        return result

    def _run_row_race(self, width: Optional[int] = None) -> BmcResult:
        from multiprocessing import get_context
        import queue as queue_module
        import sys

        start = time.perf_counter()
        specs = self.member_specs
        if width is not None and width < len(specs):
            specs = specs[:width]
        num = len(specs)
        method = "fork" if sys.platform == "linux" else "spawn"
        context = get_context(method)
        result_q = context.Queue()
        export_q = context.Queue()
        import_qs = [context.Queue() for _ in range(num)]
        # Under fork the children inherit the parent's unroller (and
        # its cached frames) copy-on-write; under spawn the identity
        # checks of resolve_unroller would fail on a pickled copy, so
        # children rebuild privately.
        unroller = self.unroller if method == "fork" else None
        processes = []
        for index, spec in enumerate(specs):
            process = context.Process(
                target=_row_race_worker,
                args=(
                    index, spec, self.circuit, self.property_net,
                    self.max_depth, self.solver_config, self.share_max_len,
                    self.weighting, self.start_depth, self.time_budget,
                    self.verify_traces, self.unroller.use_coi, unroller,
                    self.trace_dir, f"{self.trace_name}__{spec}",
                    export_q, import_qs[index], result_q,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)

        buses: Dict[int, SharedClauseBus] = {}
        reports = [MemberReport(name=spec) for spec in specs]
        results: Dict[int, BmcResult] = {}
        winner_index: Optional[int] = None
        shared = deliveries = 0
        try:
            while winner_index is None and len(results) < num:
                while True:
                    try:
                        index, k, batch, depth_conflicts = export_q.get_nowait()
                    except queue_module.Empty:
                        break
                    report = reports[index]
                    report.depth = k  # deepest depth seen
                    if depth_conflicts:
                        # Best-effort live counter for members that end
                        # up cancelled: conflicts in their current depth.
                        report.conflicts = depth_conflicts
                    # A depth every member has passed can never be
                    # shared into again: retire its bus (keeping the
                    # counters) so coordinator memory stays bounded by
                    # in-flight depths, not total exports.  Workers
                    # send a marker at every depth start, so the
                    # frontier advances even for members that never
                    # export.
                    frontier = min(r.depth or 0 for r in reports)
                    for tag in [tag for tag in buses if tag < frontier]:
                        retired = buses.pop(tag)
                        shared += retired.shared
                        deliveries += retired.deliveries
                    if not batch:
                        continue
                    bus = buses.get(k)
                    if bus is None:
                        bus = buses[k] = SharedClauseBus(num)
                    bus.publish(index, batch)
                    for other in range(num):
                        if other != index:
                            pending = bus.collect(other)
                            if pending:
                                import_qs[other].put((k, pending))
                try:
                    index, kind, payload = result_q.get(timeout=0.02)
                except queue_module.Empty:
                    if all(not process.is_alive() for process in processes):
                        if len(results) == num:
                            break  # every member reported (all exhausted)
                        raise RuntimeError(
                            "a portfolio row-race worker died without a "
                            f"result ({len(results)}/{num} members reported)"
                        )
                    continue
                if kind == "error":
                    raise RuntimeError(
                        f"portfolio row-race worker failed: {payload}"
                    )
                results[index] = payload
                if payload.status is not BmcStatus.BUDGET_EXHAUSTED:
                    # The first *complete* row wins; budget-exhausted
                    # members keep waiting for a better answer.
                    winner_index = index
                    # Co-finishers already queued beat the
                    # cancellation: record their real results (and let
                    # the verdict cross-check below see them).
                    while True:
                        try:
                            other, okind, opayload = result_q.get_nowait()
                        except queue_module.Empty:
                            break
                        if okind == "done":
                            results[other] = opayload
        finally:
            for index, process in enumerate(processes):
                if index != winner_index and process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2)
                if process.is_alive():  # pragma: no cover - backstop
                    process.kill()
                    process.join(timeout=1)
            for q in [result_q, export_q, *import_qs]:
                q.cancel_join_thread()
        shared += sum(bus.shared for bus in buses.values())
        deliveries += sum(bus.deliveries for bus in buses.values())
        if winner_index is None:
            # Every member exhausted its budget: report the deepest run.
            winner_index = max(
                results, key=lambda index: results[index].depth_reached
            )
        result = results[winner_index]
        winner = specs[winner_index]
        # Soundness backstop (same as the deterministic modes): every
        # member that completed the row must agree with the winner.
        verdicts = {
            r.status
            for r in results.values()
            if r.status is not BmcStatus.BUDGET_EXHAUSTED
        }
        if len(verdicts) > 1:  # pragma: no cover - soundness backstop
            raise RuntimeError(
                f"portfolio row-race members disagree: {verdicts} "
                f"(an imported clause was not a consequence?)"
            )
        for index, report in enumerate(reports):
            if index == winner_index:
                report.winner = True
                report.status = result.status.value
                report.conflicts = result.total_conflicts
                report.decisions = result.total_decisions
                report.propagations = result.total_propagations
                report.solve_time = sum(d.solve_time for d in result.per_depth)
            elif index in results:
                report.status = results[index].status.value
            else:
                report.status = "cancelled"
        for other in self.member_specs[num:]:
            reports.append(MemberReport(name=other, status="skipped"))
        for depth_stats in result.per_depth:
            depth_stats.winner = winner
        if self.trace_dir is not None:
            _promote_winner_traces(
                self.trace_dir, self.trace_name, specs, winner
            )
        self.row_winner = winner
        self.reports = reports
        wall = time.perf_counter() - start
        self.sharing_log.append(
            (result.depth_reached, winner, True, 0, shared, deliveries, wall)
        )
        result.total_time = wall
        return result

    def _solve_depth(self, instance: BmcInstance, k: int) -> tuple:
        members = default_bmc_members(
            self.var_rank, self.member_specs, self.solver_config
        )
        if instance.formula.num_clauses < self.race_min_clauses:
            # Too small to amortize a race: lead member, fresh solver.
            config = members[0].overlay_config(self.solver_config, None)
            if self.trace_dir is not None:
                config = dc_replace(
                    config, trace_path=self._depth_trace_path(k)
                )
            solver = CdclSolver(
                instance.formula,
                strategy=members[0].build_strategy(),
                config=config,
            )
            outcome = solver.solve()
            winner = f"serial:{members[0].name}"
            self.sharing_log.append((k, winner, False, 0, 0, 0,
                                     outcome.stats.solve_time))
        else:
            portfolio = PortfolioSolver(
                instance.formula,
                members=members,
                base_config=self.solver_config,
                deterministic=self.deterministic,
                jobs=self.jobs,
                share_max_len=self.share_max_len,
                epoch_conflicts=self.epoch_conflicts,
            )
            result = portfolio.solve()
            outcome = result.outcome
            if outcome is None:
                outcome = SolveOutcome(status=SolveResult.UNKNOWN)
            else:
                # The Table-1 metric is the depth's SAT cost; for a race
                # that is the wall time of the race itself (spawn and
                # bus overhead included — the honest number).
                outcome.stats.solve_time = result.wall_time
                # The winner's outcome.stats cover only its final epoch
                # (stats reset on each solve() re-entry); the depth's
                # real search work is the cumulative member report.
                for report in result.reports:
                    if report.winner:
                        outcome.stats.decisions = report.decisions
                        outcome.stats.propagations = report.propagations
                        outcome.stats.conflicts = report.conflicts
                        outcome.stats.restarts = report.restarts
                        break
            winner = result.winner
            self.sharing_log.append((
                k, winner, True, result.epochs, result.shared_clauses,
                result.deliveries, result.wall_time,
            ))
            if self.trace_dir is not None and winner is not None:
                self._trace_winner_replay(instance, members, winner, k)
        if (
            outcome.status is SolveResult.UNSAT
            and outcome.core_vars is not None
        ):
            bmc_score_update(self.var_rank, outcome.core_vars, k, self.weighting)
        return outcome, {"winner": winner}

    def _depth_trace_path(self, k: int) -> str:
        """Canonical trace file for depth ``k`` (matches the name the
        plain :class:`BmcEngine` seam would write)."""
        return os.path.join(self.trace_dir, f"{self.trace_name}_d{k:03d}.rtrc")

    def _trace_winner_replay(
        self, instance: BmcInstance, members, winner: str, k: int
    ) -> None:
        """Depth-granularity tracing: re-solve the winning member's
        configuration standalone with the trace writer attached.

        The race itself cannot be traced in place — its members run in
        worker processes (or epoch slices) whose searches depend on
        cross-member clause deliveries, and the trace seam records one
        solver's solve.  The replay is a clean solo solve of the
        winner's strategy on the byte-identical depth formula:
        representative of the winning ordering, not a literal
        transcript of the raced search.  Its outcome and statistics
        are discarded (the race already decided the depth)."""
        member = next((m for m in members if m.name == winner), None)
        if member is None:  # pragma: no cover - serial winners trace inline
            return
        config = dc_replace(
            member.overlay_config(self.solver_config, None),
            trace_path=self._depth_trace_path(k),
        )
        CdclSolver(
            instance.formula, strategy=member.build_strategy(), config=config
        ).solve()


def _promote_winner_traces(
    trace_dir: str, trace_name: str, specs: Sequence[str], winner: str
) -> None:
    """Keep only the row-race winner's per-member solver traces.

    Workers write ``{trace_name}__{spec}_d{k:03d}.rtrc``; the winner's
    files are renamed to the canonical ``{trace_name}_d{k:03d}.rtrc``
    and every loser's (including partial files left by a cancelled
    member mid-write) are removed."""
    for spec in specs:
        prefix = f"{trace_name}__{spec}_d"
        for fname in sorted(os.listdir(trace_dir)):
            if not (fname.startswith(prefix) and fname.endswith(".rtrc")):
                continue
            path = os.path.join(trace_dir, fname)
            if spec == winner:
                tail = fname[len(f"{trace_name}__{spec}"):]
                os.replace(path, os.path.join(trace_dir, trace_name + tail))
            else:
                os.remove(path)


def _member_engine(
    spec, circuit, property_net, max_depth, config, weighting,
    start_depth, time_budget, verify_traces, use_coi, unroller,
    trace_dir=None, trace_name="bmc",
):
    """Build the single-strategy engine a row-race worker runs: the
    plain VSIDS/BerkMin depth loops or the paper's refine-order loop
    (each ranked member refines from its *own* cores, exactly as the
    standalone ``static``/``dynamic`` engines do)."""
    common = dict(
        max_depth=max_depth, solver_config=config, start_depth=start_depth,
        time_budget=time_budget, verify_traces=verify_traces,
        use_coi=use_coi, unroller=unroller,
        trace_dir=trace_dir, trace_name=trace_name,
    )
    if spec == "vsids":
        return BmcEngine(circuit, property_net, **common)
    if spec == "berkmin":
        from repro.sat.heuristics import BerkMinStrategy

        return BmcEngine(
            circuit, property_net,
            strategy_factory=lambda instance, k: BerkMinStrategy(),
            **common,
        )
    if spec in ("ranked-static", "ranked-dynamic"):
        from repro.bmc.refine import RefineOrderBmc

        return RefineOrderBmc(
            circuit, property_net,
            mode="static" if spec == "ranked-static" else "dynamic",
            weighting=weighting, **common,
        )
    raise ValueError(f"unknown portfolio member spec {spec!r}")


def _row_race_worker(
    index, spec, circuit, property_net, max_depth, base_config,
    share_max_len, weighting, start_depth, time_budget, verify_traces,
    use_coi, unroller, trace_dir, trace_name, export_q, import_q, result_q,
):
    """Row-race child: run one member's whole depth loop, exporting
    learned clauses tagged with their depth at every restart and
    importing the same-depth clauses of peers.  ``trace_name`` is the
    member-qualified ``{row}__{spec}`` prefix; the parent promotes the
    winner's files and deletes the rest afterwards."""
    import queue as queue_module

    try:
        config = dc_replace(
            base_config if base_config is not None else SolverConfig(),
            export_learned_max_len=share_max_len,
        )
        engine = _member_engine(
            spec, circuit, property_net, max_depth, config, weighting,
            start_depth, time_budget, verify_traces, use_coi, unroller,
            trace_dir, trace_name,
        )
        held: Dict[int, list] = {}

        def solver_hook(solver, k):
            # Batches tagged below the current depth can never be
            # replayed (each depth's formula is distinct): evict them
            # so the held buffer stays bounded by in-flight depths.
            for tag in [tag for tag in held if tag < k]:
                del held[tag]
            # Depth marker (empty batch): advances the parent's
            # bus-retirement frontier even if this member never hits a
            # restart/sharing point within the depth.
            export_q.put((index, k, (), 0))
            # Weak: the solver holds the hook, so a strong reference
            # here would keep every depth's solver for the collector.
            solver_ref = weakref.ref(solver)

            def hook(batch):
                export_q.put((index, k, batch, solver_ref().stats.conflicts))
                while True:
                    try:
                        tag, clauses = import_q.get_nowait()
                    except queue_module.Empty:
                        break
                    if tag >= k:  # stale depths can never be replayed
                        held.setdefault(tag, []).extend(clauses)
                return held.pop(k, None)

            solver.on_learned = hook

        engine.solver_hook = solver_hook
        result = engine.run()
        result_q.put((index, "done", result))
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        result_q.put((index, "error", f"{type(exc).__name__}: {exc}"))


class IncrementalPortfolioBmc:
    """Deterministic incremental portfolio BMC.

    N persistent solvers — one per member — are fed identical frame
    streams from one (shareable) unroller; each depth is raced in
    conflict-barrier epochs with learned clauses crossing a
    :class:`~repro.sat.portfolio.SharedClauseBus` between epochs, so a
    member benefits from every peer's *entire history* (clauses learned
    at earlier depths included, the SATIRE transfer channel multiplied
    by the portfolio width).  Runs in one process; every search-derived
    number is reproducible.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        member_specs: Sequence[str] = BMC_MEMBER_SPECS,
        solver_config: Optional[SolverConfig] = None,
        use_coi: bool = False,
        time_budget: Optional[float] = None,
        verify_traces: bool = True,
        unroller: Optional[Unroller] = None,
        share_max_len: Optional[int] = DEFAULT_SHARE_MAX_LEN,
        epoch_conflicts: int = DEFAULT_EPOCH_CONFLICTS,
        weighting: str = "linear",
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if not member_specs:
            raise ValueError("member_specs must not be empty")
        if weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        if epoch_conflicts <= 0:
            raise ValueError("epoch_conflicts must be positive")
        config = solver_config or SolverConfig()
        if not config.record_cdg and any(
            spec.startswith("ranked") for spec in member_specs
        ):
            raise ValueError("ranked portfolio members require record_cdg=True")
        self.circuit = circuit
        self.property_net = property_net
        self.max_depth = max_depth
        self.member_specs = tuple(member_specs)
        self.solver_config = config
        self.time_budget = time_budget
        self.verify_traces = verify_traces
        self.unroller = resolve_unroller(circuit, property_net, use_coi, unroller)
        self.share_max_len = share_max_len
        self.epoch_conflicts = epoch_conflicts
        self.weighting = weighting
        self.var_rank: Dict[int, float] = {}
        members = default_bmc_members(None, member_specs, config)
        self._members = members
        self._solvers = [
            CdclSolver(config=member.overlay_config(config, share_max_len))
            for member in members
        ]
        self._fed = [0] * len(members)
        #: Cumulative per-member accounting across the whole run.
        self.reports = [MemberReport(name=member.name) for member in members]
        self.shared_clauses = 0
        self.deliveries = 0

    def _strategy_for(self, index: int):
        member = self._members[index]
        if member.strategy.startswith("ranked"):
            strategy = RankedStrategy(
                self.var_rank, dynamic=(member.strategy == "ranked-dynamic")
            )
        else:
            strategy = member.build_strategy()
        # A depth's strategy re-attaches at every epoch barrier; keep
        # the activity it accumulated within the depth.
        strategy.persist_activity = True
        return strategy

    def run(self) -> BmcResult:
        """Execute the incremental portfolio depth loop."""
        start = time.perf_counter()
        result = BmcResult(status=BmcStatus.PASSED_BOUNDED, depth_reached=-1)
        num = len(self._members)
        bus = SharedClauseBus(num)
        for k in range(self.max_depth + 1):
            if (
                self.time_budget is not None
                and time.perf_counter() - start > self.time_budget
            ):
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            for index, solver in enumerate(self._solvers):
                self._fed[index] = feed_frames(
                    solver, self.unroller, k, self._fed[index]
                )
            assumption = lit_neg(self.unroller.lit_of(self.property_net, k))
            strategies = [self._strategy_for(index) for index in range(num)]
            winner_index: Optional[int] = None
            winner_outcome: Optional[SolveOutcome] = None
            depth_stats = [
                dict(conflicts=0, decisions=0, propagations=0, solve_time=0.0,
                     root_pruned=0)
                for _ in range(num)
            ]
            budget_hit = False
            # Caller-supplied max_conflicts/max_propagations/
            # max_decisions cap each member's cumulative work per
            # depth; epochs are carved out of the remainder (the
            # shared carve_epoch_budgets rule) rather than silently
            # replacing the caps with per-epoch ones.
            caps = (
                self.solver_config.max_conflicts,
                self.solver_config.max_propagations,
                self.solver_config.max_decisions,
            )
            while winner_index is None and not budget_hit:
                finishers: List[Tuple[int, SolveOutcome]] = []
                dispatched_any = False
                for index, solver in enumerate(self._solvers):
                    acc = depth_stats[index]
                    budgets = carve_epoch_budgets(
                        self.epoch_conflicts,
                        caps,
                        (
                            acc["conflicts"],
                            acc["propagations"],
                            acc["decisions"],
                        ),
                    )
                    if budgets is None:
                        continue
                    dispatched_any = True
                    for lits in bus.collect(index):
                        solver.add_shared_clause(lits)
                    (
                        solver.config.max_conflicts,
                        solver.config.max_propagations,
                        solver.config.max_decisions,
                    ) = budgets
                    outcome = solver.solve(
                        assumptions=[assumption], strategy=strategies[index]
                    )
                    stats = outcome.stats
                    acc = depth_stats[index]
                    acc["conflicts"] += stats.conflicts
                    acc["decisions"] += stats.decisions
                    acc["propagations"] += stats.propagations
                    acc["solve_time"] += stats.solve_time
                    acc["root_pruned"] += stats.root_pruned_clauses
                    report = self.reports[index]
                    report.epochs += 1
                    report.conflicts += stats.conflicts
                    report.decisions += stats.decisions
                    report.propagations += stats.propagations
                    report.restarts += stats.restarts
                    report.exported += stats.exported_clauses
                    report.imported += stats.imported_clauses
                    report.solve_time += stats.solve_time
                    bus.publish(index, solver.drain_exported())
                    if outcome.status is not SolveResult.UNKNOWN:
                        finishers.append((index, outcome))
                if finishers:
                    winner_index, winner_outcome = finishers[0]
                    verdicts = {o.status for _i, o in finishers}
                    if len(verdicts) > 1:  # pragma: no cover - backstop
                        raise RuntimeError(
                            f"portfolio members disagree at depth {k}: {verdicts}"
                        )
                elif not dispatched_any or (
                    self.time_budget is not None
                    and time.perf_counter() - start > self.time_budget
                ):
                    # Every member exhausted its per-depth conflict cap
                    # (or the wall budget expired): the depth is
                    # undecided, exactly like a budgeted single solve.
                    budget_hit = True
            if budget_hit:
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            acc = depth_stats[winner_index]
            outcome = winner_outcome
            result.per_depth.append(
                DepthStats(
                    k=k,
                    status=outcome.status.value,
                    num_vars=self._solvers[winner_index].num_vars,
                    num_clauses=self._fed[winner_index],
                    decisions=acc["decisions"],
                    propagations=acc["propagations"],
                    conflicts=acc["conflicts"],
                    solve_time=acc["solve_time"],
                    core_clauses=(
                        len(outcome.core_clauses)
                        if outcome.core_clauses is not None
                        else None
                    ),
                    core_vars=(
                        len(outcome.core_vars)
                        if outcome.core_vars is not None
                        else None
                    ),
                    root_pruned=acc["root_pruned"],
                    winner=self._members[winner_index].name,
                )
            )
            result.depth_reached = k
            self.reports[winner_index].status = outcome.status.value
            if outcome.status is SolveResult.SAT:
                result.status = BmcStatus.FAILED
                result.trace = decode_trace(
                    self.circuit, self.unroller, self.property_net, k,
                    outcome.model, verify=self.verify_traces,
                )
                break
            if outcome.core_vars is not None:
                bmc_score_update(
                    self.var_rank, outcome.core_vars, k, self.weighting
                )
        self.shared_clauses = bus.shared
        self.deliveries = bus.deliveries
        result.total_time = time.perf_counter() - start
        return result
