"""Portfolio BMC: race the paper's strategies on every row.

Table 1 shows no strategy dominating — which is exactly the situation a
portfolio turns into speed.  :class:`PortfolioBmcEngine` runs on one
unroller (one circuit build and frame encoding feed every member) and
the race driver of :mod:`repro.sat.race`: a wall-clock row race of
whole member depth loops, or with ``deterministic=True`` the one-shot
depth loop with each depth solved by a deterministic
:class:`~repro.sat.portfolio.PortfolioSolver`.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.encode.unroll import BmcInstance
from repro.metrics.access import ACCESS_SUFFIX
from repro.sat.portfolio import (
    DEFAULT_EPOCH_CONFLICTS,
    DEFAULT_SHARE_MAX_LEN,
    PortfolioMember,
    PortfolioSolver,
)
from repro.sat.race import (
    START_METHOD,
    DepthBuses,
    MemberReport,
    race,
    race_width,
)
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.trace import TRACE_SUFFIX
from repro.sat.types import SolveOutcome, SolveResult
from repro.bmc.engine import BmcEngine, DepthSolve
from repro.bmc.refine import WEIGHTINGS, bmc_score_update
from repro.bmc.result import BmcResult, BmcStatus

#: Default per-depth portfolio: the paper's Table-1 strategy families.
#: The ranked members receive the engine's live ``bmc_score`` ranking.
BMC_MEMBER_SPECS = ("vsids", "berkmin", "ranked-static", "ranked-dynamic")

#: Below this many clauses a depth is solved serially by the lead
#: member: spawning/racing N solvers costs more wall time than the
#: fastest member could possibly save on a trivial instance.
DEFAULT_RACE_MIN_CLAUSES = 4000


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
    strategy columns, and the row race and the per-depth epochs run the
    same solver configuration)."""
    rank = tuple(sorted((var_rank or {}).items()))
    config = base_config if base_config is not None else SolverConfig()
    return [
        PortfolioMember(
            name=spec, strategy=spec, phase_mode=config.phase_mode,
            minimize_learned=config.minimize_learned,
            var_rank=rank if spec.startswith("ranked") else (),
        )
        for spec in specs
    ]


def _check_members(
    member_specs: Sequence[str], weighting: str, config: SolverConfig
) -> None:
    if not member_specs:
        raise ValueError("member_specs must not be empty")
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    if not config.record_cdg and any(
        spec.startswith("ranked") for spec in member_specs
    ):
        raise ValueError("ranked portfolio members require record_cdg=True")


class PortfolioBmcEngine(BmcEngine):
    """The :class:`BmcEngine` depth loop backed by a strategy portfolio.

    Two modes, selected by ``deterministic``:

    * ``False`` (default) — the *row race*: one forked child per member
      (at most :func:`~repro.sat.race.race_width`) runs the member's own
      full depth loop (ranked members run their private Fig. 5
      core-refinement loop, exactly as the single ``static``/``dynamic``
      engines do); the first member to finish the row supplies the
      :class:`BmcResult` and the losers are cancelled.  Learned clauses
      are tagged with their depth and delivered to peers *at the same
      depth* — every member solves byte-identical depth-``k`` formulas
      (one shared unroller), so same-depth sharing is sound while the
      members' loops drift apart.  At width 1 the lead member's engine
      runs in-process.
    * ``True`` — *per-depth epochs*: each depth is one deterministic
      :class:`~repro.sat.portfolio.PortfolioSolver` call
      (byte-reproducible across runs and ``jobs``); depths below
      ``race_min_clauses`` clauses are solved by the lead member alone
      (winner ``"serial:<name>"``).  The winner's unsat core feeds a
      shared ``bmc_score`` ranking for the ranked members.

    Inside a daemonic pool worker the row race cannot fork and falls
    back to the per-depth path, each depth run in-process.

    Capture files (``trace_dir``, see ``BmcEngine.capture_config``):
    row-race members write ``{trace_name}__{spec}_d{k:03d}`` files and
    only the winner's survive, under the canonical names; the per-depth
    path captures serial depths inline and re-solves each raced depth's
    winner standalone with the writers attached.  Which row-race member
    wins depends on scheduling; captured runs are byte-reproducible
    only with ``deterministic=True``.

    Parameters beyond :class:`BmcEngine` (``strategy_factory`` is
    ignored — the portfolio supplies the strategies): ``member_specs``
    (default :data:`BMC_MEMBER_SPECS`), ``deterministic`` / ``jobs`` /
    ``share_max_len`` / ``epoch_conflicts`` (forwarded to
    :class:`PortfolioSolver` on the per-depth path), ``race_min_clauses``,
    ``weighting`` (the ``bmc_score`` rule, paper §3.2).
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        member_specs: Sequence[str] = BMC_MEMBER_SPECS,
        deterministic: bool = False,
        jobs: Optional[int] = None,
        share_max_len: Optional[int] = DEFAULT_SHARE_MAX_LEN,
        epoch_conflicts: int = DEFAULT_EPOCH_CONFLICTS,
        race_min_clauses: int = DEFAULT_RACE_MIN_CLAUSES,
        weighting: str = "linear",
        **engine_kwargs,
    ) -> None:
        super().__init__(circuit, property_net, max_depth, **engine_kwargs)
        _check_members(member_specs, weighting, self.solver_config)
        self.member_specs = tuple(member_specs)
        self.deterministic = deterministic
        self.jobs = jobs
        self.share_max_len = share_max_len
        self.epoch_conflicts = epoch_conflicts
        self.race_min_clauses = race_min_clauses
        self.weighting = weighting
        self.var_rank: Dict[int, float] = {}
        #: Winner of the whole row (row race) or None.
        self.row_winner: Optional[str] = None
        #: Per-member row-race reports.
        self.reports: List[MemberReport] = []
        #: Per-depth sharing telemetry:
        #: (k, winner, raced, epochs, shared_clauses, deliveries, wall_time).
        self.sharing_log: List[Tuple] = []

    def _begin_run(self) -> None:
        super()._begin_run()
        self.var_rank = {}
        self.sharing_log = []

    def run(self) -> BmcResult:
        width = 0 if self.deterministic else race_width(
            len(self.member_specs), self.jobs
        )
        if width == 0:
            return super().run()
        start = time.perf_counter()
        # The row race bypasses BmcEngine.run but starts from fresh
        # per-run state all the same.
        self._begin_run()
        if width == 1:
            # Single CPU or jobs=1: the lead member's engine runs
            # in-process — no children, no bus, no overhead.
            lead = self.member_specs[0]
            winner = f"serial:{lead}"
            result = _member_engine(
                lead, self.circuit, self.property_net, self.weighting,
                self._member_kwargs(self.trace_name, self.unroller),
            ).run()
            self.reports = [
                MemberReport(name=lead, status=result.status.value, winner=True)
            ]
            shared = deliveries = 0
        else:
            winner, result, shared, deliveries = self._run_row_race(width)
        self.reports.extend(
            MemberReport(name=spec, status="skipped")
            for spec in self.member_specs[width:]
        )
        for depth_stats in result.per_depth:
            depth_stats.winner = winner
        self.row_winner = winner
        wall = time.perf_counter() - start
        self.sharing_log.append(
            (result.depth_reached, winner, width > 1, 0, shared, deliveries,
             wall)
        )
        if width > 1:
            result.total_time = wall
        return result

    def _member_kwargs(self, trace_name: str, unroller) -> dict:
        return dict(
            max_depth=self.max_depth, solver_config=self.solver_config,
            start_depth=self.start_depth, time_budget=self.time_budget,
            verify_traces=self.verify_traces, use_coi=self.unroller.use_coi,
            unroller=unroller, trace_dir=self.trace_dir, trace_name=trace_name,
        )

    def _run_row_race(self, width: int):
        specs = self.member_specs[:width]
        # Under fork the children inherit the parent's unroller (and
        # its cached frames) copy-on-write; under spawn the identity
        # checks of resolve_unroller would fail on a pickled copy, so
        # children rebuild privately.
        unroller = self.unroller if START_METHOD == "fork" else None
        bus = DepthBuses(width)
        winner, results, snapshots = race(
            _row_member,
            [
                (spec, self.circuit, self.property_net, self.weighting,
                 self.share_max_len,
                 self._member_kwargs(f"{self.trace_name}__{spec}", unroller))
                for spec in specs
            ],
            # The first *complete* row wins; budget-exhausted members
            # keep waiting for a better answer.
            bus, BmcStatus.BUDGET_EXHAUSTED,
        )
        if winner is None:
            # Every member exhausted its budget: report the deepest run.
            winner = max(results, key=lambda index: results[index].depth_reached)
        result = results[winner]
        self.reports = []
        for index, spec in enumerate(specs):
            report = MemberReport(
                name=spec, status="cancelled", depth=bus.depths.get(index),
                conflicts=snapshots.get(index, 0),
            )
            if index in results:
                report.status = results[index].status.value
            if index == winner:
                report.winner = True
                report.conflicts = result.total_conflicts
                report.decisions = result.total_decisions
                report.propagations = result.total_propagations
                report.solve_time = sum(d.solve_time for d in result.per_depth)
            self.reports.append(report)
        if self.trace_dir is not None:
            _promote_winner_traces(
                self.trace_dir, self.trace_name, specs, specs[winner]
            )
        return specs[winner], result, bus.shared, bus.deliveries

    def _solve_depth(self, k: int) -> DepthSolve:
        instance = self.unroller.instance(k)
        members = default_bmc_members(
            self.var_rank, self.member_specs, self.solver_config
        )
        if instance.formula.num_clauses < self.race_min_clauses:
            # Too small to amortize a race: lead member, fresh solver.
            outcome, install_time = self._solo(instance, members[0], k)
            winner = f"serial:{members[0].name}"
            self.sharing_log.append((k, winner, False, 0, 0, 0,
                                     outcome.stats.solve_time))
        else:
            # The engine's part of the install: growing the template the
            # members fork (their forks run inside the race).
            install_start = time.perf_counter()
            template = self.install_template(k)
            install_time = time.perf_counter() - install_start
            result = PortfolioSolver(
                instance.formula,
                members=members,
                base_config=self.solver_config,
                deterministic=self.deterministic,
                jobs=self.jobs,
                share_max_len=self.share_max_len,
                epoch_conflicts=self.epoch_conflicts,
                template=template,
            ).solve()
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
                report = next(r for r in result.reports if r.winner)
                outcome.stats.decisions = report.decisions
                outcome.stats.propagations = report.propagations
                outcome.stats.conflicts = report.conflicts
                outcome.stats.restarts = report.restarts
            winner = result.winner
            self.sharing_log.append((
                k, winner, True, result.epochs, result.shared_clauses,
                result.deliveries, result.wall_time,
            ))
            if self.trace_dir is not None and winner is not None:
                # The race itself cannot be traced in place — its
                # members run in worker processes (or epoch slices)
                # whose searches depend on cross-member clause
                # deliveries, and the trace seam records one solver's
                # solve.  The replay is a clean solo solve of the
                # winner's strategy on the byte-identical depth formula:
                # representative of the winning ordering, not a literal
                # transcript of the raced search; its outcome is
                # discarded (the race already decided the depth).
                self._solo(
                    instance, next(m for m in members if m.name == winner), k
                )
        return outcome, {
            "winner": winner, "install_time": install_time,
            "num_vars": instance.formula.num_vars,
            "num_clauses": instance.formula.num_clauses,
        }

    def on_unsat(self, k: int, outcome: SolveOutcome) -> None:
        """The shared ``bmc_score`` update from the winner's core, which
        seeds the ranked members of the next depth."""
        if outcome.core_vars is not None:
            bmc_score_update(self.var_rank, outcome.core_vars, k, self.weighting)

    def _solo(self, instance: BmcInstance, member: PortfolioMember, k: int):
        """Solve depth ``k`` with ``member`` alone, captured to the
        canonical files the plain :class:`BmcEngine` seam would write;
        returns the outcome and the install (grow plus fork) time."""
        config = self.capture_config(
            member.overlay_config(self.solver_config, None), k
        )
        install_start = time.perf_counter()
        solver = CdclSolver(
            instance.formula, strategy=member.build_strategy(), config=config,
            template=self.install_template(k),
        )
        install_time = time.perf_counter() - install_start
        return solver.solve(), install_time


def _promote_winner_traces(
    trace_dir: str, trace_name: str, specs: Sequence[str], winner: str
) -> None:
    """Keep only the row-race winner's per-member capture files.

    Workers write ``{trace_name}__{spec}_d{k:03d}.rtrc`` and ``.racc``
    files; the winner's are renamed to the canonical
    ``{trace_name}_d{k:03d}`` names and every loser's (including
    partial files of a cancelled member) are removed."""
    for spec in specs:
        prefix = f"{trace_name}__{spec}_d"
        for fname in sorted(os.listdir(trace_dir)):
            if not (fname.startswith(prefix)
                    and fname.endswith((TRACE_SUFFIX, ACCESS_SUFFIX))):
                continue
            path = os.path.join(trace_dir, fname)
            if spec == winner:
                tail = fname[len(f"{trace_name}__{spec}"):]
                os.replace(path, os.path.join(trace_dir, trace_name + tail))
            else:
                os.remove(path)


def _member_engine(spec, circuit, property_net, weighting, kwargs):
    """Build the single-strategy engine a row-race member runs: the
    plain VSIDS/BerkMin depth loops or the paper's refine-order loop
    (each ranked member refines from its *own* cores, exactly as the
    standalone ``static``/``dynamic`` engines do).  ``kwargs`` are the
    :class:`BmcEngine` keyword arguments."""
    if spec == "vsids":
        return BmcEngine(circuit, property_net, **kwargs)
    if spec == "berkmin":
        from repro.sat.heuristics import BerkMinStrategy

        return BmcEngine(
            circuit, property_net,
            strategy_factory=lambda instance, k: BerkMinStrategy(),
            **kwargs,
        )
    if spec in ("ranked-static", "ranked-dynamic"):
        from repro.bmc.refine import RefineOrderBmc

        return RefineOrderBmc(
            circuit, property_net,
            mode="static" if spec == "ranked-static" else "dynamic",
            weighting=weighting, **kwargs,
        )
    raise ValueError(f"unknown portfolio member spec {spec!r}")


def _row_member(spec, circuit, property_net, weighting, share_max_len,
                kwargs, channel):
    """Row-race child: run one member's whole depth loop, exporting
    learned clauses tagged with their depth at every restart and
    importing the same-depth clauses of peers.  The trace name is the
    member-qualified ``{row}__{spec}`` prefix; the parent promotes the
    winner's files and deletes the rest afterwards."""
    kwargs = dict(kwargs, solver_config=dc_replace(
        kwargs["solver_config"], export_learned_max_len=share_max_len
    ))
    engine = _member_engine(spec, circuit, property_net, weighting, kwargs)
    held: Dict[int, list] = {}

    def solver_hook(solver, k):
        # Batches tagged below the current depth can never be replayed
        # (each depth's formula is distinct): evict them so the held
        # buffer stays bounded by in-flight depths.
        for tag in [tag for tag in held if tag < k]:
            del held[tag]
        # Depth marker (no clauses): advances the parent's
        # bus-retirement frontier even if this member never hits a
        # restart/sharing point within the depth.
        channel.export(k, ())
        # Weak: the solver holds the hook, so a strong reference here
        # would keep every depth's solver for the collector.
        solver_ref = weakref.ref(solver)

        def hook(batch):
            # The snapshot is a best-effort live counter for members
            # that end up cancelled: conflicts in their current depth.
            channel.export(k, batch, solver_ref().stats.conflicts or None)
            for tag, clauses in channel.receive():
                if tag >= k:  # stale depths can never be replayed
                    held.setdefault(tag, []).extend(clauses)
            return held.pop(k, None)

        solver.on_learned = hook

    engine.solver_hook = solver_hook
    yield engine.run()

