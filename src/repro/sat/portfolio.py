"""Portfolio solving: race the paper's strategies with clause sharing.

The paper's Table 1 runs every instance under several decision-ordering
strategies because none dominates — VSIDS, BerkMin and the ranked
CDG-guided variants each win different rows.  Run sequentially, that
diversity only costs time; this module spends it as *parallelism*: N
solver configurations attack one formula concurrently, the first to
finish decides the answer, and short learned clauses flow between the
solvers so one configuration's conflicts prune the others' search.

Two execution modes, one result type, both run by the race driver in
:mod:`repro.sat.race` (this module supplies the member children, the
epoch step and the :class:`PortfolioOutcome` assembly):

**Race mode** (``deterministic=False``) — one forked child per member,
at most :func:`~repro.sat.race.race_width` of them.  Members export
learned clauses of up to ``share_max_len`` literals at restart points
(the :attr:`~repro.sat.solver.CdclSolver.on_learned` hook); the parent
routes them over a deduplicating :class:`SharedClauseBus` to the peers,
which install them at decision level 0.  The first member with a
verdict wins and the losers are cancelled.  Which clauses crossed the
bus — and therefore the winner's exact statistics — depends on OS
scheduling; the *verdict* never does (imported clauses are logical
consequences of the shared formula).

**Deterministic mode** (``deterministic=True``) — search is sliced into
*epochs* of ``epoch_conflicts`` conflicts.  All members run epoch ``e``
to its conflict barrier; their exports are merged in member-index order
and delivered at the start of epoch ``e + 1``; the winner is the member
finishing in the earliest epoch, ties broken toward the lowest member
index.  Every search-derived result is a pure function of (formula,
members, ``epoch_conflicts``, ``share_max_len``), so repeated runs and
different ``jobs`` values are byte-identical: ``jobs`` only places the
members round-robin on persistent worker processes.

Soundness: imported clauses enter through
:meth:`~repro.sat.solver.CdclSolver.add_shared_clause`, which installs
them as CDG *leaves* — an imported clause has no local derivation, so
proof replay treats it as an axiom.  The refutation is then valid
relative to the shared formula (each imported clause is a peer's
learned clause, i.e. entailed), unsat cores may cite imported clauses
and remain unsatisfiable as clause *sets*, and
``tests/sat/test_portfolio.py`` re-proves such cores standalone.

Nested use: a portfolio inside a daemonic pool worker (the experiment
layer's ``--jobs`` pool) cannot fork children, so both modes fall back
to the in-process epoch path — same verdict, no child processes.
``repro.experiments.parallel`` offers ``nested=True`` pools
(non-daemonic workers) when true nesting is wanted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnf.formula import CnfFormula
from repro.sat.heuristics import (
    BerkMinStrategy,
    DecisionStrategy,
    RankedStrategy,
    VsidsStrategy,
)
from repro.sat.solver import (
    CdclSolver,
    InstallTemplate,
    MINIMIZE_MODES,
    PHASE_MODES,
    SolverConfig,
)
from repro.sat.race import (
    START_METHOD,
    MemberReport,
    SharedClauseBus,
    epoch_step,
    epoch_workers,
    race,
    race_width,
    run_epochs,
    run_member_epoch,
)
from repro.sat.types import SolveOutcome, SolveResult

#: Strategy kinds a :class:`PortfolioMember` may name.
STRATEGY_KINDS = ("vsids", "berkmin", "ranked-static", "ranked-dynamic")

#: Default learned-clause export cap (literals).  Short clauses prune
#: the most search per word shipped; beyond ~8 literals the import cost
#: (watch entries, BCP scans in every peer) outweighs the pruning.
DEFAULT_SHARE_MAX_LEN = 8

#: Default deterministic-mode epoch length (conflicts per member per
#: epoch).  Small enough that sharing reaches peers while their search
#: is still shapeable, large enough that the per-epoch solve()
#: re-entry cost stays negligible.
DEFAULT_EPOCH_CONFLICTS = 256


@dataclass(frozen=True)
class PortfolioMember:
    """One portfolio configuration cell: strategy x phase x minimize.

    ``var_rank`` (a tuple of ``(variable, score)`` pairs — tuple, not
    dict, so members stay hashable and picklable) seeds the ranked
    strategies; the BMC layer feeds unsat-core ranks through it.
    """

    name: str
    strategy: str = "vsids"
    phase_mode: str = "save"
    minimize_learned: str = "local"
    var_rank: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_KINDS:
            raise ValueError(
                f"strategy must be one of {STRATEGY_KINDS}, got {self.strategy!r}"
            )
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(
                f"phase_mode must be one of {PHASE_MODES}, got {self.phase_mode!r}"
            )
        if self.minimize_learned not in MINIMIZE_MODES:
            raise ValueError(
                f"minimize_learned must be one of {MINIMIZE_MODES}, "
                f"got {self.minimize_learned!r}"
            )

    def build_strategy(self) -> DecisionStrategy:
        """A fresh decision-strategy instance for this member."""
        if self.strategy == "vsids":
            return VsidsStrategy()
        if self.strategy == "berkmin":
            return BerkMinStrategy()
        rank = dict(self.var_rank)
        return RankedStrategy(rank, dynamic=(self.strategy == "ranked-dynamic"))

    def overlay_config(
        self, base: Optional[SolverConfig], share_max_len: Optional[int]
    ) -> SolverConfig:
        """The member's :class:`SolverConfig`: the base overlaid with
        this cell's phase/minimize choice and the export cap."""
        return replace(
            base if base is not None else SolverConfig(),
            phase_mode=self.phase_mode,
            minimize_learned=self.minimize_learned,
            export_learned_max_len=share_max_len,
        )


#: The leading default cells, most-diverse-first: the paper's two
#: activity families split across phase policies before the minimize
#: axis starts repeating.
_LEAD_CELLS = (
    ("vsids", "save", "local"),
    ("berkmin", "save", "local"),
    ("vsids", "inverted", "local"),
    ("berkmin", "default", "recursive"),
    ("vsids", "default", "recursive"),
    ("berkmin", "inverted", "local"),
)


def default_members(count: int = 4) -> List[PortfolioMember]:
    """``count`` diverse configuration cells in a fixed, documented order.

    The first cells split the strategy axis before the phase axis and
    the phase axis before the minimize axis; past the hand-picked lead
    the full (strategy x phase x minimize) product fills in.  The order
    is part of the deterministic mode's contract (member index breaks
    winner ties), so it never depends on ambient state.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    cells = list(_LEAD_CELLS)
    for combo in product(("vsids", "berkmin"), PHASE_MODES, MINIMIZE_MODES):
        if combo not in cells:
            cells.append(combo)
    members = []
    for strategy, phase, minimize in cells[:count]:
        members.append(
            PortfolioMember(
                name=f"{strategy}/{phase}/{minimize}",
                strategy=strategy,
                phase_mode=phase,
                minimize_learned=minimize,
            )
        )
    if count > len(cells):
        raise ValueError(
            f"count {count} exceeds the {len(cells)} distinct default cells; "
            f"pass explicit members instead"
        )
    return members


@dataclass
class PortfolioOutcome:
    """Everything a portfolio solve produces.

    ``outcome`` is the winning member's full :class:`SolveOutcome`
    (model / core / failed assumptions), ``None`` when no member
    finished (deterministic mode with ``max_epochs``).  In
    deterministic mode every field except ``wall_time`` and the
    per-member ``solve_time`` is byte-reproducible.
    """

    status: SolveResult
    winner: Optional[str]
    outcome: Optional[SolveOutcome]
    reports: List[MemberReport] = field(default_factory=list)
    epochs: int = 0
    shared_clauses: int = 0
    deliveries: int = 0
    deterministic: bool = False
    wall_time: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready outcome with per-member reports (see
        :meth:`MemberReport.as_dict`)."""
        return {
            "status": self.status.value,
            "winner": self.winner,
            "epochs": self.epochs,
            "shared_clauses": self.shared_clauses,
            "deliveries": self.deliveries,
            "deterministic": self.deterministic,
            "wall_time": self.wall_time,
            "members": [report.as_dict() for report in self.reports],
        }

    @property
    def model(self):
        return self.outcome.model if self.outcome is not None else None

    @property
    def core_clauses(self):
        return self.outcome.core_clauses if self.outcome is not None else None

    @property
    def core_vars(self):
        return self.outcome.core_vars if self.outcome is not None else None


def _build_solver(
    formula: CnfFormula,
    member: PortfolioMember,
    base_config: Optional[SolverConfig],
    share_max_len: Optional[int],
    warm_activity: bool = True,
    template: Optional[InstallTemplate] = None,
) -> CdclSolver:
    strategy = member.build_strategy()
    # Epoch-sliced members re-enter solve() many times; warm
    # re-attachment keeps their accumulated activity instead of
    # re-seeding every epoch (see DecisionStrategy.persist_activity).
    # Cold re-entry (warm_activity=False) doubles as a diversification
    # restart — occasionally much better, occasionally much worse; the
    # robust default is warm.
    strategy.persist_activity = warm_activity
    config = member.overlay_config(base_config, share_max_len)
    if config.metrics is not None or config.observer is not None:
        # The registry and the observer stay with the coordinating
        # process: a forked member's publishes die with the child, and
        # N members (or epoch re-entries) would multiply-count one
        # logical solve or interleave N searches into one trace.  The
        # portfolio publishes aggregate and per-member series itself.
        config = replace(
            config, metrics=None, metrics_labels=None, observer=None
        )
    return CdclSolver(formula, strategy=strategy, config=config, template=template)


def _member_steps(formula, members, base_config, share_max_len,
                  warm_activity, template, indices):
    """The epoch step of members ``indices``; their solvers live
    wherever this is called (see :func:`repro.sat.race.epoch_step`),
    each a fork of ``template`` or, given none, of one install of
    ``formula`` made there."""
    if template is None:
        template = InstallTemplate(formula, base_config)
    solvers = {
        index: _build_solver(
            formula, members[index], base_config, share_max_len,
            warm_activity, template,
        )
        for index in indices
    }

    def step(work):
        return [
            (index,) + run_member_epoch(solvers[index], budgets, imports)
            for index, budgets, imports in work
        ]

    return step


def _race_member(formula, member, base_config, share_max_len,
                 warm_activity, channel):
    """Race child: solve to completion, trading clauses at every
    restart through the on_learned hook."""
    solver = _build_solver(
        formula, member, base_config, share_max_len, warm_activity
    )
    started = time.perf_counter()

    def hook(batch):
        # A live snapshot for the report of a member that ends up
        # cancelled (stats.solve_time is only written when solve()
        # returns, so the wall clock stands in).
        stats = solver.stats
        channel.export(None, batch, dict(
            conflicts=stats.conflicts, decisions=stats.decisions,
            propagations=stats.propagations, restarts=stats.restarts,
            exported=stats.exported_clauses, imported=stats.imported_clauses,
            solve_time=time.perf_counter() - started,
        ))
        return [lits for routed in channel.receive() for lits in routed]

    solver.on_learned = hook
    yield solver.solve()


class PortfolioSolver:
    """Race N solver configurations on one formula, sharing clauses.

    Parameters
    ----------
    formula:
        The CNF instance every member solves.
    members:
        The configuration cells (default: :func:`default_members` (4)).
        Member order matters: it breaks deterministic winner ties.
    base_config:
        Common :class:`SolverConfig` each member's cell overlays
        (default: solver defaults — CDG recording on, so the winner
        carries cores/proofs).  Its ``metrics`` registry receives the
        portfolio's own series; member solvers run without it and
        without its ``observer`` (a trace or progress sink would see
        N interleaved searches, or epoch slices of one), so a caller
        wanting a captured search re-solves the winner's cell alone.
    deterministic:
        ``True`` selects the epoch-barrier mode (byte-reproducible
        results); ``False`` the wall-clock race.
    jobs:
        Deterministic mode: worker processes to spread members over
        (:func:`~repro.sat.race.epoch_workers`; results are identical
        for every value).  Race mode: a cap on the race width
        (:func:`~repro.sat.race.race_width`); at width 1 it falls back
        to the in-process epoch path.
    share_max_len:
        Learned-clause export cap in literals (``None`` disables
        sharing entirely).
    epoch_conflicts:
        Deterministic mode: conflicts per member per epoch (the
        sharing-barrier spacing).
    max_epochs:
        Deterministic mode: give up (status UNKNOWN) after this many
        epochs; ``None`` = run to a verdict.  In race mode it applies
        only when the adaptive fallback engages the deterministic
        in-process path (single CPU / daemonic worker / ``jobs=1``) —
        a true wall-clock race is bounded with ``time_budget`` instead.
    time_budget:
        Race mode only: seconds after which the race is cancelled with
        status UNKNOWN.  Rejected in deterministic mode (wall-clock
        cutoffs are not reproducible).
    template:
        An :class:`~repro.sat.solver.InstallTemplate` over a prefix of
        ``formula``, borrowed for one :meth:`solve`: every epoch member
        forks it and installs only the clauses past it, as
        ``CdclSolver(formula, template=...)`` does.  The BMC engine
        passes its run's growing template here.  Without one (or in a
        spawn-started worker group, which would need it pickled) the
        members fork one install of ``formula`` made where they live.
        Race-mode children install ``formula`` themselves.  Search is
        the same either way.
    """

    def __init__(
        self,
        formula: CnfFormula,
        members: Optional[Sequence[PortfolioMember]] = None,
        base_config: Optional[SolverConfig] = None,
        deterministic: bool = False,
        jobs: Optional[int] = None,
        share_max_len: Optional[int] = DEFAULT_SHARE_MAX_LEN,
        epoch_conflicts: int = DEFAULT_EPOCH_CONFLICTS,
        max_epochs: Optional[int] = None,
        time_budget: Optional[float] = None,
        warm_activity: bool = True,
        template: Optional[InstallTemplate] = None,
    ) -> None:
        self.formula = formula
        self.members = list(members) if members is not None else default_members()
        if not self.members:
            raise ValueError("portfolio needs at least one member")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"member names must be unique, got {names}")
        if epoch_conflicts <= 0:
            raise ValueError("epoch_conflicts must be positive")
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if deterministic and time_budget is not None:
            raise ValueError(
                "time_budget is wall-clock and breaks deterministic "
                "reproducibility; use max_epochs instead"
            )
        self.base_config = base_config
        self.deterministic = deterministic
        self.jobs = jobs
        self.share_max_len = share_max_len
        self.epoch_conflicts = epoch_conflicts
        self.max_epochs = max_epochs
        self.time_budget = time_budget
        #: Keep each member's decision-strategy activity across epoch
        #: re-entries (robust default).  False re-seeds scores every
        #: epoch — a diversification restart with high variance.
        self.warm_activity = warm_activity
        # Borrowed: solve() takes it and drops it when it returns.
        self._template = template

    def solve(self) -> PortfolioOutcome:
        """Run the portfolio; see :class:`PortfolioOutcome`."""
        template, self._template = self._template, None
        width = 0 if self.deterministic else race_width(
            len(self.members), self.jobs
        )
        if width > 1:
            result = self._solve_race(width)
        elif self.deterministic:
            result = self._solve_epochs(
                epoch_workers(len(self.members), self.jobs), template
            )
        else:
            # No real parallelism available (single member or CPU,
            # nested inside a daemonic pool worker, or explicitly
            # jobs=1): a wider race would only time-slice, so run the
            # epoch-interleaved path in-process instead — same verdict,
            # and the sharing still prunes the search.
            result = self._solve_epochs(1, template)
        self._publish_metrics(result)
        return result

    #: Per-member counters published with a ``member`` label; the keys
    #: come out of :meth:`MemberReport.as_dict`'s ``stats`` sub-dict
    #: (present in both the full SolverStats export and the
    #: cancelled-racer fallback).
    _MEMBER_COUNTER_KEYS = (
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "exported_clauses",
        "imported_clauses",
    )

    def _publish_metrics(self, result: PortfolioOutcome) -> None:
        """Publish bus traffic and per-member work into the registry.

        The bus hit rate is installed deliveries over queued deliveries
        — a queued clause misses when its receiver finishes (or is
        cancelled) before the next import point drains it.
        """
        config = self.base_config
        registry = config.metrics if config is not None else None
        if registry is None:
            return
        labels = dict(config.metrics_labels or {})
        exported = sum(report.exported for report in result.reports)
        imported = sum(report.imported for report in result.reports)
        for name, value in (
            ("portfolio_solves_total", 1),
            ("portfolio_epochs_total", result.epochs),
            ("portfolio_bus_shared_total", result.shared_clauses),
            ("portfolio_bus_deliveries_total", result.deliveries),
            ("portfolio_exported_clauses_total", exported),
            ("portfolio_imported_clauses_total", imported),
        ):
            registry.counter(name, labels=labels).inc(value)
        for report in result.reports:
            member_labels = dict(labels, member=report.name)
            stats = report.as_dict()["stats"]
            for key in self._MEMBER_COUNTER_KEYS:
                value = stats.get(key, 0)  # type: ignore[union-attr]
                if value:
                    registry.counter(
                        f"portfolio_member_{key}_total", labels=member_labels
                    ).inc(value)
        registry.gauge("portfolio_bus_hit_rate", labels=labels).set(
            imported / result.deliveries if result.deliveries else 0.0
        )

    def _solve_epochs(
        self, workers: int, template: Optional[InstallTemplate]
    ) -> PortfolioOutcome:
        start = time.perf_counter()
        bus = SharedClauseBus(len(self.members))
        reports = [MemberReport(name=member.name) for member in self.members]
        # time_budget only reaches this path as the race fallback
        # (deterministic=True rejects it in the constructor): enforce
        # it at epoch boundaries, like the race enforces its deadline.
        deadline = (
            start + self.time_budget if self.time_budget is not None else None
        )
        if workers > 1 and START_METHOD != "fork":
            # A spawned worker group would need the template pickled;
            # it installs the formula itself.  A forked one inherits
            # the template copy-on-write.
            template = None
        make_step = partial(
            _member_steps, self.formula, self.members, self.base_config,
            self.share_max_len, self.warm_activity, template,
        )
        with epoch_step(make_step, len(self.members), workers) as step:
            winner, outcome, epochs = run_epochs(
                step, bus, reports, self.epoch_conflicts, self.base_config,
                self.max_epochs, deadline,
            )
        return self._outcome(
            winner, outcome, reports, bus, epochs, True, start
        )

    def _solve_race(self, width: int) -> PortfolioOutcome:
        start = time.perf_counter()
        # Racing more members than cores only time-slices them; the
        # leading (most diverse) cells run.
        members = self.members[:width]
        bus = SharedClauseBus(width)
        deadline = None if self.time_budget is None else start + self.time_budget
        winner, results, snapshots = race(
            _race_member,
            [
                (self.formula, member, self.base_config,
                 self.share_max_len, self.warm_activity)
                for member in members
            ],
            bus, SolveResult.UNKNOWN, deadline,
        )
        reports = []
        for index, member in enumerate(members):
            outcome = results.get(index)
            if outcome is None:
                reports.append(MemberReport(
                    name=member.name, status="cancelled",
                    **snapshots.get(index, {}),
                ))
                continue
            report = MemberReport(name=member.name, status=outcome.status.value)
            report.absorb(outcome.stats, epochs=0)
            reports.append(report)
        if winner is not None:
            reports[winner].winner = True
        reports.extend(
            MemberReport(name=member.name, status="skipped")
            for member in self.members[width:]
        )
        return self._outcome(
            winner, results.get(winner), reports, bus, 0, False, start
        )

    def _outcome(
        self, winner, outcome, reports, bus, epochs, deterministic, start
    ) -> PortfolioOutcome:
        return PortfolioOutcome(
            status=outcome.status if outcome is not None else SolveResult.UNKNOWN,
            winner=self.members[winner].name if winner is not None else None,
            outcome=outcome,
            reports=reports,
            epochs=epochs,
            shared_clauses=bus.shared,
            deliveries=bus.deliveries,
            deterministic=deterministic,
            wall_time=time.perf_counter() - start,
        )
