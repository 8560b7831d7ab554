"""The one race driver behind every portfolio in the repository.

The SAT portfolio (:mod:`repro.sat.portfolio`) and the BMC portfolios
(:mod:`repro.bmc.portfolio`) only supply a child target, a bus policy
and the assembly of their result; the rest is here, written once:

* **Process lifecycle** (:class:`Children`): forked daemon children,
  each a generator whose yields reach the parent as results and whose
  exception reaches it as ``Type: message``, raised there as
  :class:`PortfolioWorkerError`; teardown is terminate, join, kill as
  a backstop, and ``cancel_join_thread`` on every queue.
* **Wall-clock race** (:func:`race`): one child per member, exports
  routed by a bus policy (:class:`SharedClauseBus`, or
  :class:`DepthBuses` for BMC rows); the first result with a verdict
  wins, queued co-finishers are recorded and every verdict is
  cross-checked.  A killed member is tolerated while a peer can still
  decide.
* **Deterministic epoch barrier** (:func:`run_epochs`): budgets carved
  per epoch, one ``step(work) -> replies`` call (in-process, or on
  persistent process groups via :func:`epoch_step`), replies folded
  and published in member-index order, the lowest-index finisher
  crowned.
* **Width** (:func:`race_width`, :func:`epoch_workers`).
"""

from __future__ import annotations

import os
import queue as queue_module
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.sat.stats import SolverStats
from repro.sat.types import SolveOutcome, SolveResult

#: Start method for portfolio children: fork where available, so members
#: inherit the parent's formula (and BMC unroller) copy-on-write.
START_METHOD = "fork" if sys.platform == "linux" else "spawn"

#: Seconds the parent waits for a child message before it checks the
#: deadline and the children's liveness.
POLL_S = 0.02


class PortfolioWorkerError(RuntimeError):
    """A portfolio child failed, or died without a result."""


# -- Width.


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware: a race
    wider than this only time-slices, it cannot win wall time)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _in_daemon() -> bool:
    """True inside a daemonic process (a plain ``multiprocessing.Pool``
    worker), where starting children raises."""
    # Imported on use: multiprocessing costs ~10 ms at import, and most
    # programs importing repro never start a child.
    import multiprocessing

    return bool(multiprocessing.current_process().daemon)


def race_width(members: int, jobs: Optional[int]) -> int:
    """Members a wall-clock race runs at once: capped by the CPUs this
    process may use and by a positive ``jobs``.  0 inside a daemonic
    process, which cannot start children at all."""
    if _in_daemon():
        return 0
    width = min(members, _available_cpus())
    if jobs is not None and jobs > 0:
        width = min(width, jobs)
    return width


def epoch_workers(members: int, jobs: Optional[int]) -> int:
    """Worker processes an epoch loop spreads ``members`` over: ``None``
    or 1 means in-process, 0 one per CPU, capped at the member count.
    Placement never changes results, so no CPU cap applies; a daemonic
    process runs in-process."""
    if jobs is None or _in_daemon():
        return 1
    return min(jobs or os.cpu_count() or 1, members)


# -- Process lifecycle.


def _drained(source) -> list:
    """Everything queued on ``source`` right now, without waiting."""
    items = []
    while True:
        try:
            items.append(source.get_nowait())
        except queue_module.Empty:
            return items


def _child_main(index, target, args, results) -> None:
    try:
        for payload in target(*args):
            results.put((index, False, payload))
    except Exception as exc:
        results.put((index, True, f"{type(exc).__name__}: {exc}"))


class Children:
    """Forked portfolio children sharing one result queue."""

    def __init__(self) -> None:
        import multiprocessing

        self._context = multiprocessing.get_context(START_METHOD)
        self._processes: List[Any] = []
        self.results = self._context.Queue()
        self._queues = [self.results]

    def queue(self):
        """A queue torn down with the children."""
        made = self._context.Queue()
        self._queues.append(made)
        return made

    def start(self, target: Callable[..., Iterator], *args) -> None:
        """Start child ``len(children)`` running ``target(*args)``."""
        process = self._context.Process(
            target=_child_main,
            args=(len(self._processes), target, args, self.results),
            daemon=True,
        )
        process.start()
        self._processes.append(process)

    def receive(
        self, awaited: Sequence[int], tolerate_losses: bool
    ) -> Optional[Tuple[int, Any]]:
        """The next ``(child, payload)``, or None after :data:`POLL_S`
        of silence.  Raises :class:`PortfolioWorkerError` when a child
        reports a failure, or when the ``awaited`` children have died
        without a result: any of them, or all of them when
        ``tolerate_losses``."""
        try:
            index, failed, payload = self.results.get(timeout=POLL_S)
        except queue_module.Empty:
            lost = [i for i in awaited if not self._processes[i].is_alive()]
            if not lost or (tolerate_losses and len(lost) < len(awaited)):
                return None
            try:  # a dead child's last message may trail its exit
                index, failed, payload = self.results.get(timeout=POLL_S)
            except queue_module.Empty:
                codes = [self._processes[i].exitcode for i in lost]
                raise PortfolioWorkerError(
                    f"portfolio worker died without a result "
                    f"(workers {lost}, exit codes {codes})"
                ) from None
        if failed:
            raise PortfolioWorkerError(f"portfolio worker failed: {payload}")
        return index, payload

    def drain(self) -> Dict[int, Any]:
        """Results already queued (failures skipped)."""
        return {
            index: payload
            for index, failed, payload in _drained(self.results)
            if not failed
        }

    def close(self, keep: Optional[int] = None) -> None:
        """Stop every child but ``keep`` (a winner exiting by itself)."""
        for index, process in enumerate(self._processes):
            if index != keep and process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - hard kill backstop
                process.kill()
                process.join(timeout=1)
        for made in self._queues:
            made.cancel_join_thread()


# -- Bus policies.


class SharedClauseBus:
    """Deduplicating broadcast fabric between portfolio members.

    Clauses are keyed by their canonical form (sorted deduplicated
    literal tuple).  A member never receives a clause it already knows —
    its own exports included — and each distinct clause is counted once
    in :attr:`shared`.  :attr:`deliveries` counts clauses queued for a
    receiver, whether or not it ever installs them.  Determinism is
    inherited from the caller: given
    the same ``publish`` call sequence, the pending queues are
    identical (the epoch loop publishes in member-index order).
    """

    def __init__(self, num_members: int) -> None:
        self._known: List[set] = [set() for _ in range(num_members)]
        self._pending: List[List[Tuple[int, ...]]] = [
            [] for _ in range(num_members)
        ]
        self._published: set = set()
        #: Distinct clauses ever published on the bus.
        self.shared = 0
        #: Clause deliveries queued so far (one per (clause, receiver)).
        self.deliveries = 0

    def publish(self, member: int, clauses: Sequence[Sequence[int]]) -> None:
        """Queue ``member``'s exported clauses for every other member."""
        known = self._known
        pending = self._pending
        for lits in clauses:
            key = tuple(sorted(set(lits)))
            known[member].add(key)
            if key not in self._published:
                self._published.add(key)
                self.shared += 1
            for other in range(len(known)):
                if other != member and key not in known[other]:
                    known[other].add(key)
                    pending[other].append(key)
                    self.deliveries += 1

    def collect(self, member: int) -> List[Tuple[int, ...]]:
        """Drain the clauses queued for ``member`` (arrival order)."""
        batch = self._pending[member]
        self._pending[member] = []
        return batch

    def route(self, member: int, _tag, clauses) -> List[Tuple[int, Any]]:
        """Race policy: publish, then hand every peer its pending batch."""
        self.publish(member, clauses)
        routed = []
        for other in range(len(self._known)):
            if other != member:
                pending = self.collect(other)
                if pending:
                    routed.append((other, pending))
        return routed


class DepthBuses:
    """Race policy for BMC row races: one :class:`SharedClauseBus` per
    depth tag, so a clause only reaches peers solving the same depth
    formula.  :attr:`depths` holds each member's latest depth; a depth
    every member has passed can never be shared into again, so its bus
    is dropped and coordinator memory stays bounded by the depths in
    flight.  :attr:`shared` and :attr:`deliveries` count over all
    depths."""

    def __init__(self, num_members: int) -> None:
        self._num = num_members
        self._buses: Dict[int, SharedClauseBus] = {}
        self.depths: Dict[int, int] = {}
        self.shared = 0
        self.deliveries = 0

    def route(self, member: int, depth: int, clauses) -> List[Tuple[int, Any]]:
        self.depths[member] = depth
        frontier = min(self.depths.get(i, 0) for i in range(self._num))
        for tag in [tag for tag in self._buses if tag < frontier]:
            del self._buses[tag]
        if not clauses:
            return []
        bus = self._buses.get(depth)
        if bus is None:
            bus = self._buses[depth] = SharedClauseBus(self._num)
        shared, deliveries = bus.shared, bus.deliveries
        routed = bus.route(member, depth, clauses)
        self.shared += bus.shared - shared
        self.deliveries += bus.deliveries - deliveries
        return [(other, (depth, pending)) for other, pending in routed]


# -- Wall-clock race.


class Channel:
    """A race member's two queues, as seen from inside its child."""

    def __init__(self, index: int, exports, inbox) -> None:
        self.index = index
        self._exports = exports
        self._inbox = inbox

    def export(self, tag, clauses, snapshot=None) -> None:
        """Send clauses (tagged for the bus policy) and, when given, a
        live statistics snapshot kept for the member's report."""
        self._exports.put((self.index, tag, clauses, snapshot))

    def receive(self) -> list:
        """Every batch the parent has routed here since the last call."""
        return _drained(self._inbox)


def agree(verdicts: Iterable) -> None:
    """The soundness backstop: members that reached a verdict agree."""
    distinct = sorted({str(verdict) for verdict in verdicts})
    if len(distinct) > 1:  # pragma: no cover - soundness backstop
        raise RuntimeError(
            f"portfolio members disagree on the verdict: {distinct} "
            f"(an imported clause was not a consequence of the formula?)"
        )


def race(
    target: Callable[..., Iterator],
    member_args: Sequence[tuple],
    bus,
    undecided,
    deadline: Optional[float] = None,
) -> Tuple[Optional[int], Dict[int, Any], Dict[int, Any]]:
    """Race one child per ``member_args`` entry, each running
    ``target(*args, channel)`` and yielding its result once.

    The first result whose ``status`` is not ``undecided`` (UNKNOWN,
    budget exhausted) wins.  The race also ends when every member has
    reported, or at ``deadline`` (``time.perf_counter`` seconds) with no
    winner.
    Returns the winner's index (or None), every result that reached
    the parent, and each member's latest live snapshot.
    """
    num = len(member_args)
    children = Children()
    exports = children.queue()
    inboxes = [children.queue() for _ in range(num)]
    winner: Optional[int] = None
    results: Dict[int, Any] = {}
    snapshots: Dict[int, Any] = {}
    try:
        for index, args in enumerate(member_args):
            children.start(
                target, *args, Channel(index, exports, inboxes[index])
            )
        while winner is None and len(results) < num:
            for index, tag, clauses, snapshot in _drained(exports):
                if snapshot is not None:
                    snapshots[index] = snapshot
                for other, batch in bus.route(index, tag, clauses):
                    inboxes[other].put(batch)
            waiting = [i for i in range(num) if i not in results]
            message = children.receive(waiting, tolerate_losses=True)
            if message is None:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                continue
            index, result = message
            results[index] = result
            if result.status is not undecided:
                winner = index
                # Co-finishers already queued beat the cancellation:
                # record their real results for the cross-check.
                results.update(children.drain())
    finally:
        children.close(keep=winner)
    agree(
        result.status for result in results.values()
        if result.status is not undecided
    )
    return winner, results, snapshots


# -- Deterministic epoch barrier.


@dataclass
class MemberReport:
    """What one portfolio member did.

    ``status`` is ``"sat"``/``"unsat"`` for a finisher, ``"unknown"``
    for a deterministic member that never reached a verdict before the
    race ended, and ``"cancelled"`` for a raced loser (its counters are
    then the last sharing-point snapshot, not final values).
    """

    name: str
    status: str = "unknown"
    winner: bool = False
    epochs: int = 0
    #: Row-race engines only: the deepest BMC depth the member had
    #: reached at its last message (None elsewhere).
    depth: Optional[int] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    exported: int = 0
    imported: int = 0
    solve_time: float = 0.0
    #: Full accumulated :class:`SolverStats` when known — epoch-loop
    #: members (merged across epochs) and race finishers.  ``None`` for
    #: cancelled racers, whose only record is the sharing-point
    #: snapshot scalars above.
    stats: Optional[SolverStats] = None

    def absorb(self, stats: SolverStats, epochs: int = 1) -> None:
        """Fold ``epochs`` epochs' merged counters into the report."""
        self.epochs += epochs
        self.conflicts += stats.conflicts
        self.decisions += stats.decisions
        self.propagations += stats.propagations
        self.restarts += stats.restarts
        self.exported += stats.exported_clauses
        self.imported += stats.imported_clauses
        self.solve_time += stats.solve_time
        if self.stats is None:
            self.stats = SolverStats()
        self.stats.merge(stats)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready member report; ``stats`` is the full
        :meth:`SolverStats.as_dict` when known, else the snapshot
        scalars of a cancelled racer."""
        if self.stats is not None:
            stats: Dict[str, object] = dict(self.stats.as_dict())
        else:
            stats = {
                "conflicts": self.conflicts,
                "decisions": self.decisions,
                "propagations": self.propagations,
                "restarts": self.restarts,
                "exported_clauses": self.exported,
                "imported_clauses": self.imported,
            }
        return {
            "name": self.name,
            "status": self.status,
            "winner": self.winner,
            "epochs": self.epochs,
            "depth": self.depth,
            "solve_time": self.solve_time,
            "stats": stats,
        }


def carve_epoch_budgets(
    epoch_conflicts: int,
    caps: Tuple[Optional[int], Optional[int], Optional[int]],
    used: Tuple[int, int, int],
) -> Optional[Tuple[int, Optional[int], Optional[int]]]:
    """Next-epoch ``(max_conflicts, max_propagations, max_decisions)``
    for a member that has already spent ``used`` of the cumulative
    ``caps`` (each cap may be None = unbounded), or ``None`` when any
    cap is exhausted: epoch slicing must not launder a caller's budget
    away."""
    left = [
        None if cap is None else cap - spent for cap, spent in zip(caps, used)
    ]
    if any(remaining is not None and remaining <= 0 for remaining in left):
        return None
    conflicts, propagations, decisions = left
    if conflicts is not None:
        epoch_conflicts = min(epoch_conflicts, conflicts)
    return (epoch_conflicts, propagations, decisions)


def run_member_epoch(solver, budgets, imports, **solve_kwargs):
    """One epoch of one member: install the barrier's imports, search
    under this epoch's ``(conflicts, propagations, decisions)`` budgets,
    and return ``(exports, outcome)``."""
    for lits in imports:
        solver.add_shared_clause(lits)
    config = solver.config
    config.max_conflicts, config.max_propagations, config.max_decisions = (
        budgets
    )
    outcome = solver.solve(**solve_kwargs)
    return solver.drain_exported(), outcome


def run_epochs(
    step: Callable[[list], list],
    bus: SharedClauseBus,
    reports: List[MemberReport],
    epoch_conflicts: int,
    limits=None,
    max_epochs: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[Optional[int], Optional[SolveOutcome], int]:
    """The epoch-barrier loop; returns ``(winner, its outcome, epochs)``.

    ``step(work)`` takes ``[(member, budgets, imports), ...]`` and
    returns ``[(member, exports, outcome), ...]`` in any order.  The
    ``max_conflicts``/``max_propagations``/``max_decisions`` of
    ``limits`` (a :class:`SolverConfig`, or None) cap each member's work
    summed over this call; epochs are carved out of what remains.  All
    members step against the same barrier, which makes placement
    invisible.
    """
    caps = (
        (limits.max_conflicts, limits.max_propagations, limits.max_decisions)
        if limits is not None else (None, None, None)
    )
    active = list(range(len(reports)))
    finished: Dict[int, SolveOutcome] = {}
    epochs = 0
    while active and (max_epochs is None or epochs < max_epochs):
        if deadline is not None and time.perf_counter() > deadline:
            break
        work = []
        for index in active:
            report = reports[index]
            budgets = carve_epoch_budgets(
                epoch_conflicts, caps,
                (report.conflicts, report.propagations, report.decisions),
            )
            if budgets is not None:
                work.append((index, budgets))
        active = [index for index, _budgets in work]
        if not work:
            break  # every member exhausted a cap
        replies = step(
            [(index, budgets, bus.collect(index)) for index, budgets in work]
        )
        replies.sort(key=lambda reply: reply[0])
        for index, exports, outcome in replies:
            report = reports[index]
            report.absorb(outcome.stats)
            bus.publish(index, exports)
            if outcome.status is not SolveResult.UNKNOWN:
                report.status = outcome.status.value
                finished[index] = outcome
        epochs += 1
        if finished:
            break
    if not finished:
        return None, None, epochs
    agree(outcome.status for outcome in finished.values())
    winner = min(finished)
    reports[winner].winner = True
    return winner, finished[winner], epochs


def _epoch_group(make_step, indices, commands) -> Iterator[list]:
    step = make_step(indices)
    for work in iter(commands.get, None):
        yield step(work)


@contextmanager
def epoch_step(
    make_step: Callable[[Sequence[int]], Callable[[list], list]],
    members: int,
    workers: int,
) -> Iterator[Callable[[list], list]]:
    """The step of an epoch loop over ``members``: ``make_step(indices)``
    builds the step for those members where it is called — here when
    ``workers`` is 1, else in ``workers`` persistent children, member
    ``i`` living in child ``i % workers`` for the whole loop."""
    if workers <= 1:
        yield make_step(range(members))
        return
    children = Children()
    commands = []
    for slot in range(workers):
        commands.append(children.queue())
        children.start(
            _epoch_group, make_step, range(slot, members, workers),
            commands[slot],
        )

    def step(work: list) -> list:
        slots: Dict[int, list] = {}
        for item in work:
            slots.setdefault(item[0] % workers, []).append(item)
        for slot, items in slots.items():
            commands[slot].put(items)
        waiting = list(slots)
        replies: list = []
        while waiting:
            message = children.receive(waiting, tolerate_losses=False)
            if message is not None:
                waiting.remove(message[0])
                replies.extend(message[1])
        return replies

    try:
        yield step
    finally:
        children.close()
