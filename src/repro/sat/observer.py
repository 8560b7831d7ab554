"""The search-observer seam: every capture hook of a solve in one place.

``CdclSolver._search`` calls one optional :class:`SearchObserver` at
each search-level event behind a single ``is not None`` test, and
``solve()`` calls ``begin``/``end`` in its ``try/finally``.  The
observer is ``SolverConfig.observer``, teed with a
:class:`MetricsPublisher` when ``SolverConfig.metrics`` is set.  The
sinks — trace writers (``repro.sat.trace``), the ``.racc`` sampler
(``repro.metrics.access``), the publisher below, the experiments'
progress printer — each own their state and settings.

Every hook receives the solver first and reads its state (directly,
as the solver's instrumentation plane) without mutating it, so an
observed search is byte-identical to an unobserved one.  Observers keep
no solver reference and open nothing at construction, so a config
carrying them pickles to worker processes.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.sat.profile import NPROF, structure_counts

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.metrics import MetricsRegistry
    from repro.sat.solver import CdclSolver
    from repro.sat.types import SolveResult

#: Byte-buffer high-water mark of the file observers: one write per
#: ~64 KiB of encoded events.
FLUSH_THRESHOLD = 1 << 16


class SearchObserver:
    """Base observer: every hook is a no-op, so a sink overrides only
    the events it captures."""

    def begin(self, solver: "CdclSolver") -> None:
        """``solve()`` entry (stats already reset)."""

    def on_conflict(self, solver: "CdclSolver", level: int) -> None:
        """A conflict at decision ``level``, before analysis."""

    def on_learn(
        self, solver: "CdclSolver", learned: List[int], btlevel: int,
        antecedents: List[int],
    ) -> None:
        """``learned`` is installed after a backjump to ``btlevel``, its
        asserting literal enqueued; ``antecedents`` are the clause IDs
        its derivation resolved over."""

    def on_decide(self, solver: "CdclSolver", lit: int) -> None:
        """Decision ``lit`` was enqueued on a new level."""

    def on_assume(self, solver: "CdclSolver", lit: int) -> None:
        """Assumption ``lit``'s level is about to open."""

    def on_restart(self, solver: "CdclSolver", level: int) -> None:
        """A restart is about to backtrack to ``level`` (trail intact)."""

    def on_reduce(self, solver: "CdclSolver", deleted: int) -> None:
        """A learned-DB reduction deleted ``deleted`` clauses."""

    def end(self, solver: "CdclSolver", status: Optional["SolveResult"]) -> None:
        """The search returned ``status``, or raised (``None``)."""


class Tee(SearchObserver):
    """Fan every hook out to several observers, in order.  Build it
    with :func:`tee`, which flattens nested tees and drops ``None``."""

    def __init__(self, observers: Sequence[SearchObserver]) -> None:
        self.observers = tuple(observers)

    def begin(self, solver):
        for observer in self.observers:
            observer.begin(solver)

    def on_conflict(self, solver, level):
        for observer in self.observers:
            observer.on_conflict(solver, level)

    def on_learn(self, solver, learned, btlevel, antecedents):
        for observer in self.observers:
            observer.on_learn(solver, learned, btlevel, antecedents)

    def on_decide(self, solver, lit):
        for observer in self.observers:
            observer.on_decide(solver, lit)

    def on_assume(self, solver, lit):
        for observer in self.observers:
            observer.on_assume(solver, lit)

    def on_restart(self, solver, level):
        for observer in self.observers:
            observer.on_restart(solver, level)

    def on_reduce(self, solver, deleted):
        for observer in self.observers:
            observer.on_reduce(solver, deleted)

    def end(self, solver, status):
        for observer in self.observers:
            observer.end(solver, status)


def tee(*observers: Optional[SearchObserver]) -> Optional[SearchObserver]:
    """The smallest observer equivalent to all of ``observers``:
    ``None`` when there are none, the observer itself when there is
    one, otherwise one flat :class:`Tee`."""
    flat: List[SearchObserver] = []
    for observer in observers:
        if isinstance(observer, Tee):
            flat.extend(observer.observers)
        elif observer is not None:
            flat.append(observer)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Tee(flat)


def append_varint(buf: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint (the framing of
    both byte-stream sinks)."""
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


class FileObserver(SearchObserver):
    """The open/buffer/flush/close lifecycle of the ``.rtrc`` and
    ``.racc`` writers.  ``sink`` is a path (opened ``"wb"`` at every
    open, so each ``solve()`` rewrites it) or a binary file object
    (flushed, never closed).  Subclasses encode into ``_buf`` and
    :meth:`flush` past :data:`FLUSH_THRESHOLD`; :meth:`end` closes."""

    def __init__(self, sink: object) -> None:
        self.sink = sink
        self._fh = None
        self._buf = bytearray()

    def _open(self, header: bytes) -> None:
        sink = self.sink
        self._fh = sink if hasattr(sink, "write") else open(os.fspath(sink), "wb")
        self._buf = bytearray(header)

    def flush(self) -> None:
        buf = self._buf
        if buf:
            self._fh.write(buf)
            del buf[:]

    def close(self) -> None:
        fh = self._fh
        if fh is None:
            return
        self.flush()
        self._fh = None
        if fh is self.sink:
            fh.flush()
        else:
            fh.close()

    def end(self, solver, status):
        self.close()


class MetricsPublisher(SearchObserver):
    """A solver's ``solver_*`` series: counter deltas for every
    :class:`SolverStats` field, state gauges and, under
    ``profile_access``, per-structure access counters.  Published at
    each restart and ``solve()`` exit only, reading no clock.  One
    publisher per solver: stats deltas restart every solve, the
    cumulative raw profile is differenced across solves."""

    def __init__(
        self, registry: "MetricsRegistry", labels: Optional[Dict[str, str]]
    ) -> None:
        self.registry = registry
        self.labels = labels
        self._published_stats: Dict[str, float] = {}
        self._published_profile = [0] * NPROF

    def begin(self, solver):
        # Stats reset at solve() entry, so the deltas restart too.
        self._published_stats.clear()

    def on_restart(self, solver, level):
        self.publish(solver)

    def end(self, solver, status):
        if status is not None:
            self.publish(solver)

    def publish(self, solver: "CdclSolver") -> None:
        registry = self.registry
        labels = self.labels
        published = self._published_stats
        for name, value in solver.stats.as_dict().items():
            prev = published.get(name, 0.0)
            if value != prev:
                registry.counter(
                    f"solver_{name}_total",
                    help=f"Cumulative solver {name} across solves.",
                    labels=labels,
                ).inc(value - prev)
                published[name] = float(value)
        arena = solver._arena
        words = len(arena.data)
        gauges = [
            ("solver_vars", "Variables in the solver.", solver.num_vars),
            ("solver_learned_live", "Live learned clauses in the database.",
             solver._num_live_learned),
            ("solver_trail_depth", "Assigned literals on the trail.",
             solver._trail_len),
            ("solver_arena_words", "Clause-arena footprint in literal words.",
             words),
            ("solver_arena_tombstone_ratio",
             "Fraction of arena words held by deleted clauses.",
             arena.dead_words / words if words else 0.0),
        ]
        heap = getattr(solver.strategy, "_heap", None)
        if heap is not None:
            gauges.append((
                "solver_heap_size", "Variables in the decision activity heap.",
                len(heap),
            ))
        for name, help_text, value in gauges:
            registry.gauge(name, help=help_text, labels=labels).set(value)
        profile = solver._profile
        if profile is not None:
            prev_raw = self._published_profile
            raw_delta = [profile[i] - prev_raw[i] for i in range(NPROF)]
            for structure, count in structure_counts(raw_delta).items():
                if count:
                    access_labels = dict(labels) if labels else {}
                    access_labels["structure"] = structure
                    registry.counter(
                        "solver_access_total",
                        help="Per-structure memory accesses "
                        "(repro.sat.profile).",
                        labels=access_labels,
                    ).inc(count)
            self._published_profile = list(profile)
