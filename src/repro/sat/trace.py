"""Binary solver-trace telemetry (ROADMAP item 4).

A trace is the solver's search path serialized as a compact stream of
*search-level* events — the algorithm steps of the paper's Fig. 1, not
the data-plane details below them.  Because both kernels
(``python`` / ``native``) run byte-identical searches, a trace is
kernel-invariant by construction: the strongest cross-kernel
correctness statement the repo can make ("same search path, event by
event") is literally ``bytes_a == bytes_b`` on two trace files.  The
same stream doubles as a replay artifact: feeding the recorded DECIDE
literals back into a fresh solver on the same formula reproduces the
run (see ``repro.sat.replay``).

Capture is a search observer (``repro.sat.observer``):
``SolverConfig(observer=TraceWriter(path))`` writes each ``solve()``'s
trace to ``path``, ``TraceRecorder(events)`` appends decoded events to
a list; both map the search hooks onto events through
:class:`TraceSink`.

Wire format, version 1
----------------------

Everything is unsigned LEB128 varints (7 payload bits per byte, high
bit = continuation); signed quantities are zigzag-mapped first
(``0,-1,1,-2,... -> 0,1,2,3,...``).  The file layout::

    header:  magic b"RTRC" | version u8 | varint num_vars | varint flags
    events:  (varint tag | varint payload)*

``flags`` is reserved and must be 0 in version 1.  Event payloads::

    tag  name       payload
    ---  ---------  ----------------------------------------------
    0    ENQUEUE    zigzag(lit - prev_lit)
    1    DECIDE     zigzag(lit - prev_lit)
    2    CONFLICT   decision level of the conflict
    3    LEARN      learned-clause length (post-minimization)
    4    BACKTRACK  target decision level
    5    RESTART    target decision level (= #assumptions)
    6    REDUCE     clauses deleted by this DB reduction
    7    ASSUME     zigzag(lit - prev_lit); opens one level
    8    END        1 = SAT, 2 = UNSAT, 3 = UNKNOWN

Literal-carrying events (ENQUEUE / DECIDE / ASSUME) share one running
``prev_lit`` delta chain: consecutive trail literals are usually close
in index, so most events cost 2 bytes (tag + one varint byte).  The
wall clock never enters the stream — timing differs per backend and
per run, and would break the byte-identity contract; throughput
numbers belong to the analyzer (``python -m repro.trace``), not the
artifact.

Version policy: the reader accepts exactly ``TRACE_VERSION`` and
raises :class:`TraceVersionError` otherwise.  Any change to the event
set, a payload encoding, or the header bumps the version; readers
never guess.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.sat.observer import FLUSH_THRESHOLD, FileObserver, SearchObserver, append_varint
from repro.sat.types import SolveResult

TRACE_MAGIC = b"RTRC"
TRACE_VERSION = 1
TRACE_SUFFIX = ".rtrc"

EV_ENQUEUE = 0
EV_DECIDE = 1
EV_CONFLICT = 2
EV_LEARN = 3
EV_BACKTRACK = 4
EV_RESTART = 5
EV_REDUCE = 6
EV_ASSUME = 7
EV_END = 8

#: ``EVENT_NAMES[tag]`` is the human name used by the analyzer.
EVENT_NAMES = (
    "ENQUEUE",
    "DECIDE",
    "CONFLICT",
    "LEARN",
    "BACKTRACK",
    "RESTART",
    "REDUCE",
    "ASSUME",
    "END",
)

#: Tags whose payload is a delta-zigzag literal on the shared chain.
LIT_EVENTS = frozenset((EV_ENQUEUE, EV_DECIDE, EV_ASSUME))

STATUS_SAT = 1
STATUS_UNSAT = 2
STATUS_UNKNOWN = 3
STATUS_NAMES = {STATUS_SAT: "SAT", STATUS_UNSAT: "UNSAT", STATUS_UNKNOWN: "UNKNOWN"}

#: Solve outcome -> END-event status code.
_STATUS_CODES = {SolveResult.SAT: STATUS_SAT, SolveResult.UNSAT: STATUS_UNSAT,
                 SolveResult.UNKNOWN: STATUS_UNKNOWN}


class TraceError(Exception):
    """Base class for trace codec / replay errors."""


class TraceFormatError(TraceError):
    """The byte stream is not a well-formed trace (bad magic, truncated
    varint, unknown event tag, reserved flags set)."""


class TraceVersionError(TraceFormatError):
    """The trace's version byte is not the one this reader speaks."""


class TraceEvent(NamedTuple):
    """One decoded (or recorded) search event.

    ``arg`` is the *logical* payload: the packed literal for
    ENQUEUE / DECIDE / ASSUME, a decision level for CONFLICT /
    BACKTRACK / RESTART, a clause length for LEARN, a deletion count
    for REDUCE, a status code for END.  Delta/zigzag packing is a wire
    concern only and never appears here.
    """

    kind: int
    arg: int

    @property
    def name(self) -> str:
        return EVENT_NAMES[self.kind]


def zigzag(value: int) -> int:
    """Map a signed int to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


class TraceSink(SearchObserver):
    """The search-hook to event mapping of :class:`TraceWriter` and
    :class:`TraceRecorder`, with the trail watermark: ``_mark`` is the
    trail position up to which entries were emitted as ENQUEUE, and
    each event site first emits ``[_mark, trail_len)``
    (:meth:`sync_trail`), so BCP never calls out.  A backjump moves it
    to the start of the first undone level, tracked from the sink's own
    DECIDE/ASSUME events as :class:`TraceState` does.  The first sync
    re-emits the root trail, so every trace is self-contained.

    Subclasses supply ``open(num_vars)``, ``close()``, the single-event
    emitter ``_event(kind, arg)`` and the batch emitter ``enqueue_run``.
    """

    def begin(self, solver):
        self._mark = 0
        self._lim: List[int] = []
        self.open(solver.num_vars)

    # Runs at every search-level event site of a traced solve; the
    # per-literal loop lives in the subclass's enqueue_run.
    # solcheck: hot
    def sync_trail(self, solver, stop: int) -> None:
        mark = self._mark
        if stop > mark:
            self.enqueue_run(solver._trail, mark, stop)
            self._mark = stop

    def _backjump(self, level: int) -> None:
        lim = self._lim
        self._mark = lim[level]
        del lim[level:]

    def on_conflict(self, solver, level):
        self.sync_trail(solver, solver._trail_len)
        self._event(EV_CONFLICT, level)

    def on_learn(self, solver, learned, btlevel, antecedents):
        self._event(EV_LEARN, len(learned))
        self._event(EV_BACKTRACK, btlevel)
        self._backjump(btlevel)

    def on_restart(self, solver, level):
        # Flush before the trail is truncated: enqueues above the
        # restart level are about to be undone unrecorded otherwise.
        self.sync_trail(solver, solver._trail_len)
        self._event(EV_RESTART, level)
        self._backjump(level)

    def on_reduce(self, solver, deleted):
        self._event(EV_REDUCE, deleted)

    def on_assume(self, solver, lit):
        # ASSUME records only the level-open; the literal itself (when
        # actually enqueued) arrives through the next ENQUEUE flush.
        n = solver._trail_len
        self.sync_trail(solver, n)
        self._event(EV_ASSUME, lit)
        self._lim.append(n)

    def on_decide(self, solver, lit):
        # The decision literal is the last trail entry; everything
        # below it is the propagation run that preceded it.
        n = solver._trail_len - 1
        self.sync_trail(solver, n)
        self._event(EV_DECIDE, lit)
        self._mark = n + 1
        self._lim.append(n)

    def end(self, solver, status):
        if status is not None:
            self.sync_trail(solver, solver._trail_len)
            self._event(EV_END, _STATUS_CODES[status])
        self.close()


class TraceWriter(TraceSink, FileObserver):
    """Buffered binary encoder: the ``.rtrc`` observer.

    ``sink`` is a filesystem path or a binary file object (see
    :class:`~repro.sat.observer.FileObserver`).  As an observer it
    (re)opens the sink at every ``solve()`` and writes that call's
    trace; as a standalone encoder, :meth:`open` writes the version-1
    header and :meth:`write_event` / :meth:`enqueue_run` append events.
    """

    def open(self, num_vars: int) -> None:
        header = bytearray(TRACE_MAGIC)
        header.append(TRACE_VERSION)
        append_varint(header, num_vars)
        append_varint(header, 0)  # flags (reserved)
        self._open(header)
        self._prev_lit = 0

    def _event(self, kind: int, arg: int) -> None:
        if kind in LIT_EVENTS:
            payload = zigzag(arg - self._prev_lit)
            self._prev_lit = arg
        else:
            payload = arg
        buf = self._buf
        buf.append(kind)
        append_varint(buf, payload)
        if len(buf) >= FLUSH_THRESHOLD:
            self.flush()

    def write_event(self, event: Tuple[int, int]) -> None:
        """Encode one already-decoded :class:`TraceEvent`."""
        self._event(event[0], event[1])

    # One call per search-level event site flushes every trail literal
    # enqueued since the last site; the loop runs once per propagation,
    # which is why it carries hot-path discipline.
    # solcheck: hot
    def enqueue_run(self, trail: Sequence[int], start: int, stop: int) -> None:
        buf = self._buf
        prev = self._prev_lit
        tag = EV_ENQUEUE
        for i in range(start, stop):
            lit = trail[i]
            delta = lit - prev
            prev = lit
            value = (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
            buf.append(tag)
            while value > 0x7F:
                buf.append((value & 0x7F) | 0x80)
                value >>= 7
            buf.append(value)
        self._prev_lit = prev
        if len(buf) >= FLUSH_THRESHOLD:
            self.flush()


class TraceRecorder(TraceSink):
    """In-memory sink: appends :class:`TraceEvent` tuples to a
    caller-supplied list (across every observed ``solve()``).  No
    encoding happens, so this is the cheapest way to capture a run for
    a same-process oracle (the replay harness and the fuzzer use it).
    """

    def __init__(self, events: List[TraceEvent]) -> None:
        self.events = events

    def open(self, num_vars: int) -> None:
        pass

    def close(self) -> None:
        pass

    def _event(self, kind: int, arg: int) -> None:
        self.events.append(TraceEvent(kind, arg))

    def enqueue_run(self, trail: Sequence[int], start: int, stop: int) -> None:
        events = self.events
        for i in range(start, stop):
            events.append(TraceEvent(EV_ENQUEUE, trail[i]))


class TraceReader:
    """Decode a version-1 trace from a path, bytes, or binary file.

    The whole stream is slurped up front (traces here are megabytes,
    and index arithmetic on one ``bytes`` object is the fastest pure
    Python decode); events come back through iteration or
    :meth:`events`.
    """

    def __init__(self, source: Union[str, bytes, bytearray, BinaryIO]) -> None:
        if isinstance(source, str):
            with open(source, "rb") as fh:
                data = fh.read()
        elif isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        else:
            data = source.read()
        if data[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceFormatError(
                f"bad magic {data[:4]!r}: not a solver trace"
            )
        if len(data) < len(TRACE_MAGIC) + 1:
            raise TraceFormatError("truncated header")
        version = data[len(TRACE_MAGIC)]
        if version != TRACE_VERSION:
            raise TraceVersionError(
                f"trace version {version} unsupported "
                f"(this reader speaks version {TRACE_VERSION})"
            )
        self.version = version
        self._data = data
        pos = len(TRACE_MAGIC) + 1
        self.num_vars, pos = self._read_varint(pos)
        self.flags, pos = self._read_varint(pos)
        if self.flags != 0:
            raise TraceFormatError(
                f"reserved flags {self.flags:#x} set in a version-1 trace"
            )
        self._body_start = pos

    def _read_varint(self, pos: int) -> Tuple[int, int]:
        data = self._data
        size = len(data)
        value = 0
        shift = 0
        while True:
            if pos >= size:
                raise TraceFormatError("truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, pos
            shift += 7

    def __iter__(self) -> Iterator[TraceEvent]:
        data = self._data
        size = len(data)
        pos = self._body_start
        prev_lit = 0
        read_varint = self._read_varint
        lit_events = LIT_EVENTS
        num_kinds = len(EVENT_NAMES)
        while pos < size:
            tag = data[pos]
            pos += 1
            if tag >= num_kinds:
                raise TraceFormatError(f"unknown event tag {tag} at byte {pos - 1}")
            payload, pos = read_varint(pos)
            if tag in lit_events:
                prev_lit += unzigzag(payload)
                yield TraceEvent(tag, prev_lit)
            else:
                yield TraceEvent(tag, payload)

    def events(self) -> List[TraceEvent]:
        return list(self)

    @property
    def size_bytes(self) -> int:
        return len(self._data)


def encode_events(
    events: Sequence[Tuple[int, int]], num_vars: int
) -> bytes:
    """Serialize a logical event sequence to version-1 trace bytes."""
    sink = io.BytesIO()
    writer = TraceWriter(sink)
    writer.open(num_vars)
    for event in events:
        writer.write_event(event)
    writer.close()
    return sink.getvalue()


def decode_trace(
    source: Union[str, bytes, bytearray, BinaryIO]
) -> Tuple[int, List[TraceEvent]]:
    """Decode a trace; returns ``(num_vars, events)``."""
    reader = TraceReader(source)
    return reader.num_vars, reader.events()


class TraceState:
    """Pure-event reconstruction of the solver's search state.

    Applying a trace's events rebuilds exactly the state the solver's
    own bookkeeping held at each point: the trail (literal sequence),
    per-variable decision levels, the decision level, and the learned /
    deleted / conflict / restart counters.  This is the oracle half of
    the replay harness — the replayed solver's real state must match
    what the recorded events imply — and the analyzer's depth tracker.
    """

    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self.trail: List[int] = []
        self.levels: List[int] = [-1] * num_vars
        self.level = 0
        self.learned = 0
        self.deleted = 0
        self.conflicts = 0
        self.decisions = 0
        self.restarts = 0
        self.status: Optional[int] = None
        self._lim: List[int] = []

    def apply(self, event: Tuple[int, int]) -> None:
        kind, arg = event
        if kind == EV_ENQUEUE:
            self.trail.append(arg)
            self.levels[arg >> 1] = self.level
        elif kind == EV_DECIDE:
            self._lim.append(len(self.trail))
            self.level += 1
            self.trail.append(arg)
            self.levels[arg >> 1] = self.level
            self.decisions += 1
        elif kind == EV_CONFLICT:
            if arg != self.level:
                raise TraceError(
                    f"CONFLICT at level {arg} but simulated level is "
                    f"{self.level}: corrupt or reordered trace"
                )
            self.conflicts += 1
        elif kind == EV_LEARN:
            self.learned += 1
        elif kind == EV_BACKTRACK or kind == EV_RESTART:
            if kind == EV_RESTART:
                self.restarts += 1
            target = arg
            if target < self.level:
                pos = self._lim[target]
                levels = self.levels
                for lit in self.trail[pos:]:
                    levels[lit >> 1] = -1
                del self.trail[pos:]
                del self._lim[target:]
                self.level = target
        elif kind == EV_REDUCE:
            self.deleted += arg
        elif kind == EV_ASSUME:
            # Opens one level; the literal itself arrives as a normal
            # ENQUEUE *unless* it was already true (the solver opens an
            # empty level to keep level/assumption indices aligned).
            self._lim.append(len(self.trail))
            self.level += 1
        elif kind == EV_END:
            self.status = arg
        else:
            raise TraceError(f"unknown event kind {kind}")

    def apply_all(self, events: Sequence[Tuple[int, int]]) -> None:
        for event in events:
            self.apply(event)

    @property
    def status_name(self) -> Optional[str]:
        if self.status is None:
            return None
        return STATUS_NAMES.get(self.status, f"status:{self.status}")
