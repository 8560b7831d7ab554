"""Binary solver-trace telemetry (ROADMAP item 4).

A trace is the solver's search path serialized as a compact stream of
*search-level* events — the algorithm steps of the paper's Fig. 1, not
the data-plane details below them.  Because both kernels
(``python`` / ``native``) run byte-identical searches, a trace is
kernel-invariant by construction: the strongest cross-kernel
correctness statement the repo can make ("same search path, event by
event") is literally ``bytes_a == bytes_b`` on two trace files.  The same stream doubles as a replay artifact: feeding the
recorded DECIDE literals back into a fresh solver on the same formula
reproduces the run (see ``repro.sat.replay``).

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

TRACE_MAGIC = b"RTRC"
TRACE_VERSION = 1

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

#: Writer buffer high-water mark: one syscall per ~64 KiB of events.
_FLUSH_THRESHOLD = 1 << 16


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


def _append_varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


class TraceWriter:
    """Buffered binary encoder for one solver run.

    ``sink`` is a filesystem path (opened/closed by the writer) or any
    binary file object (left open on :meth:`close`).  The writer emits
    the version-1 header immediately; events stream out through a
    bytearray buffer flushed at :data:`_FLUSH_THRESHOLD`.
    """

    def __init__(self, sink: Union[str, BinaryIO], num_vars: int) -> None:
        if isinstance(sink, str):
            self._fh: BinaryIO = open(sink, "wb")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.num_vars = num_vars
        self.events_written = 0
        self.bytes_written = 0
        self._prev_lit = 0
        self._closed = False
        buf = bytearray()
        buf += TRACE_MAGIC
        buf.append(TRACE_VERSION)
        _append_varint(buf, num_vars)
        _append_varint(buf, 0)  # flags (reserved)
        self._buf = buf

    # -- generic single-event emitters (cold relative to BCP) ----------

    def _emit(self, tag: int, payload: int) -> None:
        buf = self._buf
        buf.append(tag)
        _append_varint(buf, payload)
        self.events_written += 1
        if len(buf) >= _FLUSH_THRESHOLD:
            self.flush()

    def _emit_lit(self, tag: int, lit: int) -> None:
        self._emit(tag, zigzag(lit - self._prev_lit))
        self._prev_lit = lit

    def enqueue(self, lit: int) -> None:
        self._emit_lit(EV_ENQUEUE, lit)

    def decide(self, lit: int) -> None:
        self._emit_lit(EV_DECIDE, lit)

    def assume(self, lit: int) -> None:
        self._emit_lit(EV_ASSUME, lit)

    def conflict(self, level: int) -> None:
        self._emit(EV_CONFLICT, level)

    def learn(self, length: int) -> None:
        self._emit(EV_LEARN, length)

    def backtrack(self, level: int) -> None:
        self._emit(EV_BACKTRACK, level)

    def restart(self, level: int) -> None:
        self._emit(EV_RESTART, level)

    def reduce(self, deleted: int) -> None:
        self._emit(EV_REDUCE, deleted)

    def end(self, status: int) -> None:
        self._emit(EV_END, status)

    def write_event(self, event: Tuple[int, int]) -> None:
        """Re-encode an already-decoded :class:`TraceEvent` (round-trip
        tests, trace rewriting)."""
        kind, arg = event
        if kind in LIT_EVENTS:
            self._emit_lit(kind, arg)
        else:
            self._emit(kind, arg)

    # -- the hot batch emitter -----------------------------------------

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
        self.events_written += stop - start
        if len(buf) >= _FLUSH_THRESHOLD:
            self.flush()

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        buf = self._buf
        if buf:
            self._fh.write(buf)
            self.bytes_written += len(buf)
            del buf[:]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()


class TraceRecorder:
    """In-memory sink with the :class:`TraceWriter` event surface.

    Appends :class:`TraceEvent` tuples to a caller-supplied list — the
    ``SolverConfig.trace_events`` option.  No encoding happens, so this
    is the cheapest way to capture a run for a same-process oracle
    (the replay fuzzer leg uses it).
    """

    def __init__(self, events: List[TraceEvent], num_vars: int) -> None:
        self.events = events
        self.num_vars = num_vars

    def enqueue(self, lit: int) -> None:
        self.events.append(TraceEvent(EV_ENQUEUE, lit))

    def decide(self, lit: int) -> None:
        self.events.append(TraceEvent(EV_DECIDE, lit))

    def assume(self, lit: int) -> None:
        self.events.append(TraceEvent(EV_ASSUME, lit))

    def conflict(self, level: int) -> None:
        self.events.append(TraceEvent(EV_CONFLICT, level))

    def learn(self, length: int) -> None:
        self.events.append(TraceEvent(EV_LEARN, length))

    def backtrack(self, level: int) -> None:
        self.events.append(TraceEvent(EV_BACKTRACK, level))

    def restart(self, level: int) -> None:
        self.events.append(TraceEvent(EV_RESTART, level))

    def reduce(self, deleted: int) -> None:
        self.events.append(TraceEvent(EV_REDUCE, deleted))

    def end(self, status: int) -> None:
        self.events.append(TraceEvent(EV_END, status))

    def enqueue_run(self, trail: Sequence[int], start: int, stop: int) -> None:
        events = self.events
        for i in range(start, stop):
            events.append(TraceEvent(0, trail[i]))

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class TraceTee:
    """Fan one event stream out to several sinks (file + in-memory)."""

    def __init__(self, sinks: Sequence[object]) -> None:
        self._sinks = list(sinks)

    def __getattr__(self, name: str):
        sinks = self._sinks
        methods = [getattr(sink, name) for sink in sinks]

        def fanout(*args):
            for method in methods:
                method(*args)

        return fanout


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
    writer = TraceWriter(sink, num_vars)
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
