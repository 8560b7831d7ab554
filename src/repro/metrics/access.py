"""The sampled access-stream sidecar (``.racc``): RTRC-style varint
framing for (structure, offset) events.

While the flat raw counters (``repro.sat.profile``) answer "*how
much* does each structure get touched", the sidecar answers *where*:
a byte stream of ``(structure_id, offset)`` events — clause IDs and
arena word offsets touched by conflict analysis, sampled every
``sample_every`` conflicts by the :class:`AccessStreamWriter` search
observer (attach it through ``SolverConfig.observer``; see
``repro.sat.observer``), so capture happens at search level and never
inside the hot loops.  Cheap enough to leave on for long runs and
dense enough for offline locality analysis (hot-clause ranking,
offset histograms, reuse-distance approximation).

Framing (little-endian varints, one per event)::

    magic "RACC" | version u8 | varint sample_every | events...
    event = varint( zigzag(offset - last[sid]) << 3 | sid )

Offsets are delta-encoded per structure space (monotone scans cost
one byte per event); the 3 low bits carry the structure ID, so a
whole event is a single varint — the same ~1-3 bytes/event budget the
RTRC trace hits.
"""

from __future__ import annotations

import io
import os
from collections import Counter as _TallyCounter
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from repro.sat.observer import FLUSH_THRESHOLD, FileObserver, append_varint

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.sat.solver import CdclSolver

__all__ = [
    "ACCESS_MAGIC",
    "ACCESS_VERSION",
    "SID_CLAUSE",
    "SID_ARENA",
    "SID_TRAIL",
    "SID_NAMES",
    "AccessStreamError",
    "AccessStreamWriter",
    "read_access_stream",
    "analyze_access_stream",
]

ACCESS_MAGIC = b"RACC"
ACCESS_VERSION = 1
ACCESS_SUFFIX = ".racc"

# Structure-ID spaces (3 bits available: 0..7).
SID_CLAUSE = 0  # clause IDs resolved over by conflict analysis
SID_ARENA = 1   # arena word offsets of those clauses' blocks
SID_TRAIL = 2   # trail length at each sampled conflict

SID_NAMES = {SID_CLAUSE: "clause", SID_ARENA: "arena", SID_TRAIL: "trail"}

class AccessStreamWriter(FileObserver):
    """The ``.racc`` observer: at every ``sample_every``-th conflict
    (keyed on the conflict counter — no clock) it records the learned
    clause's antecedent IDs, their arena offsets and the trail depth.
    Standalone, :meth:`open` writes the header and :meth:`record_block`
    / :meth:`record` append events.  ``sink``: a path or binary file
    (see :class:`~repro.sat.observer.FileObserver`)."""

    def __init__(self, sink: object, sample_every: int = 16) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        super().__init__(sink)
        self.sample_every = sample_every
        # Per-structure last offset for delta encoding.
        self._last = [0] * 8
        self.events = 0

    def open(self) -> None:
        header = bytearray(ACCESS_MAGIC)
        header.append(ACCESS_VERSION)
        append_varint(header, self.sample_every)
        self._open(bytes(header))
        self._last = [0] * 8
        self.events = 0

    def begin(self, solver: "CdclSolver") -> None:
        self.open()

    def on_learn(
        self, solver: "CdclSolver", learned: List[int], btlevel: int,
        antecedents: List[int],
    ) -> None:
        if solver.stats.conflicts % self.sample_every:
            return
        refs = solver._arena.refs
        self.record_block(SID_CLAUSE, antecedents)
        self.record_block(SID_ARENA, [refs[cid] for cid in antecedents])
        self.record(SID_TRAIL, solver._trail_len)

    # Called up to three times per sampled conflict (a handful of
    # antecedent IDs and arena refs each): conflict-granular, not
    # per-access, but it follows the hot-path discipline anyway.
    def record_block(self, sid: int, offsets: Sequence[int]) -> None:  # solcheck: hot
        """Append one event per offset in the structure space ``sid``."""
        buf = self._buf
        append = buf.append
        last = self._last[sid]
        n = 0
        for off in offsets:
            d = off - last
            last = off
            e = (((d << 1) ^ (d >> 63)) << 3) | sid
            while e > 0x7F:
                append(0x80 | (e & 0x7F))
                e >>= 7
            append(e)
            n += 1
        self._last[sid] = last
        self.events += n
        if len(buf) >= FLUSH_THRESHOLD:
            self.flush()

    def record(self, sid: int, offset: int) -> None:
        self.record_block(sid, (offset,))


class AccessStreamError(ValueError):
    """A ``.racc`` capture that cannot be decoded: bad magic, an
    unsupported version, or a header or event cut short."""


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    value = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise AccessStreamError(
                f"truncated access stream: varint at byte {pos} runs past "
                f"the end ({len(data)} bytes)"
            ) from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def read_access_stream(path_or_file: object) -> Iterator[Tuple[int, int]]:
    """Yield ``(sid, offset)`` events from a ``.racc`` capture; raises
    :class:`AccessStreamError` on a malformed one."""
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()  # type: ignore[union-attr]
    else:
        with open(os.fspath(path_or_file), "rb") as fh:  # type: ignore[arg-type]
            data = fh.read()
    _check_header(data)
    _sample_every, pos = _read_varint(data, 5)
    last = [0] * 8
    n = len(data)
    while pos < n:
        packed, pos = _read_varint(data, pos)
        sid = packed & 0x7
        z = packed >> 3
        delta = (z >> 1) ^ -(z & 1)
        offset = last[sid] + delta
        last[sid] = offset
        yield sid, offset


def stream_sample_every(path_or_file: object) -> int:
    """The ``sample_every`` recorded in a capture's header."""
    if hasattr(path_or_file, "read"):
        head = path_or_file.read(16)  # type: ignore[union-attr]
    else:
        with open(os.fspath(path_or_file), "rb") as fh:  # type: ignore[arg-type]
            head = fh.read(16)
    _check_header(head)
    value, _pos = _read_varint(head, 5)
    return value


def _check_header(data: bytes) -> None:
    """Refuse anything but a version-1 capture's magic and version."""
    if data[:4] != ACCESS_MAGIC:
        raise AccessStreamError("not an access stream: bad magic")
    if len(data) < 5:
        raise AccessStreamError("truncated access stream: no version byte")
    if data[4] != ACCESS_VERSION:
        raise AccessStreamError(f"unsupported access-stream version {data[4]}")


# ---------------------------------------------------------------------------
# Offline analysis: histograms, hot offsets, reuse distance
# ---------------------------------------------------------------------------

def _log2_bucket(value: int) -> int:
    return value.bit_length() if value > 0 else 0


def analyze_access_stream(
    paths: Sequence[object], top_n: int = 10
) -> Dict[str, object]:
    """Aggregate one or more ``.racc`` captures into a locality report.

    Per structure space: event count, offset span, a log2 offset
    histogram, the ``top_n`` hottest offsets, and (for the clause and
    arena spaces) a log2 **reuse-distance approximation** histogram —
    the event-position gap between successive touches of the same
    offset, a standard stand-in for stack reuse distance that ranks
    "rereferenced soon" against "streamed once".
    """
    counts: Dict[int, int] = {}
    mins: Dict[int, int] = {}
    maxs: Dict[int, int] = {}
    offset_hist: Dict[int, _TallyCounter] = {}
    hot: Dict[int, _TallyCounter] = {}
    reuse_hist: Dict[int, _TallyCounter] = {}
    last_pos: Dict[int, Dict[int, int]] = {SID_CLAUSE: {}, SID_ARENA: {}}
    pos = 0
    for path in paths:
        for sid, offset in read_access_stream(path):
            pos += 1
            counts[sid] = counts.get(sid, 0) + 1
            if sid not in mins or offset < mins[sid]:
                mins[sid] = offset
            if sid not in maxs or offset > maxs[sid]:
                maxs[sid] = offset
            offset_hist.setdefault(sid, _TallyCounter())[_log2_bucket(offset)] += 1
            hot.setdefault(sid, _TallyCounter())[offset] += 1
            seen = last_pos.get(sid)
            if seen is not None:
                prev = seen.get(offset)
                if prev is not None:
                    reuse_hist.setdefault(sid, _TallyCounter())[
                        _log2_bucket(pos - prev)
                    ] += 1
                seen[offset] = pos
    report: Dict[str, object] = {"total_events": pos, "structures": {}}
    structures: Dict[str, object] = report["structures"]  # type: ignore[assignment]
    for sid in sorted(counts):
        name = SID_NAMES.get(sid, f"sid{sid}")
        structures[name] = {
            "events": counts[sid],
            "min_offset": mins[sid],
            "max_offset": maxs[sid],
            "distinct_offsets": len(hot[sid]),
            "offset_log2_hist": dict(sorted(offset_hist[sid].items())),
            "top_offsets": hot[sid].most_common(top_n),
            "reuse_log2_hist": dict(sorted(reuse_hist.get(sid, _TallyCounter()).items())),
        }
    return report


def render_access_report(report: Dict[str, object], width: int = 40) -> str:
    """Human-readable rendering of :func:`analyze_access_stream`."""
    out = io.StringIO()
    total = report.get("total_events", 0)
    out.write(f"access stream: {total} events\n")
    structures: Dict[str, Dict[str, object]] = report.get("structures", {})  # type: ignore[assignment]
    for name, info in structures.items():
        out.write(
            f"\n[{name}] {info['events']} events, "
            f"{info['distinct_offsets']} distinct offsets, "
            f"span {info['min_offset']}..{info['max_offset']}\n"
        )
        hist: Dict[int, int] = info["offset_log2_hist"]  # type: ignore[assignment]
        peak = max(hist.values(), default=1)
        out.write("  offset distribution (log2 buckets):\n")
        for bucket, n in hist.items():
            bar = "#" * max(1, round(width * n / peak))
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            out.write(f"    2^{bucket:<2} (~{lo:>8}) {n:>8} {bar}\n")
        top: List[Tuple[int, int]] = info["top_offsets"]  # type: ignore[assignment]
        if top:
            out.write("  hottest offsets:\n")
            for offset, n in top:
                out.write(f"    {offset:>10} x{n}\n")
        reuse: Dict[int, int] = info["reuse_log2_hist"]  # type: ignore[assignment]
        if reuse:
            rpeak = max(reuse.values())
            out.write("  reuse distance (approx, log2 event gap):\n")
            for bucket, n in reuse.items():
                bar = "#" * max(1, round(width * n / rpeak))
                out.write(f"    2^{bucket:<2} {n:>8} {bar}\n")
    return out.getvalue()
