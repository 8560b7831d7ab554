"""Per-structure access profiling: the raw counter seam.

Both kernels (the python reference and the compiled C kernels) account
their memory traffic into **one flat
``array('q')`` of raw aggregates** — ``CdclSolver._profile`` —
allocated only when ``SolverConfig.profile_access`` is on.  The slots
below are the seam contract: the C source mirrors them by index, and
the native wrappers hand the same buffer across the FFI as a single
``from_buffer`` view (no per-access callbacks, no per-event
crossings).

The discipline that keeps solcheck's HOT rules at zero findings and
the search byte-identical: hot loops bump **local** integers and flush
them into the buffer only at exit sites (the same flush-on-exit idiom
``stats.propagations`` uses); nothing on the profiled path reads the
buffer, branches on it, or touches solver state.

Raw slots are *event* counts at natural loop granularity; the
per-structure totals users see (arena words, watch-column entries,
``lit_truth`` subscripts, trail, reasons/levels, heap ops) are derived
from them by the fixed formulas in :func:`structure_counts`.  Counting
conventions, identical in both kernels:

* Watch columns are counted whole at scan start (a conflict abandons
  the remainder of a column, but the column was loaded).
* An "opened" long clause is one whose blocker test failed — the scan
  touched its arena block (header + watched pair); the scan span
  ``end - (base + 2)`` is counted once the first watch is not
  satisfied, whether or not the inner loop breaks early.
* ``lit_truth`` traffic is derived: one read per binary entry, two per
  ternary, one blocker test per long entry, one first-watch test per
  opened clause, one per scanned word, plus two writes per enqueue.
* Native growth re-entries (``NEED_GROW``/``NEED_PEND``/``NEED_ABUF``)
  do not flush their aborted pass, so only the completed pass counts —
  the same totals the pure-Python kernels produce, up to a dropped
  partial column around a mid-scan pool growth.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence

__all__ = [
    "NPROF",
    "PROF_BIN",
    "PROF_TERN",
    "PROF_LONG",
    "PROF_OPEN",
    "PROF_ARENA",
    "PROF_PROPS",
    "PROF_DEQ",
    "PROF_AWORDS",
    "PROF_ATRAIL",
    "PROF_HEAP",
    "STRUCTURES",
    "new_profile_buffer",
    "structure_counts",
]

# Raw aggregate slots (int64).  KEEP IN SYNC with the PROF_* defines in
# repro/sat/kernel/native.py's C source.
PROF_BIN = 0      # binary watch entries scanned
PROF_TERN = 1     # ternary watch entries scanned
PROF_LONG = 2     # long watch entries scanned
PROF_OPEN = 3     # long clauses opened (arena block touched)
PROF_ARENA = 4    # arena words in scanned clause regions
PROF_PROPS = 5    # implications enqueued (trail writes)
PROF_DEQ = 6      # trail literals dequeued by BCP
PROF_AWORDS = 7   # clause words visited by conflict analysis
PROF_ATRAIL = 8   # trail reads by the analysis UIP scan
PROF_HEAP = 9     # decision-heap operations (pops + reinserts)
NPROF = 10

#: Derived per-structure names, in render order.
STRUCTURES = (
    "arena",
    "watch",
    "lit_truth",
    "trail",
    "reasons_levels",
    "heap",
)


def new_profile_buffer() -> "array[int]":
    """A zeroed raw-counter buffer (one per solver, int64 slots)."""
    return array("q", bytes(8 * NPROF))


def structure_counts(raw: Sequence[int]) -> Dict[str, int]:
    """Fold the raw aggregates into per-structure access totals.

    The formulas are the documented counting conventions above; they
    are applied outside the hot path (publish/snapshot time), so the
    profiled loops only ever bump raw locals.
    """
    bin_e = raw[PROF_BIN]
    tern_e = raw[PROF_TERN]
    long_e = raw[PROF_LONG]
    opened = raw[PROF_OPEN]
    arena_w = raw[PROF_ARENA]
    props = raw[PROF_PROPS]
    deq = raw[PROF_DEQ]
    awords = raw[PROF_AWORDS]
    atrail = raw[PROF_ATRAIL]
    heap = raw[PROF_HEAP]
    return {
        # clause-store words: scanned spans + header/watched pair per
        # opened clause + every word analysis resolved over
        "arena": arena_w + 2 * opened + awords,
        # watch-column entries across the three families
        "watch": bin_e + tern_e + long_e,
        # truth-column subscripts (reads per the conventions + the two
        # writes per enqueue)
        "lit_truth": bin_e + 2 * tern_e + long_e + opened + arena_w + 2 * props,
        # trail words: enqueue writes + BCP dequeues + analysis scan
        "trail": props + deq + atrail,
        # reason + level writes per enqueue, level reads per analyzed word
        "reasons_levels": 2 * props + awords,
        "heap": heap,
    }


def profile_as_dict(raw: Sequence[int]) -> Dict[str, int]:
    """Raw slots by name plus the derived structure totals — the shape
    the metrics publisher and the JSON reports use."""
    named: Dict[str, int] = {
        "bin_entries": raw[PROF_BIN],
        "tern_entries": raw[PROF_TERN],
        "long_entries": raw[PROF_LONG],
        "long_opened": raw[PROF_OPEN],
        "arena_scan_words": raw[PROF_ARENA],
        "enqueues": raw[PROF_PROPS],
        "dequeues": raw[PROF_DEQ],
        "analysis_words": raw[PROF_AWORDS],
        "analysis_trail_reads": raw[PROF_ATRAIL],
        "heap_ops": raw[PROF_HEAP],
    }
    named["structures"] = structure_counts(raw)  # type: ignore[assignment]
    return named


def delta(now: Sequence[int], then: Sequence[int]) -> List[int]:
    """Slot-wise ``now - then`` (both NPROF long)."""
    return [now[i] - then[i] for i in range(NPROF)]
