"""Flat clause storage: one typed literal arena for the whole solver.

Through PR 3 the solver kept one Python list (or tuple) per clause in a
``List[List[int]]`` — roughly 56 bytes of list header plus 8 bytes of
pointer plus a boxed int per literal, scattered across the heap.  This
module replaces that with the layout hardware and C solvers use (see the
``jake-ke__sst-sat`` watcher-column design the ROADMAP cites): a single
``array('i')`` holding every clause back to back, addressed by
``(offset, length)`` clause references.

Arena block layout (all 32-bit words)::

    ... | flags | length | lit_0 | lit_1 | ... | lit_{n-1} | flags | ...
                          ^
                          refs[cid]

``refs[cid]`` points at the first literal; the two header words sit just
below it (``data[refs[cid] - 1]`` is the length, ``data[refs[cid] - 2]``
the flags word).  Two parallel header *columns* are keyed by clause ID
outside the int arena because their element types differ: ``refs``
(``array('q')`` of literal offsets, ``-1`` once a block is reclaimed)
and ``activity`` (``array('d')`` — the clause-activity bucket; activity
is a float and cannot share the literal arena).  A ``flags`` bytearray
mirrors the in-arena flags word for O(1) access without the offset
indirection.

Flags: ``LEARNED`` marks conflict clauses, ``TOMBSTONE`` marks deleted
ones (the literal block stays until :meth:`compact` reclaims it),
``INACTIVE`` marks clauses that were never attached (tautologies, and
the empty clause once the solver is root-UNSAT).

The word store is an ``array('i')`` — 4 bytes per word, and the layout
the kernels alias zero-copy.  (A Python-list store used to be offered
too; it was faster only under in-solver tuple-table loops that no longer
exist.)

Why flat memory in pure Python: clause *headers* stop costing a Python
object each (PHP(8) after a bounded solve drops from ~1.9 MB of clause
lists to ~0.3 MB of arena words); deletion becomes a flag write plus a
deferred in-place compaction instead of leaving dead lists pinned; and
the representation is what the C kernels need: contiguous int memory.
The hot loops read ``data``/``refs`` directly as locals — the class is
the allocator and bookkeeper, not an abstraction layer in the inner
loop.

Reclamation contract: literal blocks of tombstoned clauses may only be
reclaimed when the solver records no CDG — with a CDG, deleted learned
clauses must remain exportable for proof replay
(:meth:`~repro.sat.solver.CdclSolver.export_proof` and
``clause_literals`` both promise access to deleted clauses).  The
solver passes ``reclaim_literals=False`` in that case and the arena
keeps the blocks, still counting them in :attr:`dead_words` so the
footprint report stays honest.
"""

from __future__ import annotations

from array import array
from typing import ClassVar, Dict, Sequence, Tuple

#: Flag bits of the per-clause header word / flags column.
LEARNED = 1
TOMBSTONE = 2
INACTIVE = 4

#: Words a clause block occupies beyond its literals (flags + length).
HEADER_WORDS = 2

#: Ceiling on the literal store, in words.  Clause offsets ride in
#: 32-bit lanes on the native-kernel side (``refs`` is ``int64`` but
#: the in-arena length/offset arithmetic must stay in ``int`` range),
#: so the store must never grow past ``2**31 - 1`` addressable words.
WORD_LIMIT = 2**31 - 1


class ClauseArenaFullError(MemoryError):
    """The literal store would exceed :data:`WORD_LIMIT` words.

    A clean, catchable signal (``MemoryError`` subclass) raised
    *before* the append happens — the arena is left consistent, and
    the message carries the footprint so the operator can see how big
    the instance got.
    """


class ClauseArena:
    """Allocator and bookkeeper of the flat clause store."""

    __slots__ = ("data", "refs", "flags", "activity", "dead_words")

    data: array[int]
    refs: array[int]
    flags: bytearray
    activity: array[float]
    dead_words: int

    #: Word ceiling enforced by :meth:`add` (class attribute so tests
    #: can lower it without constructing a 2-billion-word store).
    word_limit: ClassVar[int] = WORD_LIMIT

    def __init__(self) -> None:
        self.data = array("i")
        self.refs = array("q")
        self.flags = bytearray()
        self.activity = array("d")
        self.dead_words = 0

    # -- allocation --------------------------------------------------------

    def add(self, lits: Sequence[int], flags: int = 0,
            activity: float = 0.0) -> int:
        """Append a clause block; returns its clause ID.

        Raises :class:`ClauseArenaFullError` (a ``MemoryError``) before
        touching the store when the block would push the word count
        past :attr:`word_limit`.
        """
        cid = len(self.refs)
        data = self.data
        needed = len(data) + HEADER_WORDS + len(lits)
        if needed > self.word_limit:
            raise ClauseArenaFullError(self.full_message(needed))
        data.append(flags)
        data.append(len(lits))
        self.refs.append(len(data))
        if lits:
            data.extend(lits)
        self.flags.append(flags)
        self.activity.append(activity)
        return cid

    def full_message(self, needed: int) -> str:
        """The :class:`ClauseArenaFullError` message for a store that
        would need ``needed`` words.  Public so bulk writers that
        bypass :meth:`add` (the solver's install loop) can raise the
        identical error."""
        fp = self.footprint()
        return (
            f"clause arena full: storing this clause needs {needed} words "
            f"but the arena is capped at {self.word_limit} "
            f"(current footprint: {fp['literal_words']} words in "
            f"{int(fp['clauses'])} clauses, {int(fp['bytes'])} bytes)"
        )

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.refs)

    def length(self, cid: int) -> int:
        base = self.refs[cid]
        if base < 0:
            return 0
        return self.data[base - 1]

    def literals(self, cid: int) -> Tuple[int, ...]:
        """The clause's literal tuple (tombstoned clauses included, as
        long as their block has not been reclaimed)."""
        base = self.refs[cid]
        if base < 0:
            raise ValueError(
                f"clause {cid} literals were reclaimed by arena compaction "
                f"(only possible without CDG recording)"
            )
        return tuple(self.data[base:base + self.data[base - 1]])

    def is_learned(self, cid: int) -> bool:
        return bool(self.flags[cid] & LEARNED)

    def is_tombstone(self, cid: int) -> bool:
        return bool(self.flags[cid] & TOMBSTONE)

    def is_inactive(self, cid: int) -> bool:
        return bool(self.flags[cid] & INACTIVE)

    # -- state transitions -------------------------------------------------

    def set_flag(self, cid: int, bit: int) -> None:
        """Raise a flag bit in both the column and the in-arena word."""
        self.flags[cid] |= bit
        base = self.refs[cid]
        if base >= 0:
            self.data[base - 2] |= bit

    def tombstone(self, cid: int) -> None:
        """Mark a clause deleted; its block becomes dead weight until
        :meth:`compact` runs (or forever, when literals are pinned)."""
        if not self.flags[cid] & TOMBSTONE:
            self.set_flag(cid, TOMBSTONE)
            base = self.refs[cid]
            if base >= 0:
                self.dead_words += HEADER_WORDS + self.data[base - 1]

    # -- compaction --------------------------------------------------------

    def compact(self) -> int:
        """Reclaim tombstoned blocks by sliding live ones left, in place.

        Clause IDs are stable (watch entries, CDG entries and proofs key
        on the ID, never the offset), so compaction only rewrites
        ``refs``.  Returns the number of words reclaimed.  Callers must
        ensure no tombstoned clause is still referenced as a reason
        (the solver's deletion policy guarantees it: locked clauses are
        never tombstoned).
        """
        if not self.dead_words:
            return 0
        data = self.data
        refs = self.refs
        flags = self.flags
        write = 0
        for cid in range(len(refs)):
            base = refs[cid]
            if base < 0:
                continue
            n = data[base - 1]
            if flags[cid] & TOMBSTONE:
                refs[cid] = -1
                continue
            src = base - HEADER_WORDS
            if src != write:
                data[write:write + HEADER_WORDS + n] = (
                    data[src:src + HEADER_WORDS + n]
                )
            refs[cid] = write + HEADER_WORDS
            write += HEADER_WORDS + n
        reclaimed = len(data) - write
        del data[write:]
        self.dead_words = 0
        return reclaimed

    # -- reporting ---------------------------------------------------------

    def footprint(self) -> Dict[str, float]:
        """Memory accounting for the benchmark harness.

        ``bytes`` counts the word store plus the header columns.
        """
        total = len(self.data)
        word_bytes = self.data.itemsize
        return {
            "literal_words": total,
            "dead_words": self.dead_words,
            "tombstone_ratio": (self.dead_words / total) if total else 0.0,
            "clauses": len(self.refs),
            "bytes": (
                total * word_bytes
                + len(self.refs) * 8
                + len(self.activity) * self.activity.itemsize
                + len(self.flags)
            ),
        }
