"""Lazy-deletion ``heapq`` heap over variable activity (the decision engine).

Every decision pops the maximum unassigned variable under the strategy's
ordering, and every periodic score update re-keys the literals that
appeared in learned clauses.  This module keeps that ordering in a
standard-library :mod:`heapq` min-heap, in the style of MiniSat's
``order_heap`` (Eén and Sörensson, SAT 2003).  It is the python
kernel's heap and the reference for the native kernel's
:class:`~repro.sat.kernel.native.NativeActivityHeap`, which keeps the
same protocol and pop order in a C indexed heap over the same key
arrays; strategies build whichever their solver's kernel names
(``KernelBase.heap_class``).

Ordering.  The strategies order literals by ``(rank, score)``
descending, ties broken toward the lower literal index, where ``rank``
is a per-*variable* key (the paper's ``bmc_score``; zero under plain
VSIDS) and ``score`` a per-*literal* one (the scaled ``cha_score``).
The heap holds one entry per member variable, for its better polarity
``lit`` (the higher score; the positive literal on a tie)::

    (-rank[var], -score[lit], lit)

``heapq``'s minimum of these tuples is exactly the maximum of
``(rank, score, -lit)``, the order a stable sort over all ``2n``
literals scans first.  The literal makes every key unique, so ``pop``
returns the same variable whatever the array layout — which is what
lets the heap be re-laid out (bulk rebuilds, compaction) without
changing the search.

Lazy deletion.  Instead of a position index, ``cur[var]`` holds the
variable's live entry (``None`` for non-members).  Re-keying a member
pushes a fresh entry and repoints ``cur``; the old tuple stays in the
array as a *stale* entry, recognised by ``cur[var] is not entry`` and
skipped when it surfaces in ``pop``.  Once stale entries outnumber the
live ones (plus a small slack), the array is compacted: the live
entries are exactly ``filter(None, cur)``, re-heapified in C.  The raw
array therefore never exceeds ``2 * len(heap) + _SLACK`` entries.

Bulk builds.  :meth:`rebuild` (every ``solve()`` attach) and
:meth:`refresh` (after a key swap or rescaling) build all entries in
one comprehension over zipped slices — even and odd score slices, the
per-variable rank, a per-variable membership flag — then
``filter(None, …)`` and ``heapify``.  No Python method runs per
variable, but each member costs one tuple.

Protocol with the strategies:

* :meth:`rebuild` takes the solver's ``lit_truth`` and
  :meth:`pop_unassigned` reads it until :meth:`release` (the
  strategy's ``detach``);
* variables that BCP assigns while in the heap linger;
  :meth:`pop_unassigned` discards them on its way to the maximum
  unassigned one (root facts are discarded the same way);
* a popped variable leaves the heap; on backtrack the strategy passes
  the undone trail literals to :meth:`reinsert`, which filters out the
  still-present majority in one comprehension and pushes the rest;
* after changing a member's score the caller calls :meth:`increase`
  (or :meth:`update`) for that literal; after replacing or uniformly
  rescaling the keys it calls :meth:`refresh`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import neg
from typing import List, Optional, Sequence

#: Stale entries tolerated beyond the live count before compaction, so
#: small heaps do not compact on every other re-key.
_SLACK = 64


class VariableActivityHeap:
    """Max-order heap of variables keyed by ``(rank, score, -lit)``."""

    __slots__ = ("_score", "_nrank", "_heap", "_cur", "_size", "_truth")

    def __init__(
        self,
        score_by_lit: Sequence[float],
        rank_by_var: Optional[Sequence[float]] = None,
    ) -> None:
        self._heap: List[tuple] = []
        self._cur: List[Optional[tuple]] = [None] * (len(score_by_lit) // 2)
        self._size = 0
        self._truth: Optional[Sequence[int]] = None
        self.set_keys(score_by_lit, rank_by_var)

    def set_keys(
        self,
        score_by_lit: Sequence[float],
        rank_by_var: Optional[Sequence[float]] = None,
    ) -> None:
        """Install new keys; call :meth:`refresh` or :meth:`rebuild`
        afterwards to re-key the members.  The score array is shared
        (callers grow it in place and report changes); the ranks are
        copied, negated, once."""
        self._score = score_by_lit
        num_vars = len(score_by_lit) // 2
        if rank_by_var is None:
            self._nrank: List[float] = [0.0] * num_vars
        else:
            if len(rank_by_var) != num_vars:
                raise ValueError("rank_by_var must have one entry per variable")
            self._nrank = list(map(neg, rank_by_var))

    # -- bulk (re)construction ---------------------------------------------

    def _build(self, free: Sequence[int]) -> None:
        """Make the variables whose ``free`` entry is 2 the members,
        keyed under the current keys."""
        score = self._score
        cur = [
            ((nr, -sb, a + 1) if sb > sa else (nr, -sa, a)) if f == 2 else None
            for f, a, sa, sb, nr in zip(
                free, range(0, len(score), 2), score[0::2], score[1::2],
                self._nrank,
            )
        ]
        heap = list(filter(None, cur))
        heapify(heap)
        self._cur = cur
        self._heap = heap
        self._size = len(heap)

    def rebuild(self, lit_truth: Sequence[int]) -> None:
        """Reset membership to the unassigned variables (those whose
        positive literal's truth is 2), and keep ``lit_truth`` for
        :meth:`pop_unassigned` until :meth:`release`."""
        self._truth = lit_truth
        self._build(lit_truth[0::2])

    def release(self) -> None:
        """Drop the ``lit_truth`` reference :meth:`rebuild` kept."""
        self._truth = None

    def refresh(self) -> None:
        """Re-key every member after :meth:`set_keys` or an
        order-preserving rescaling of the score array."""
        self._build([0 if entry is None else 2 for entry in self._cur])

    def _compact(self) -> None:
        heap = list(filter(None, self._cur))
        heapify(heap)
        self._heap = heap

    # -- core operations ----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, var: int) -> bool:
        return self._cur[var] is not None

    def _entry(self, var: int) -> tuple:
        score = self._score
        a = var + var
        sa = score[a]
        sb = score[a + 1]
        # Strict >: on equal scores the positive (lower) literal wins.
        if sb > sa:
            return (self._nrank[var], -sb, a + 1)
        return (self._nrank[var], -sa, a)

    def push(self, var: int) -> None:
        """Insert a variable; no-op if it is already present."""
        cur = self._cur
        if cur[var] is not None:
            return
        entry = cur[var] = self._entry(var)
        heappush(self._heap, entry)
        self._size += 1

    def reinsert(self, trail_literals: Sequence[int]) -> None:  # solcheck: hot
        """Re-insert the variables of freshly unassigned trail literals.

        The backtrack hot path: most of these variables were assigned by
        BCP and never popped, so they are still present — filter first
        (one list comprehension over ``cur``), then push only the
        genuinely missing ones.
        """
        cur = self._cur
        missing = [lit >> 1 for lit in trail_literals if cur[lit >> 1] is None]
        if not missing:
            return
        heap = self._heap
        entry = self._entry
        push = heappush
        for var in missing:
            e = cur[var] = entry(var)
            push(heap, e)
        self._size += len(missing)

    def pop(self) -> int:  # solcheck: hot
        """Remove the maximum variable; returns its best *literal*, or -1
        if the heap is empty."""
        heap = self._heap
        cur = self._cur
        pop_min = heappop
        while heap:
            entry = pop_min(heap)
            lit = entry[2]
            if cur[lit >> 1] is entry:
                cur[lit >> 1] = None
                self._size -= 1
                if len(heap) > self._size + self._size + _SLACK:
                    self._compact()
                return lit
        return -1

    def pop_unassigned(self) -> int:  # solcheck: hot
        """Pop until a member whose literal is unassigned in the
        ``lit_truth`` of the last :meth:`rebuild` (assigned ones leave
        the heap on the way, root facts included); -1 if none is
        left."""
        heap = self._heap
        cur = self._cur
        truth = self._truth
        pop_min = heappop
        size = self._size
        while heap:
            entry = pop_min(heap)
            lit = entry[2]
            if cur[lit >> 1] is entry:
                cur[lit >> 1] = None
                size -= 1
                if truth[lit] == 2:
                    break
        else:
            lit = -1
        self._size = size
        if len(heap) > size + size + _SLACK:
            self._compact()
        return lit

    def increase(self, lit: int) -> None:  # solcheck: hot
        """Re-key the literal's variable after its score changed: push a
        fresh entry, leaving the old one stale.  A no-op for
        non-members and when the variable's entry is unchanged (the
        other polarity still wins)."""
        var = lit >> 1
        cur = self._cur
        old = cur[var]
        if old is None:
            return
        entry = self._entry(var)
        if entry == old:
            return
        cur[var] = entry
        heap = self._heap
        heappush(heap, entry)
        if len(heap) > self._size + self._size + _SLACK:
            self._compact()

    #: Lazy deletion makes any re-key a push, whichever way the key moved.
    update = increase

    # -- introspection (tests) ----------------------------------------------

    def check_invariant(self) -> bool:
        """True iff the array is a valid ``heapq`` heap, every member's
        live entry is in it and matches the current keys, the member
        count is ``len(self)``, and stale entries are within the
        compaction bound; used by the property tests."""
        heap = self._heap
        cur = self._cur
        for i in range(1, len(heap)):
            if heap[i] < heap[(i - 1) >> 1]:
                return False
        in_heap = {id(e) for e in heap}
        members = 0
        for var, entry in enumerate(cur):
            if entry is None:
                continue
            members += 1
            if entry[2] >> 1 != var or id(entry) not in in_heap:
                return False
            if entry != self._entry(var):
                return False
        if members != self._size:
            return False
        return len(heap) <= 2 * members + _SLACK
