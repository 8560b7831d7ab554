"""Flat per-literal watch columns: the kernels' watch tables.

A C kernel cannot walk Python lists, so each watch table (long, binary,
ternary) is a :class:`WatchColumns`: one pooled ``array('i')`` holding
every literal's entries back to back, addressed by per-literal
``offs``/``size``/``caps`` columns (a CSR layout with per-row headroom).

Entry layouts (32-bit words each)::

    long clauses     [cid, blocker]           2 words
    ternary clauses  [cid, other_a, other_b]  3 words
    binary clauses   [cid, implied]           2 words

Binary entries carry no precomputed ``~implied``/``var`` words:
recomputing them is one int op each, cheaper in both kernels than the
extra subscripts (Python) or memory traffic (C) of reading them back.

Growth discipline: a literal's block holds ``caps[lit]`` entries; an
append into a full block *relocates* it to the pool tail with doubled
capacity (4 entries minimum).  The native kernel's batch append
relocates a literal at most once per batch, to max(double the old
capacity, what the batch needs).  The abandoned block becomes padding.
Because capacities at least double, the total pool size stays within a
small constant factor of the peak live volume — the same amortization
Python lists provide — so no compaction pass is needed.  A constructor
or fork lays its columns out in exactly sized blocks instead (the
native ``fill_columns``).  The pool only ever
grows via :meth:`reserve`, keeping the backing ``array`` object stable
for zero-copy ``ffi.from_buffer`` aliasing by the native kernel, which
caches its views across calls and is told to release them through
:attr:`WatchColumns.on_resize` before any column array resizes.

The mutations — append (attach / watch move), swap-with-last removal
(:meth:`detach`) and order-preserving filtering (:meth:`drop_clauses`)
— are shared by both kernels, so watch-list order, and with it the
search, evolves identically under either.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Set, Tuple


class WatchColumns:
    """One watch table (long, binary or ternary) as flat typed columns."""

    __slots__ = ("words", "offs", "size", "caps", "data", "used", "on_resize")

    def __init__(self, words: int) -> None:
        #: Words per entry (2 long, 2 binary, 3 ternary).
        self.words = words
        #: Per-literal first word offset into ``data``.
        self.offs = array("i")
        #: Per-literal live entry count.
        self.size = array("i")
        #: Per-literal allocated entry capacity.
        self.caps = array("i")
        #: The entry pool; ``used`` words are allocated to blocks.
        self.data = array("i")
        self.used = 0
        #: Called right before any column array resizes — the native
        #: kernel hooks this to drop its cached ``from_buffer`` views
        #: (a resize of an exported buffer would raise BufferError).
        #: None when nothing caches views.
        self.on_resize = None

    # -- sizing ------------------------------------------------------------

    def grow_lits(self, lit_capacity: int) -> None:
        """Extend the per-literal columns to ``lit_capacity`` literals
        (new literals start with no block: off 0, size 0, cap 0)."""
        add = lit_capacity - len(self.offs)
        if add > 0:
            cb = self.on_resize
            if cb is not None:
                cb()
            zeros = array("i", bytes(4 * add))
            self.offs.extend(zeros)
            self.size.extend(zeros)
            self.caps.extend(zeros)

    def reserve(self, words_needed: int) -> None:
        """Grow the pool so at least ``words_needed`` total words exist
        (geometric, so per-word cost is amortized O(1))."""
        have = len(self.data)
        if words_needed > have:
            cb = self.on_resize
            if cb is not None:
                cb()
            target = max(words_needed, 2 * have, 64)
            self.data.frombytes(bytes(4 * (target - have)))

    def _relocate(self, lit: int, sz: int, cap: int) -> int:
        """Move ``lit``'s block to the pool tail with doubled capacity;
        returns the new block offset."""
        words = self.words
        new_cap = cap * 2 if cap else 4
        used = self.used
        need = used + new_cap * words
        if need > len(self.data):
            self.reserve(need)
        if sz:
            data = self.data
            old = self.offs[lit]
            data[used:used + sz * words] = data[old:old + sz * words]
        self.offs[lit] = used
        self.caps[lit] = new_cap
        self.used = need
        return used

    # -- mutations ---------------------------------------------------------

    def append2(self, lit: int, w0: int, w1: int) -> None:
        """Append a 2-word entry (the long-table watch move / attach)."""
        sz = self.size[lit]
        if sz == self.caps[lit]:
            off = self._relocate(lit, sz, self.caps[lit]) + 2 * sz
        else:
            off = self.offs[lit] + 2 * sz
        data = self.data
        data[off] = w0
        data[off + 1] = w1
        self.size[lit] = sz + 1

    def append3(self, lit: int, w0: int, w1: int, w2: int) -> None:
        sz = self.size[lit]
        if sz == self.caps[lit]:
            off = self._relocate(lit, sz, self.caps[lit]) + 3 * sz
        else:
            off = self.offs[lit] + 3 * sz
        data = self.data
        data[off] = w0
        data[off + 1] = w1
        data[off + 2] = w2
        self.size[lit] = sz + 1

    def detach(self, lit: int, cid: int) -> None:
        """Remove the entry watching ``cid`` by swap-with-last (order
        destroying: the last entry takes the removed slot)."""
        words = self.words
        data = self.data
        base = self.offs[lit]
        n = self.size[lit]
        for i in range(n):
            src = base + i * words
            if data[src] == cid:
                last = base + (n - 1) * words
                if src != last:
                    data[src:src + words] = data[last:last + words]
                self.size[lit] = n - 1
                break

    def drop_clauses(self, dropped: Set[int]) -> None:
        """Remove every entry whose clause ID is in ``dropped``,
        preserving survivor order (root-satisfied pruning)."""
        words = self.words
        data = self.data
        offs = self.offs
        size = self.size
        for lit in range(len(offs)):
            n = size[lit]
            if not n:
                continue
            base = offs[lit]
            j = 0
            for i in range(n):
                src = base + i * words
                if data[src] not in dropped:
                    if j != i:
                        dst = base + j * words
                        data[dst:dst + words] = data[src:src + words]
                    j += 1
            if j != n:
                size[lit] = j

    # -- introspection (tests) ---------------------------------------------

    def entries(self, lit: int) -> List[Tuple[int, ...]]:
        """The literal's entries as packed tuples."""
        words = self.words
        data = self.data
        base = self.offs[lit]
        return [
            tuple(data[base + i * words:base + (i + 1) * words])
            for i in range(self.size[lit])
        ]


#: Mirror compaction trigger (words): below this much dead weight the
#: rebuild costs more than the memory it returns.
_MIRROR_COMPACT_MIN_DEAD = 1024


class ClauseLitMirror:
    """Every clause's literals in install order, as flat blocks.

    Conflict analysis iterates each visited clause's literals in
    **install order** — that order decides seen-marking order, hence the
    learned clause, hence the whole search.  The arena block cannot
    serve: long-clause (n >= 4) watch moves permute it in place, and the
    install moves a clause that meets root facts into its watch-ordered
    form.  This class is the one install-order store, for every clause
    length and both kernels: the first-UIP walk (C and Python), the
    level-0 reason closure and learned-clause minimization all read it.
    Propagation never touches it.

    A clause's block is its deduplicated literals in the order they
    were given, written before anything reorders the arena copy: the
    install loops (the native ``install_batch`` and the python kernel's
    ``CdclSolver._install_tuples``) write one per installed clause —
    tautologies and units included — and ``CdclSolver._add_learned``
    appends each learned clause (:meth:`append`).  A fork copies its
    install template's mirror (:meth:`copy_from`).

    Block layout (32-bit words), addressed like the arena::

        ... | n | lit_0 | ... | lit_{n-1} | n | ...
                ^
                refs[cid]

    :meth:`free` drops a deleted clause's block (learned-DB reduction)
    and, once dead words reach half the store, reclaims them by an
    arena-style in-place compaction.  The backing arrays only grow or
    compact between FFI calls, after the native kernel has released its
    views of them.
    """

    __slots__ = ("data", "refs", "dead")

    def __init__(self) -> None:
        #: The literal blocks; ``refs[cid]`` points at the first literal
        #: and ``data[refs[cid] - 1]`` holds the length.
        self.data = array("i")
        #: Per-clause block offset; -1 once freed.
        self.refs = array("q")
        #: Dead words left behind by :meth:`free`.
        self.dead = 0

    def append(self, lits: Sequence[int]) -> None:
        """Add the next clause's block (a learned clause)."""
        data = self.data
        data.append(len(lits))
        self.refs.append(len(data))
        data.extend(lits)

    def copy_from(self, other: "ClauseLitMirror") -> None:
        """Make this empty mirror a copy of ``other`` (a fork copying
        its install template's mirror)."""
        self.data.extend(other.data)
        self.refs.extend(other.refs)
        self.dead = other.dead

    def free(self, cid: int) -> None:
        """Drop a deleted clause's block, compacting once the dead words
        are worth reclaiming."""
        ref = self.refs[cid]
        self.dead += self.data[ref - 1] + 1
        self.refs[cid] = -1
        if (
            self.dead >= _MIRROR_COMPACT_MIN_DEAD
            and 2 * self.dead >= len(self.data)
        ):
            self.compact()

    def compact(self) -> int:
        """Slide live blocks left in place; returns words reclaimed.
        Clause IDs are stable (only ``refs`` is rewritten)."""
        if not self.dead:
            return 0
        data = self.data
        refs = self.refs
        write = 0
        for cid in range(len(refs)):
            ref = refs[cid]
            if ref < 0:
                continue
            n = data[ref - 1]
            src = ref - 1
            if src != write:
                data[write:write + 1 + n] = data[src:src + 1 + n]
            refs[cid] = write + 1
            write += 1 + n
        reclaimed = len(data) - write
        del data[write:]
        self.dead = 0
        return reclaimed

    def entries(self, cid: int) -> Tuple[int, ...]:
        """The clause's literal tuple (white-box test surface); ``()``
        once freed."""
        ref = self.refs[cid]
        if ref < 0:
            return ()
        return tuple(self.data[ref:ref + self.data[ref - 1]])
