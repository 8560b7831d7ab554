"""The kernel seam: what a data-plane kernel owes the solver.

A *kernel* owns the watch state (three :class:`~repro.sat.kernel
.columns.WatchColumns`) and the install-order literal mirror, and runs
the solver's two data-plane loops — boolean constraint propagation and
the first-UIP resolution walk — over its flat typed state:
``lit_truth``/``_seen`` (``bytearray``), ``_levels``/``_reasons``/
``_trail``/``_trail_lim`` (``array('i')``), ``_saved_phase``
(``array('b')``) and the compact
:class:`~repro.sat.arena.ClauseArena` word store, all aliased, never
copied.  The native kernel also makes the decisions that are plain
pops of the strategy's decision heap, and backtracks.  Everything else
— every other decision, restarts, learned-DB reduction, the analysis
tail (bump replay, minimization, LBD, the level-0 closure), proofs,
CDG, strategies — stays in ``CdclSolver`` and talks to the kernel only
through this seam:

``search_step(num_assumptions, budget=0) -> (conflict, analysis_or_None)``
    The one hot call.  Exhaust the implication queue from
    ``solver._qhead``: assign implied literals (truth/levels/reasons/
    trail), advance ``solver._qhead``/``solver._trail_len`` and add the
    propagation count to ``solver.stats``.  Then, while ``budget``
    allows, the trail is not full and the bound decision heap (see
    ``bind_decisions``) has an unassigned variable, make the next
    decision exactly as ``CdclSolver._search``'s decision branch would
    — pop, phase policy, open a level in ``_trail_lim``, assign — and
    propagate again; ``solver._decision_level``,
    ``stats.decisions``/``max_decision_level`` and the strategy
    (``on_popped``) are brought up to date.  Stop at the first
    conflict.  ``conflict`` is the conflicting clause ID or -1.  When a
    conflict lands above the assumption prefix (``decision_level >
    num_assumptions``), run first-UIP from it before returning;
    ``analysis`` is then the pair ``(learned, antecedents)``:

    * ``learned`` is the raw (pre-minimization) clause with the
      asserting literal at position 0, remaining literals in discovery
      order;
    * ``antecedents`` is the ordered resolvent list —
      ``antecedents[0]`` the conflict clause, then each reason clause
      in resolution order (the CDG/proof derivation prefix, and the
      bump-replay worklist: the solver bumps exactly
      ``antecedents[1:]`` in this order);
    * the solver's ``_seen`` marks are LEFT SET, with the marked
      variables appended to ``solver._touched_scratch`` and the level-0
      subset to ``solver._zero_scratch`` (discovery order) —
      minimization and the reason closure consume the marks, and
      ``_finish_analysis`` clears them.

    ``analysis`` is None when there is no conflict, or when the level
    mandates a terminal Python path (level-0 UNSAT, assumption-prefix
    conflicts), which leaves ``_seen`` and the scratch lists untouched.

    The budget rule: the solver passes 0 — one propagation, and the
    next decision made by its own decision branch — whenever anything
    but a heap pop is due before the next decision: a restart, a
    learned-DB reduction, an assumption level, the ``max_decisions``
    cap, the dynamic ranked strategy's switch, a strategy whose
    ``decide()`` is more than a pop (``pop_budget() == 0``), or an
    attached observer or access profile.  All of these change only on
    a conflict or at such a budget point, so otherwise it passes the
    number of decisions up to the next point.  The python kernel
    takes no decisions (``decides`` is False) and is the reference.

``bind_decisions(heap)`` / ``backtrack(limit)``
    ``bind_decisions`` binds the strategy's decision heap for one
    search (None unbinds).  ``backtrack`` unassigns
    ``trail[limit:_trail_len]``, saves each variable's polarity in
    ``_saved_phase`` and re-inserts the variables into the decision
    heap — through the strategy's ``on_unassigned``, or, on the native
    kernel with a heap bound, in the same C call; the solver rewinds
    ``_trail_len``/``_qhead``/the level itself.

``attach(cid, lits)`` / ``attach_all(...)`` / ``detach(cid)`` /
``drop_clauses(dropped)``
    The watch bookkeeping hooks: clause install (one clause, or one
    install batch — a constructor's whole formula or an
    ``add_clauses`` batch — at once), single-clause detach
    (swap-with-last, learned-DB reduction) and bulk order-preserving
    removal (root-satisfied pruning).  Watch-list order is part of
    search behaviour, so both kernels share these operations verbatim
    — which also guarantees byte-identical watch entries (the native
    kernel defers its in-scan appends through the same doubling
    policy).  The one override is the native :meth:`attach_all`, which
    lays the same entries out in C: exactly sized blocks in empty
    columns, appends after the existing entries in live ones.

``install_batch(run, count_literals)`` / ``check_words(words, lo, hi,
limit)``
    Clause install over a :class:`~repro.cnf.formula.ClauseRun`'s flat
    ``[n, lit …]`` words.  ``install_batch`` is None on the python
    kernel, whose installs run the solver's reference loop over the
    run's tuples (``CdclSolver._install_tuples``); the native kernel
    runs the same loop in C, handing back the few clauses that need
    Python state (see :mod:`repro.sat.kernel.native`).
    ``check_words`` (shared by both kernels) returns the word index of
    the first literal outside ``[0, limit)``, or -1 — the literal check
    a public install batch passes before anything changes.

``grow(lit_capacity)``
    Called from ``ensure_num_vars`` when the literal space grows.

``mirror``
    The install-order literal store
    (:class:`~repro.sat.kernel.columns.ClauseLitMirror`), one block per
    clause of every length: analysis iterates clause literals in
    install order, which the arena does not keep.  The install loops
    write it, the solver appends learned clauses and frees deleted
    ones, and both kernels' first-UIP walks read it.

``invalidate_views()`` / ``invalidate_arena_views()``
    Release FFI views cached across ``search_step`` calls (no-ops for
    the pure-Python kernel); see :meth:`KernelBase.invalidate_views`.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.sat.activity_heap import VariableActivityHeap
from repro.sat.kernel.columns import ClauseLitMirror, WatchColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sat.solver import CdclSolver


class KernelBase:
    """Watch-state and mirror owner shared by both kernels; subclasses
    implement :meth:`search_step`."""

    #: Config value selecting this kernel (subclasses override).
    name = "base"

    #: The decision heap the heap strategies build at ``attach``:
    #: Python's ``heapq`` here, the C ``vheap`` on the native kernel.
    heap_class = VariableActivityHeap

    #: Whether :meth:`search_step` makes heap decisions (a nonzero
    #: ``budget``); False here, where the solver decides every time.
    decides = False

    def __init__(self, solver: "CdclSolver") -> None:
        # Weak on purpose: the solver holds its kernel, so a strong
        # reference back would put every solver in a reference cycle
        # and leave its watch columns, arena and trail to the cyclic
        # garbage collector instead of freeing them with the solver.
        self._solver_ref = weakref.ref(solver)
        self.long = WatchColumns(2)
        self.bin = WatchColumns(2)
        self.tern = WatchColumns(3)
        self.mirror = ClauseLitMirror()

    @property
    def solver(self) -> "CdclSolver":
        return self._solver_ref()

    # -- sizing ------------------------------------------------------------

    def grow(self, lit_capacity: int) -> None:
        self.long.grow_lits(lit_capacity)
        self.bin.grow_lits(lit_capacity)
        self.tern.grow_lits(lit_capacity)

    # -- clause install ------------------------------------------------------

    #: The native kernel's C install (a generator method); None here,
    #: where the solver's reference loop installs.
    install_batch = None

    def check_words(self, words: "array[int]", lo: int, hi: int, limit: int) -> int:
        """Word index of the first literal in the ``[n, lit …]`` blocks
        of ``words[lo:hi]`` that lies outside ``[0, limit)``, or -1."""
        span = words[lo:hi]
        if not span or (min(span) >= 0 and max(span) < limit):
            return -1
        pos = lo
        while pos < hi:
            end = pos + 1 + words[pos]
            for at in range(pos + 1, end):
                lit = words[at]
                if lit < 0 or lit >= limit:
                    return at
            pos = end
        return -1

    # -- watch bookkeeping (not hot) ---------------------------------------

    def attach(self, cid: int, lits: Sequence[int]) -> None:
        n = len(lits)
        if n == 2:
            a, b = lits
            self.bin.append2(a, cid, b)
            self.bin.append2(b, cid, a)
        elif n == 3:
            a, b, c = lits
            self.tern.append3(a, cid, b, c)
            self.tern.append3(b, cid, a, c)
            self.tern.append3(c, cid, a, b)
        else:
            a, b = lits[0], lits[1]
            self.long.append2(a, cid, b)
            self.long.append2(b, cid, a)

    def attach_all(
        self, bin_ids: Sequence[int], tern_ids: Sequence[int],
        long_ids: Sequence[int],
    ) -> None:
        """Bulk install: watch the binary, ternary and long clauses
        ``*_ids`` (each list in clause order), reading each clause's
        watch-ordered literals from the arena.  The tables may be empty
        (a constructor's install) or live (an ``add_clauses`` batch):
        each literal's new entries follow its existing ones in exactly
        the order of one :meth:`attach` per clause in clause order,
        which is what this per-clause loop does; the native kernel lays
        the same entries out in C."""
        literals = self.solver._arena.literals
        attach = self.attach
        for ids in (bin_ids, tern_ids, long_ids):
            for cid in ids:
                attach(cid, literals(cid))

    def detach(self, cid: int) -> None:
        arena = self.solver._arena
        adata = arena.data
        base = arena.refs[cid]
        n = adata[base - 1]
        if n == 2:
            self.bin.detach(adata[base], cid)
            self.bin.detach(adata[base + 1], cid)
        elif n == 3:
            self.tern.detach(adata[base], cid)
            self.tern.detach(adata[base + 1], cid)
            self.tern.detach(adata[base + 2], cid)
        else:
            self.long.detach(adata[base], cid)
            self.long.detach(adata[base + 1], cid)

    def drop_clauses(self, dropped: Set[int]) -> None:
        self.long.drop_clauses(dropped)
        self.bin.drop_clauses(dropped)
        self.tern.drop_clauses(dropped)

    # -- cached FFI views (no-ops for the pure-Python kernel) --------------

    def invalidate_views(self) -> None:
        """Release any FFI views cached across ``search_step`` calls.

        The solver calls this before every operation that can resize a
        kernel-viewed array (clause install, learned-DB reduction /
        arena compaction) and at ``solve()`` teardown; the native
        kernel releases its cached ``from_buffer`` exports so the
        resize does not hit a pinned buffer.  Safety is fail-loud
        either way: a missed invalidation raises ``BufferError`` at the
        resize site (cffi keeps the buffer exported), never silent
        corruption.
        """

    def invalidate_arena_views(self) -> None:
        """Soft variant of :meth:`invalidate_views` for the per-conflict
        resizes (the arena and mirror appends in ``_add_learned``): the
        native kernel drops only the arena and mirror exports and keeps
        the other cached views alive.  Watch-pool growth during the
        attach is covered separately (``WatchColumns.on_resize``).
        """

    # -- the hot seam ------------------------------------------------------

    def search_step(
        self, num_assumptions: int, budget: int = 0
    ) -> Tuple[int, Optional[Tuple[List[int], List[int]]]]:
        raise NotImplementedError

    def bind_decisions(self, heap: "Optional[object]") -> None:
        """Bind the search's decision heap (None unbinds); only a
        kernel that :attr:`decides` uses it."""

    def backtrack(self, limit: int) -> None:  # solcheck: hot
        """Unassign ``trail[limit:_trail_len]``: save each variable's
        polarity, reset its truth, and hand the undone literals to the
        strategy's ``on_unassigned`` (the reference loop; the native
        kernel runs it in C)."""
        solver = self.solver
        truth = solver.lit_truth
        saved = solver._saved_phase
        undone = solver._trail[limit:solver._trail_len]
        for lit in undone:
            saved[lit >> 1] = 1 ^ (lit & 1)
            truth[lit] = 2
            truth[lit ^ 1] = 2
        solver.strategy.on_unassigned(undone)

    # -- introspection -----------------------------------------------------

    def watch_snapshot(self) -> Dict[str, List[List[Tuple[int, ...]]]]:
        """Per-literal entry tuples of the three tables — the white-box
        surface the cross-kernel watch tests compare."""
        num_lits = 2 * self.solver.num_vars
        return {
            "long": [self.long.entries(lit) for lit in range(num_lits)],
            "bin": [self.bin.entries(lit) for lit in range(num_lits)],
            "tern": [self.tern.entries(lit) for lit in range(num_lits)],
        }
