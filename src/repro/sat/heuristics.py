"""Decision-ordering strategies (paper §3.3).

The solver is strategy-agnostic: it calls ``decide()`` for the next branch
literal and reports conflicts/backtracks.  Three orderings matter for the
paper:

* :class:`VsidsStrategy` — Chaff's VSIDS, with the exact update rule the
  paper quotes: every literal ``l`` holds ``cha_score(l)``, initialised to
  its literal count in the CNF and periodically updated as
  ``cha_score(l) = cha_score(l) / 2 + new_lit_counts(l)``.
* :class:`RankedStrategy` (static) — the paper's refined ordering: sort
  primarily by the pre-computed per-variable ``bmc_score``, with
  ``cha_score`` only as a tiebreaker, for the whole solve.
* :class:`RankedStrategy` (dynamic) — same initial ordering, but falls
  back to pure VSIDS as soon as the number of decisions exceeds
  ``1/64`` of the number of original literals (a sign the prediction is
  inaccurate and the instance is hard).

Decision engine
---------------

All production strategies share one heap over variable activity, the
one their solver's kernel names (``KernelBase.heap_class``): the
``heapq`` heap :class:`repro.sat.activity_heap.VariableActivityHeap`
on the python kernel, the C indexed heap
:class:`repro.sat.kernel.native.NativeActivityHeap` on the native
one, with the same protocol and pop order.  ``decide()`` is one heap
call, :meth:`pop_unassigned`, which pops the maximum unassigned
variable, keyed by its better polarity, and the strategy branches on
that literal; the periodic score update re-keys only the literals
that appeared in learned clauses — there is no full rebuild, neither
a sort nor a scan, inside a search.  A strategy states
its paper ordering as two keys: an optional per-*variable* rank (the
``bmc_score``; :class:`RankedStrategy` is its only user) over the
per-*literal* scaled ``cha_score``, with ties breaking toward the lower
literal index.  The heap's order is therefore *identical* to the
stable-sorted scan order the pre-heap implementation used.

Each ``solve()`` builds the heap in bulk at :meth:`attach` from the
truth array: on the native kernel one O(n) C call over the score and
rank arrays, read in place, with no Python object per variable; on
the python kernel one comprehension over their slices, then
``heapify``.  The keys are ``array('d')`` buffers so the C heap can
view them.  :class:`RankedStrategy` writes its sparse ``var_rank``
into a zeroed array, O(|rank|).

The heap's score array holds ``cha_score * 2^u`` (``u`` = number of
periodic updates so far).  Under the paper's rule
``s' = s/2 + new_counts`` the scaled score only *grows*:
``K' = K + new_counts * 2^(u+1)``, so a periodic update is a handful of
O(log n) increase-key operations instead of touching all ``2n``
literals.  Powers of two are exact in binary floating point, so the
scaled comparison is bit-for-bit the comparison of the paper's scores;
when the scale factor threatens the float range (once per ~84k
conflicts) the array is renormalised in place, which preserves the
order exactly.

The pre-heap machinery — a periodically re-sorted literal list scanned
with a moving pointer — lives on as a test oracle
(``tests/sat/scan_order.py``): the differential fuzzing suite
cross-checks heap and scan-order searches on thousands of instances.

Protocol note: the solver tells strategies which literals a backtrack
unassigned (:meth:`DecisionStrategy.on_unassigned`) so heap strategies
can re-insert popped variables.  A heap strategy also names its heap
(:meth:`DecisionStrategy.decision_heap`): the native kernel then does
the re-insert itself, in its C backtrack, and makes the decisions
:meth:`DecisionStrategy.pop_budget` declares plain pops inside its
search step, reporting them through :meth:`DecisionStrategy.on_popped`
(VSIDS always; the ranked orderings up to the dynamic switch; BerkMin
never, since its ``decide()`` scans recent clauses first).  A strategy
is bound to its solver only for the length of one ``solve()`` call
(:meth:`DecisionStrategy.attach` at search entry,
:meth:`DecisionStrategy.detach` at exit), so strategy and solver never
form a reference cycle.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from array import array
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sat.activity_heap import VariableActivityHeap
    from repro.sat.solver import CdclSolver

#: How many conflicts between two score halvings / order rebuilds.
#: Chaff used an update period of this order; the paper just says
#: "periodically".
DEFAULT_UPDATE_PERIOD = 256

#: Scaled-score magnitude that triggers an in-place renormalisation of
#: the heap key array (see the module docstring).  2^333 < 1e101, so
#: renormalising here keeps every ``K + c * 2^(u+1)`` exact.
_KEY_RESCALE_LIMIT = 1e100

#: :meth:`DecisionStrategy.pop_budget` for "no limit of my own" (the
#: largest value the native kernel's ``int32`` budget slot holds).
NO_POP_LIMIT = 2**31 - 1


class DecisionStrategy(ABC):
    """Interface between the CDCL solver and a decision ordering."""

    name = "abstract"

    #: Opt-in warm re-attachment: when True and :meth:`attach` re-binds
    #: the *same* solver (a repeated ``solve()`` call), activity state
    #: accumulated in earlier calls is kept instead of re-seeded from
    #: the original literal counts.  The portfolio's deterministic
    #: epoch slicing runs many budgeted solves on one solver; cold
    #: re-seeding every epoch threw the search back to its starting
    #: ordering each time (measured: PHP(8) epoch-sliced at 1024
    #: conflicts/epoch needs ~78k conflicts cold vs ~7k warm).  Off by
    #: default — single-shot behaviour and the scan-order reference
    #: equivalence are bit-for-bit unchanged.
    persist_activity = False

    def __init__(self) -> None:
        self._solver: Optional["CdclSolver"] = None
        # Weak reference to the solver of the last detach: lets a warm
        # re-attach recognise the same solver without keeping it alive
        # (a dead reference never matches a newer solver, even one that
        # reuses the freed one's address).
        self._detached_from: Optional["weakref.ref[CdclSolver]"] = None

    def attach(self, solver: "CdclSolver") -> None:
        """Bind to a solver at the start of one search.

        The solver calls this at every :meth:`CdclSolver.solve` entry
        that reaches the search loop, and :meth:`detach` when that call
        returns, so a strategy references its solver only while a
        ``solve()`` runs.  The solver owns the strategy, so a binding
        kept past ``solve()`` would be a reference cycle, leaving every
        finished solver to the cyclic garbage collector.
        """
        self._solver = solver

    def detach(self) -> None:
        """Release the solver bound by :meth:`attach` (solve() exit)."""
        solver = self._solver
        if solver is not None:
            self._detached_from = weakref.ref(solver)
            self._solver = None

    def _rebinds(self, solver: "CdclSolver") -> bool:
        """True when ``solver`` is the one this strategy is (or was
        last) bound to — the warm re-attach test."""
        if self._solver is not None:
            return self._solver is solver
        ref = self._detached_from
        return ref is not None and ref() is solver

    @abstractmethod
    def decide(self) -> int:
        """Next branch literal (packed), or ``-1`` if every variable is
        assigned (the formula is satisfied)."""

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        """Called after each conflict with the learned clause's literals."""

    def on_backtrack(self) -> None:
        """Called whenever the solver undoes assignments (incl. restarts)."""

    def on_unassigned(self, literals: Sequence[int]) -> None:
        """Called by the solver's backtrack with the trail literals being
        undone (heap strategies re-insert their variables; the default —
        and every scan strategy — ignores it)."""

    # -- in-kernel decisions (see repro.sat.kernel.base) -------------------

    def decision_heap(self) -> "Optional[VariableActivityHeap]":
        """The heap :meth:`on_unassigned` re-inserts into, when that is
        all it does, or None.  A kernel holding it re-inserts
        backtracked variables itself and skips :meth:`on_unassigned`."""
        return None

    def pop_budget(self) -> int:
        """How many of the next decisions are plain pops of
        :meth:`decision_heap` — nothing counted, switched or chosen
        otherwise — so a kernel may make them itself and report them
        through :meth:`on_popped`.  0, the default, sends every decision
        through :meth:`decide`; :data:`NO_POP_LIMIT` means no limit."""
        return 0

    def on_popped(self, count: int) -> None:
        """Account for ``count`` decisions a kernel popped from
        :meth:`decision_heap` in place of :meth:`decide`."""


class _HeapOrderStrategy(DecisionStrategy):
    """Shared heap mechanics: scaled activity keys + the activity heap
    (see the module docstring for the ordering and exactness argument)."""

    def __init__(self, update_period: int = DEFAULT_UPDATE_PERIOD) -> None:
        super().__init__()
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self._update_period = update_period
        self._kscore: "array[float]" = array("d")
        self._kinc = 1.0  # 2^u, the current score scale factor
        # The paper's new_lit_counts, for the literals bumped since the
        # last update only, in first-bump order (the order the periodic
        # update re-keys them in).
        self._new_counts: Dict[int, int] = {}
        self._heap: Optional[VariableActivityHeap] = None
        self._conflicts_since_update = 0

    def attach(self, solver: "CdclSolver") -> None:
        if (
            self.persist_activity
            and self._rebinds(solver)
            and self._heap is not None
            and len(self._kscore) == 2 * solver.num_vars
        ):
            # Warm re-attach (persist_activity): keep the accumulated
            # scores/scale/pending bumps; only the heap membership must
            # be rebuilt (assignments changed since the last detach),
            # under the keys re-installed — subclasses may have rebuilt
            # theirs (ranked keys) against the same solver.
            self._solver = solver
            self._heap.set_keys(self._kscore, self._rank_by_var())
            self._heap.rebuild(solver.lit_truth)
            return
        super().attach(solver)
        # Keys MUST be floats: the scaled-score scheme is defined to
        # round exactly as the paper's halved float cha_score does
        # (beyond ~53 periodic updates the low-order contributions are
        # deliberately absorbed — exact integer sums would tie-break
        # differently from the scan-order reference on long runs).
        self._kscore = solver.original_literal_keys()
        self._kinc = 1.0
        self._new_counts = {}
        # _conflicts_since_update deliberately persists across attaches,
        # matching the scan-order reference (fresh scores, but the decay
        # countdown carries over between solve() calls on one solver).
        self._heap = solver._kernel.heap_class(
            self._kscore, self._rank_by_var()
        )
        # Root facts enqueued before the search starts (unit clauses,
        # incremental re-solves) are permanent: leave their variables
        # out of the heap instead of lazily discarding them later.
        self._heap.rebuild(solver.lit_truth)

    def detach(self) -> None:
        heap = self._heap
        if heap is not None:
            heap.release()  # the native heap's lit_truth view
        super().detach()

    def _rank_by_var(self) -> "Optional[array[float]]":
        """The per-variable primary key, or None for score order
        alone; subclasses override."""
        return None

    def decision_heap(self) -> "Optional[VariableActivityHeap]":
        return self._heap

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        counts = self._new_counts
        get = counts.get
        for lit in learned_literals:
            counts[lit] = get(lit, 0) + 1
        self._conflicts_since_update += 1
        if self._conflicts_since_update >= self._update_period:
            self._conflicts_since_update = 0
            self._periodic_update()

    def _periodic_update(self) -> None:
        """The paper's decay, in scaled form: double the scale factor and
        add ``new_counts * scale`` to exactly the bumped literals — each
        an O(log n) increase-key, never a rebuild."""
        kinc = self._kinc * 2.0
        if kinc > _KEY_RESCALE_LIMIT:
            self._renormalise()
            kinc = 2.0
        self._kinc = kinc
        kscore = self._kscore
        counts = self._new_counts
        heap = self._heap
        for lit, count in counts.items():
            kscore[lit] += count * kinc
            heap.increase(lit)
        counts.clear()

    def _renormalise(self) -> None:
        """Divide the whole key array by the scale factor (back to the
        unscaled ``cha_score``) and re-key the heap members — a
        uniform positive scaling, so the heap order is untouched."""
        scale = 1.0 / self._kinc
        kscore = self._kscore
        for lit in range(len(kscore)):
            kscore[lit] *= scale
        self._kinc = 1.0
        self._heap.refresh()

    def on_unassigned(self, literals: Sequence[int]) -> None:
        """Re-insert the unassigned variables (popped ones do not come
        back by themselves; the heap filters the still-present majority
        at C speed)."""
        heap = self._heap
        if heap is None:
            return  # not attached yet (pre-solve backtracks); attach rebuilds
        heap.reinsert(literals)

    def decide(self) -> int:
        return self._heap.pop_unassigned()


class VsidsStrategy(_HeapOrderStrategy):
    """Chaff's VSIDS: order all literals by ``cha_score`` alone
    (descending; ties break toward the lower literal index so runs are
    deterministic)."""

    name = "vsids"

    def pop_budget(self) -> int:
        return NO_POP_LIMIT


class RankedStrategy(_HeapOrderStrategy):
    """The paper's refined ordering over a pre-computed variable ranking.

    ``var_rank`` maps variable index to its ``bmc_score`` (missing
    variables score 0).  In *static* mode the ordering is
    ``(bmc_score, cha_score)`` for the entire solve.  In *dynamic* mode the
    strategy watches the solver's decision counter and permanently reverts
    to pure VSIDS once it exceeds ``num_original_literals / switch_divisor``
    (the paper uses a divisor of 64).
    """

    name = "ranked"

    def __init__(
        self,
        var_rank: Mapping[int, float],
        dynamic: bool = False,
        switch_divisor: int = 64,
        update_period: int = DEFAULT_UPDATE_PERIOD,
    ) -> None:
        super().__init__(update_period=update_period)
        if switch_divisor <= 0:
            raise ValueError("switch_divisor must be positive")
        self._var_rank = dict(var_rank)
        self._rank_keys: "array[float]" = array("d")
        self._dynamic = dynamic
        self._switch_divisor = switch_divisor
        self._switched = False
        self._switch_threshold = 0
        # Cumulative decide() calls across attaches — the dynamic
        # switch counter under epoch-sliced (persist_activity) solving,
        # where solver.stats resets every re-entry and would otherwise
        # never reach the whole-formula threshold.
        self._decide_calls = 0
        self.name = "ranked-dynamic" if dynamic else "ranked-static"

    @property
    def switched(self) -> bool:
        """True once the dynamic fallback to VSIDS has triggered."""
        return self._switched

    def attach(self, solver: "CdclSolver") -> None:
        """Bind to a solver and compute the dynamic switch threshold.
        The rank keys depend only on the variable count (``var_rank``
        is a private copy), so re-attaches at the same count — epoch
        slicing — keep the array the last attach built."""
        self._switch_threshold = solver.num_original_literals() // self._switch_divisor
        num_vars = solver.num_vars
        if len(self._rank_keys) != num_vars:
            rank_keys = array("d", bytes(8 * num_vars))
            for var, score in self._var_rank.items():
                if 0 <= var < num_vars:
                    rank_keys[var] = score
            self._rank_keys = rank_keys
        super().attach(solver)

    def _rank_by_var(self) -> "Optional[array[float]]":
        # Net order: (bmc_score desc, cha_score desc, literal asc).
        return None if self._switched else self._rank_keys

    def pop_budget(self) -> int:
        """Unlimited, except that a dynamic strategy's switch must
        happen in :meth:`decide`: the pops left before the decision at
        which ``max(decisions, _decide_calls)`` passes the threshold."""
        if not self._dynamic or self._switched:
            return NO_POP_LIMIT
        count = max(self._solver.stats.decisions, self._decide_calls)
        return max(0, self._switch_threshold - count + 1)

    def on_popped(self, count: int) -> None:
        self._decide_calls += count

    def decide(self) -> int:
        """Next branch literal; may trigger the dynamic VSIDS fallback.

        The switch counter is the larger of the solver's per-solve
        decision count (the paper's rule — and within a single solve
        ``_decide_calls - 1`` equals it exactly, so one-shot behaviour
        is bit-identical to the scan-order reference) and the
        strategy's own cumulative ``decide()`` count, which keeps
        counting across epoch-sliced re-entries where the per-solve
        counter resets at every barrier and would otherwise never
        reach a whole-formula threshold.
        """
        self._decide_calls += 1
        if self._dynamic and not self._switched:
            count = max(
                self._solver.stats.decisions, self._decide_calls - 1
            )
            if count > self._switch_threshold:
                self._switched = True
                # One-time comparator change: re-key the current
                # membership under pure VSIDS keys.
                self._heap.set_keys(self._kscore)
                self._heap.refresh()
        return super().decide()


class BerkMinStrategy(_HeapOrderStrategy):
    """A BerkMin-flavoured ordering (Goldberg & Novikov, DATE'02 — the
    paper's reference [7]).

    BerkMin organises conflict clauses chronologically and branches on a
    literal of the *most recent unresolved* conflict clause, falling back
    to a global activity order when every conflict clause is satisfied.
    This implementation keeps the solver-side mechanics identical to the
    other strategies (so comparisons isolate the ordering): a bounded
    stack of recent learned clauses is scanned newest-first for an
    unresolved one, choosing its highest-``cha_score`` free literal;
    otherwise the VSIDS heap decides.
    """

    name = "berkmin"

    def __init__(
        self,
        update_period: int = DEFAULT_UPDATE_PERIOD,
        recent_limit: int = 512,
    ) -> None:
        super().__init__(update_period=update_period)
        if recent_limit <= 0:
            raise ValueError("recent_limit must be positive")
        self._recent_limit = recent_limit
        self._recent: list = []  # newest last

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        """Record the clause on the recency stack and update scores."""
        super().on_conflict(learned_literals)
        self._recent.append(tuple(learned_literals))
        if len(self._recent) > self._recent_limit:
            del self._recent[: len(self._recent) // 2]

    def decide(self) -> int:
        """Branch from the newest unresolved conflict clause, else VSIDS.

        The tie-break key uses the scaled heap scores — the scale factor
        is a common positive constant, so the order is the ``cha_score``
        order.  A literal chosen here is *not* popped from the heap;
        later pops discard it lazily once its variable is assigned.
        """
        solver = self._solver
        truth = solver.lit_truth
        for clause in reversed(self._recent):
            satisfied = False
            free = []
            for lit in clause:
                value = truth[lit]
                if value == 2:
                    free.append(lit)
                elif value == 1:
                    satisfied = True
                    break
            if satisfied or not free:
                continue
            score = self._kscore
            return max(free, key=lambda lit: (score[lit], -lit))
        return super().decide()


class FixedOrderStrategy(DecisionStrategy):
    """Branch on an explicit literal sequence, then fall back to the
    first unassigned variable.  Useful in tests and for reproducing
    hand-constructed search trees.

    The fallback proposes the positive phase, but no longer forces it:
    the solver's phase policy (``SolverConfig.phase_mode``) applies to
    every decision this strategy returns, so under ``save`` a variable
    the fallback reaches is re-assigned its last-seen polarity.
    """

    name = "fixed"

    def __init__(self, literal_order: Sequence[int]) -> None:
        super().__init__()
        self._literal_order = list(literal_order)

    def decide(self) -> int:
        """Follow the fixed order, then first unassigned variable."""
        truth = self._solver.lit_truth
        for lit in self._literal_order:
            if truth[lit] == 2:
                return lit
        for var in range(self._solver.num_vars):
            if truth[var + var] == 2:
                return 2 * var
        return -1
