"""A Chaff-style CDCL SAT solver with unsat-core bookkeeping.

This is the substrate the paper instruments: DLL search (Fig. 1 of the
paper) with two-watched-literal BCP, first-UIP conflict analysis and clause
learning, Luby restarts, activity-based deletion of learned clauses, and a
pluggable decision strategy (``repro.sat.heuristics``).

Two features set it apart from a textbook CDCL and come straight from the
paper:

* **Simplified CDG recording** (§3.1): each learned clause's antecedent IDs
  are stored in a :class:`~repro.sat.cdg.ConflictDependencyGraph`, keyed by
  integer pseudo-IDs, independent of the clause database.  Clause deletion
  therefore never breaks core reconstruction.
* **Complete derivations**: literals assigned at decision level 0 are
  eliminated from learned clauses, so their reason chains are folded into
  the antecedent list.  Every CDG entry is a genuine resolution derivation,
  which the proof checker (``repro.sat.proof``) replays.

The solver is also **incremental** in the SATIRE / Eén–Sörensson style the
paper cites as complementary ([17], [5]): clauses and variables may be
added between ``solve()`` calls, learned clauses persist, and each call
may carry *assumptions* — literals temporarily forced as the first
decisions.  UNSAT under assumptions reports both the subset of
assumptions used (``failed_assumptions``) and the relative unsat core
(original clauses that, together with the assumptions, are
contradictory).  The incremental BMC engine (``repro.bmc.incremental``)
builds directly on this.

Clause IDs: the initial formula's clauses keep their ``CnfFormula``
indices ``0 .. m-1``; later ``add_clause`` calls and learned clauses share
the tail of the ID space (the CDG distinguishes leaves from derivations).

Data plane
----------

The clause database, the assignment state and the watch tables are flat
typed memory shared with the kernels (``repro.sat.kernel``); see
``docs/architecture.md`` for the layouts and the measured tradeoffs.

* Every clause's literals live in one :class:`~repro.sat.arena
  .ClauseArena` — a single ``array('i')`` of blocks addressed by
  ``refs[cid]``, with header words carrying the learned flag, the
  tombstone bit and the length, plus parallel ``refs``/``activity``
  header columns.  Learned-DB reduction tombstones blocks and (when no
  CDG pins deleted clauses for proof export) an in-place compaction
  slides live blocks left, so dead clauses stop costing memory.
* Assignments are kept **per literal**: ``lit_truth[lit]`` is 1/0/2
  (true/false/unassigned — 2, not -1, so the ternary scan's dominant
  "neither companion is false" case collapses to one truthiness test)
  for every packed literal, maintained in pairs as the trail grows and
  shrinks.  Every watch test in BCP is then a single subscript.
* Watches live in the kernel's flat per-literal columns: long
  clauses ``[cid, blocker]``, binary clauses ``[cid, implied]``,
  ternary clauses ``[cid, other_a, other_b]``.  Binary and ternary
  watches are *static* (BCP on them is one ``lit_truth`` subscript per
  test, no clause access, no watch moves); a long clause's satisfied
  blocker skips it without touching the arena.
* BCP and the first-UIP walk run in the kernel chosen by
  ``SolverConfig.kernel``, as one ``search_step`` call per search
  step: compiled (``"native"``, one C call) or pure Python
  (``"python"``, the reference).  The
  analysis tail — clause-activity bumps, learned-clause
  self-subsumption minimization (one-step ``local`` by default,
  budgeted-recursive via ``SolverConfig.minimize_learned``), LBD and
  the level-0 reason closure — stays here, citing every reason clause
  a removal proof consumed as an extra CDG antecedent so proof replay
  stays complete.

Hot-path invariants (the experiment layer's throughput depends on
these; see ``benchmarks/solver_bench.py`` for the tracking numbers):

* Learned-vs-original queries are one arena flag-byte read;
  tautological originals are excluded from literal counts so
  ``cha_score`` seeds and the dynamic 1/64 switch threshold reflect
  only installed literals.
* Analysis reuses persistent scratch arrays (``_seen`` plus the
  touched/zero lists) — no per-conflict set allocations.
* Decisions come from the kernel's activity heap — the C indexed heap
  on the native kernel (``NativeActivityHeap``), the ``heapq`` heap on
  the python one (``repro.sat.activity_heap``) — O(log n) per decision
  and score bump, no periodic order rebuilds, one heap call per
  decision; ``_backtrack`` reports the undone literals to the strategy
  (``on_unassigned``) so popped variables re-enter the heap.
* Decision phases follow ``SolverConfig.phase_mode``: by default each
  re-decided variable is re-assigned its last-seen polarity (phase
  saving), captured in ``_backtrack`` as assignments are undone.
* Clauses satisfied at decision level 0 are pruned from the watch
  lists (``SolverConfig.prune_root_satisfied``): skipped at install
  time, and swept after each restart as learned units accumulate —
  their literal blocks and CDG entries remain, so cores and proof
  replay are unaffected.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cnf.formula import ClauseRun, CnfFormula, flatten_clauses
from repro.sat.arena import (
    ClauseArena,
    HEADER_WORDS,
    ClauseArenaFullError,
    INACTIVE,
    LEARNED,
    TOMBSTONE,
)
from repro.sat.cdg import ConflictDependencyGraph
from repro.sat.heuristics import DecisionStrategy, VsidsStrategy
from repro.sat.kernel import create_kernel, resolve_kernel
from repro.sat.observer import MetricsPublisher, SearchObserver, tee
from repro.sat.profile import PROF_HEAP, new_profile_buffer, profile_as_dict
from repro.sat.stats import SolverStats
from repro.sat.types import AnalysisResult, SolveOutcome, SolveResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.metrics import MetricsRegistry


@dataclass
class SolverConfig:
    """Tunables for a :class:`CdclSolver`.

    The defaults reproduce the configuration used in the experiments;
    budget fields (``max_*``) turn an exhaustive solve into a bounded one
    that may return ``UNKNOWN`` (the paper's two-hour timeout analogue).
    Budgets apply per ``solve()`` call.
    """

    record_cdg: bool = True
    check_model: bool = True
    use_restarts: bool = True
    restart_base: int = 100
    clause_deletion: bool = True
    # Aggressive learned-DB reduction: the watch lists of live learned
    # clauses dominate BCP cost in conflict-bound workloads, so the DB
    # ceiling starts low and grows slowly (PR 2 measured ~1.4x
    # conflict-bound throughput from this alone; bounded solves lose
    # nothing since deleted clauses stay exportable for proofs).
    reduce_base: int = 150
    reduce_growth: float = 1.05
    clause_activity_decay: float = 0.999
    #: Learned-clause minimization: ``"local"`` (one self-subsumption
    #: resolution step per literal — the default: it captures most of
    #: the clause shrinkage for near-zero overhead), ``"recursive"``
    #: (MiniSat-style budgeted DFS over reason chains — shortest
    #: clauses, but on this pure-Python substrate the extra proof
    #: search costs about what the shorter clauses save), or ``"off"``.
    minimize_learned: str = "local"
    #: Budget for one recursive redundancy proof: the DFS gives up (the
    #: literal is kept) after exploring this many reason-side variables.
    #: Keeps pathological reason chains from costing more than the
    #: shorter clause saves; real solvers bound this the same way.
    minimize_budget: int = 20
    #: Decision-phase policy applied to every literal a strategy
    #: returns: ``"save"`` (re-assign the variable's last-seen polarity,
    #: falling back to the strategy's choice for never-assigned
    #: variables — the modern default, it keeps the search near
    #: previously explored satisfying fragments after backjumps and
    #: restarts), ``"default"`` (the strategy's literal untouched — the
    #: pre-PR-3 behaviour), or ``"inverted"`` (the strategy's phase
    #: flipped; mostly a fuzzing/diagnostic mode).  Assumption literals
    #: are forced verbatim and never rephased.
    phase_mode: str = "save"
    #: Detach clauses satisfied at decision level 0 from the watch lists
    #: after each restart (and skip attaching clauses already satisfied
    #: at install time).  A level-0 assignment is permanent for the
    #: solver's lifetime, so such clauses can never propagate or
    #: conflict again — BCP only stops scanning them.  Their literal
    #: blocks, CDG entries and proof exports are untouched, so core
    #: extraction and proof replay are unaffected; the count is recorded
    #: in ``stats.root_pruned_clauses``.
    prune_root_satisfied: bool = True
    #: Data-plane kernel (BCP and first-UIP analysis, one
    #: ``search_step`` call per search step; see ``repro.sat.kernel``):
    #: ``"native"`` (the loops compiled via cffi into one C call) or
    #: ``"python"`` (the same loops in pure Python — the reference the
    #: tests compare against).  ``None`` (the default)
    #: picks ``"native"`` when ``repro.sat.kernel.native_available()``
    #: and ``"python"`` otherwise.  An explicit ``"native"`` raises
    #: :class:`RuntimeError` on hosts that cannot build it.  Search
    #: behaviour is byte-identical under both.
    kernel: Optional[str] = None
    #: Learned-clause export cap for portfolio solving
    #: (``repro.sat.portfolio``): learned clauses of at most this many
    #: literals are buffered for sharing with peer solvers — short
    #: clauses prune the most search per byte shipped.  ``None`` (the
    #: default) disables export entirely; the buffer is handed out
    #: through the :attr:`CdclSolver.on_learned` hook at restart points
    #: and through :meth:`CdclSolver.drain_exported` between solves.
    export_learned_max_len: Optional[int] = None
    #: The search-observer seam (``repro.sat.observer``): called at
    #: every search-level event of every ``solve()`` and at its entry
    #: and exit.  Every capture sink is an observer — the trace
    #: (``repro.sat.trace.TraceWriter``/``TraceRecorder``), the
    #: ``.racc`` sidecar (``repro.metrics.access.AccessStreamWriter``),
    #: progress printers; :func:`repro.sat.observer.tee` combines
    #: them.  Observers never change the search; ``None`` costs one
    #: ``is not None`` test per event site.
    observer: Optional[SearchObserver] = None
    #: Observability plane (``repro.metrics``): a registry for
    #: ``solver_*_total`` counter deltas of every :class:`SolverStats`
    #: field plus state gauges, published at restarts and ``solve()``
    #: exit by a :class:`~repro.sat.observer.MetricsPublisher` the
    #: solver tees onto its observer.  The BMC engine and the
    #: portfolios publish their own series into it too.
    metrics: Optional["MetricsRegistry"] = None
    #: Label set attached to every series this solver publishes (e.g.
    #: the portfolio member name); ``None`` for unlabeled series.
    metrics_labels: Optional[Dict[str, str]] = None
    #: Per-structure access profiling (``repro.sat.profile``): both
    #: kernels account their memory traffic — arena words,
    #: watch-column entries, ``lit_truth``/trail/reasons/levels
    #: subscripts, heap ops — into the flat raw-counter array exposed
    #: as :meth:`CdclSolver.access_profile`.  Aggregation happens at
    #: kernel-call granularity (locals flushed at exit; the native
    #: kernel fills the same buffer from C through one
    #: ``from_buffer`` view), so profiled searches stay byte-identical
    #: and the hot loops stay solcheck-clean.
    profile_access: bool = False
    max_conflicts: Optional[int] = None
    max_decisions: Optional[int] = None
    max_propagations: Optional[int] = None


#: Valid values of :attr:`SolverConfig.minimize_learned`.
MINIMIZE_MODES = ("off", "local", "recursive")

#: Valid values of :attr:`SolverConfig.phase_mode`.
PHASE_MODES = ("default", "save", "inverted")

#: Clause-activity magnitude that triggers a rescale.  Single source of
#: truth for both the bump replay in ``_replay_clause_bumps`` and the
#: out-of-line :meth:`CdclSolver._bump_clause_activity`.
ACTIVITY_RESCALE_LIMIT = 1e20

#: Minimum number of new level-0 facts before a root-satisfied watch
#: sweep runs (see :meth:`CdclSolver._prune_root_satisfied`).
_PRUNE_MIN_NEW_FACTS = 16

#: Arena compaction trigger: reclaim tombstoned literal blocks once they
#: are at least this many words *and* at least half the arena (amortized
#: O(1) per word; see :meth:`CdclSolver._maybe_compact_arena`).
_COMPACT_MIN_DEAD_WORDS = 1024


def luby(index: int) -> int:
    """The ``index``-th element (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, ..."""
    if index < 1:
        raise ValueError("luby index is 1-based")
    x = index - 1
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """CDCL solver over a :class:`CnfFormula`, incrementally extensible.

    One-shot use: build with a formula, call :meth:`solve` once.
    Incremental use: keep calling :meth:`add_clause` / :meth:`new_var` /
    :meth:`solve` (optionally with assumptions); learned clauses and
    level-0 facts persist across calls.  The decision strategy defaults to
    VSIDS; the BMC layer passes
    :class:`~repro.sat.heuristics.RankedStrategy` instances to realise the
    paper's refined orderings.
    """

    def __init__(
        self,
        formula: Optional[CnfFormula] = None,
        strategy: Optional[DecisionStrategy] = None,
        config: Optional[SolverConfig] = None,
        template: Optional["InstallTemplate"] = None,
    ) -> None:
        self._formula = formula if formula is not None else CnfFormula(0)
        self.config = config or SolverConfig()
        if self.config.minimize_learned not in MINIMIZE_MODES:
            raise ValueError(
                f"minimize_learned must be one of {MINIMIZE_MODES}, "
                f"got {self.config.minimize_learned!r}"
            )
        if self.config.phase_mode not in PHASE_MODES:
            raise ValueError(
                f"phase_mode must be one of {PHASE_MODES}, "
                f"got {self.config.phase_mode!r}"
            )
        if self.config.restart_base < 1:
            # Zero or negative gives every restart epoch a limit of at
            # most zero conflicts: the search restarts forever.
            raise ValueError(
                f"restart_base must be >= 1, got {self.config.restart_base!r}"
            )
        kernel_name = resolve_kernel(self.config.kernel)
        if template is not None:
            template.check_fork(self._formula, self.config, kernel_name)
        self.strategy = strategy or VsidsStrategy()
        self.num_vars = 0
        self.stats = SolverStats()

        #: Per-*literal* truth values: 1 true, 0 false, 2 unassigned
        #: (2 rather than -1 so "not false" is plain truthiness).  The
        #: two entries of a variable are written together whenever the
        #: trail grows or shrinks, so every literal test anywhere in
        #: the solver (and in the decision strategies) is one subscript.
        #: Public accessors (``value_of``, ``assigns``) translate the
        #: internal 2 back to the conventional -1.  A ``bytearray``
        #: (faster Python subscripting than ``array('b')``; the C
        #: kernel reads it as ``unsigned char``).  Like every array
        #: below, the kernels alias it zero-copy.
        self.lit_truth = bytearray()
        self._levels = array("i")
        self._reasons = array("i")
        # Last value each variable held before it was unassigned
        # (-1 = never assigned); the phase_mode="save" source.  An
        # ``array('b')`` the native kernel writes on backtrack and
        # reads for its in-kernel decisions.
        self._saved_phase = array("b")
        self._seen = bytearray()
        #: Physical size of the per-var/per-lit arrays (grown
        #: geometrically by :meth:`ensure_num_vars`; ``num_vars`` is the
        #: logical size).
        self._var_capacity = 0
        #: Original-clause literal counts per literal: an ``array('d')``
        #: so the native install can count in C and the heap strategies
        #: seed their float scores with one slice copy.  Counts are
        #: small integers, exact in a double.
        self._lit_counts = array("d")
        #: The trail: a *preallocated* ``array('i')`` of
        #: ``_var_capacity`` slots whose live prefix is ``_trail_len``
        #: (the C scan appends by subscript, it cannot grow a Python
        #: list).
        self._trail = array("i")
        self._trail_len = 0
        #: Trail length at the start of each decision level: like the
        #: trail, a preallocated ``array('i')`` (the native kernel opens
        #: levels by subscript) whose live prefix is ``_decision_level``
        #: entries long.  It holds at least ``num_vars`` slots, and
        #: ``solve()`` adds one per assumption (every level but the
        #: assumption levels assigns a new variable).
        self._trail_lim = array("i")
        self._qhead = 0
        self._decision_level = 0

        self._num_initial = self._formula.num_clauses
        #: The flat clause store: every clause's literals live here as
        #: one block; ``_arena.refs[cid]`` addresses them and
        #: ``_arena.activity`` is the per-clause activity column.
        self._arena = ClauseArena()
        #: Raw access-counter buffer (repro.sat.profile), or None when
        #: profiling is off.  Allocated *before* the kernel: the
        #: native kernel captures it at construction and aliases it
        #: from C through one ``from_buffer`` view.
        self._profile = (
            new_profile_buffer() if self.config.profile_access else None
        )
        #: The data-plane kernel: owns the watch columns and the
        #: install-order mirror, runs BCP and the first-UIP walk.
        #: Built before ``ensure_num_vars`` (which grows the watch
        #: columns alongside the per-var arrays); an explicit
        #: ``kernel="native"`` raises here, cleanly, on hosts without
        #: cffi or a C compiler.
        self._kernel = create_kernel(self, kernel_name)
        # Original (non-LEARNED) clauses installed so far; the arena's
        # LEARNED flag is the per-clause authority.
        self._num_originals = 0
        #: Per watch table (binary, ternary, long), the IDs of installed
        #: clauses whose watches are not laid out yet, in clause order:
        #: the constructor's batches collect here and
        #: :meth:`_finish_install` lays them out in one pass (an
        #: :class:`InstallTemplate` keeps them for its forks).  None once
        #: the watches are live: later batches go straight to attach_all.
        self._watch_ids: Optional[Tuple[array, array, array]] = (
            array("i"), array("i"), array("i")
        )
        self._learned_ids: List[int] = []
        self._activity = self._arena.activity
        self._activity_inc = 1.0
        self._num_live_learned = 0
        self._num_original_literals = 0
        # Defining original unit clause per variable (var -> (lit, cid)):
        # the fallback _reason_closure resolves level-0 facts against when
        # a front end discharged their trail reason (reason == -1).
        self._root_unit_of: Dict[int, Tuple[int, int]] = {}
        # Root-level watch pruning (config.prune_root_satisfied): IDs of
        # clauses detached because a level-0 assignment satisfies them
        # forever, plus the trail watermark up to which level-0 facts
        # have been processed.  Pruned clauses keep their literal blocks
        # and CDG entries — only their watch entries are dropped.
        self._root_pruned: Set[int] = set()
        self._root_prune_watermark = 0
        # Install-time prunes happen outside solve(); like
        # _pending_load_propagations they are credited to the next
        # solve's statistics.
        self._pending_root_pruned = 0
        # Conflict-analysis scratch, reused across conflicts so the hot
        # path allocates no per-conflict sets (_seen doubles as the
        # marker array; these lists record what must be unmarked).
        self._touched_scratch: List[int] = []
        self._zero_scratch: List[int] = []
        self._min_stack: List[int] = []
        # LBD (glue) stamp array: one slot per possible decision level
        # (0..var_capacity, grown with the variable space) plus a
        # generation counter, so counting a learned clause's distinct
        # levels allocates nothing and never needs clearing.
        self._lbd_stamp = array("i", [0])
        self._lbd_gen = 0

        self._cdg = (
            ConflictDependencyGraph(self._num_initial)
            if self.config.record_cdg
            else None
        )
        self._ok = True
        self._solving = False
        # The config's observer, teed with a metrics publisher when
        # config.metrics is set; None (the common case) when neither.
        metrics = self.config.metrics
        publisher = (
            None if metrics is None
            else MetricsPublisher(metrics, self.config.metrics_labels)
        )
        self._observer = tee(self.config.observer, publisher)
        self._assumptions: List[int] = []
        self.failed_assumptions: Optional[frozenset] = None
        # Implications derived while installing clauses (eager level-0
        # propagation); credited to the next solve() call's statistics.
        self._pending_load_propagations = 0
        # Learned-clause sharing (repro.sat.portfolio): clauses learned
        # by *this* solver and short enough to export
        # (config.export_learned_max_len) accumulate here until a
        # sharing point drains them; clauses learned by *peers* arrive
        # through add_shared_clause / the on_learned hook and their IDs
        # are recorded for introspection.  on_learned — when set — is
        # invoked at restart points (assumption-free solves only) with
        # the drained export batch; whatever iterable of clauses it
        # returns is imported at decision level 0.
        self._export_buffer: List[Tuple[int, ...]] = []
        self._imported_ids: List[int] = []
        self._pending_imported = 0
        self.on_learned = None
        # Learned-DB reduction ceiling, persisted across solve() calls:
        # resetting it per call made repeated budgeted solves (the
        # portfolio's deterministic epoch slicing, and any incremental
        # caller resuming with max_conflicts) delete their accumulated
        # learned DB every re-entry — each epoch re-learned what the
        # last one threw away.  None until the first search computes
        # the formula-derived floor.
        self._max_learned: Optional[float] = None

        self.ensure_num_vars(self._formula.num_vars)
        start = 0
        if template is not None:
            self._copy_template(template)
            start = template._num_initial
        self._install(self._formula.clause_run(start))
        self._finish_install()

    # ------------------------------------------------------------------
    # Incremental interface.
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index.

        Like :meth:`ensure_num_vars`, must not be called mid-search.
        """
        var = self.num_vars
        self.ensure_num_vars(var + 1)
        return var

    def ensure_num_vars(self, count: int) -> None:
        """Grow the variable space to at least ``count`` variables.

        Must not be called during an active :meth:`solve`: the watch
        tables, trail and strategy state are sized at search entry, and
        growing them mid-search would silently corrupt propagation.
        The physical arrays grow geometrically (at least doubling), so
        the one-variable-at-a-time pattern front ends use costs
        amortized O(1) per variable instead of one resize per call.
        """
        if count <= self.num_vars:
            return
        if self._solving:
            raise RuntimeError(
                "ensure_num_vars/new_var may not be called during solve()"
            )
        if count > self._var_capacity:
            new_cap = max(count, 2 * self._var_capacity, 16)
            grow = new_cap - self._var_capacity
            # Typed fills by repetition: converting a list of Python
            # ints costs ~100x more per slot, and every fork sizes its
            # arrays afresh.
            unassigned = array("i", [-1]) * grow
            self.lit_truth.extend(b"\x02" * (2 * grow))
            self._levels.extend(unassigned)
            self._reasons.extend(unassigned)
            self._saved_phase.frombytes(b"\xff" * grow)
            self._trail_lim.frombytes(bytes(4 * grow))
            self._seen.extend(bytes(grow))
            self._lbd_stamp.frombytes(bytes(4 * grow))
            self._lit_counts.frombytes(bytes(16 * grow))
            # Preallocate trail slots to physical capacity (the kernels
            # append by subscript) and size the flat watch columns.
            self._trail.frombytes(bytes(4 * grow))
            self._kernel.grow(2 * new_cap)
            self._var_capacity = new_cap
        self.num_vars = count

    def add_clause(self, literals: Sequence[int]) -> int:
        """Add an original clause (allowed between solves); returns its ID.

        A batch of one: see :meth:`add_clauses`.
        """
        return self.add_clauses((literals,))[0]

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> range:
        """Add original clauses (allowed between solves) in one batch;
        returns their IDs.

        Must not be called mid-search.  The solver backtracks to decision
        level 0 first, so pending assumptions from a previous call do not
        leak into the clauses' status.  The batch is checked whole before
        anything changes: a bad literal (``ValueError``) or an arena
        overflow (:class:`~repro.sat.arena.ClauseArenaFullError`) leaves
        the solver exactly as it was.
        """
        if self._solving:
            raise RuntimeError("add_clause may not be called during solve()")
        run = self._run_of(clauses)
        self._check_literals(run)
        return self._install(run)

    # ------------------------------------------------------------------
    # Learned-clause sharing (the portfolio subsystem's import/export
    # surface; see ``repro.sat.portfolio``).
    # ------------------------------------------------------------------

    def add_shared_clause(self, literals: Sequence[int]) -> int:
        """Import a clause learned by a peer solver; returns its ID.

        The clause must be a logical consequence of the (shared) input
        formula — which every learned clause of a peer solving the same
        formula is.  It is installed through the ordinary original-clause
        path: deduplicated, arena-allocated, registered as a CDG *leaf*
        (an imported clause has no local derivation, so proof replay
        treats it as an axiom — sound relative to the shared formula),
        and eligible to appear in unsat cores and as a conflict
        antecedent.  Unlike :meth:`add_clause`, imported literals do
        NOT feed the ``cha_score`` seeds or the dynamic strategy's
        switch threshold: those are statistics of the input formula,
        not of the peers' sharing volume.  Callable between solves only; mid-solve imports go
        through the :attr:`on_learned` hook, which the search loop
        invokes at restart points (decision level 0).
        """
        if self._solving:
            raise RuntimeError(
                "add_shared_clause may not be called during solve(); "
                "set on_learned for mid-solve imports"
            )
        run = self._run_of((literals,))
        self._check_literals(run)
        cid = self._install(run, count_literals=False)[0]
        self._imported_ids.append(cid)
        self._pending_imported += 1
        return cid

    def _import_shared(self, clauses: Sequence[Sequence[int]]) -> None:
        """Mid-solve import path (decision level 0 only — the restart
        sharing point).  Installs each clause exactly like
        :meth:`add_shared_clause`; a clause falsified at the root marks
        the solver UNSAT (with its reason closure recorded as the final
        conflict) and the remainder of the batch is dropped."""
        count = 0
        for lits in clauses:
            count += 1
            self._imported_ids.append(
                self._install((lits,), count_literals=False)[0]
            )
            if not self._ok:
                break
        self.stats.imported_clauses += count

    def drain_exported(self) -> List[Tuple[int, ...]]:
        """Return (and clear) the buffered exportable learned clauses.

        The buffer fills during search with learned clauses of at most
        ``config.export_learned_max_len`` literals; the deterministic
        portfolio mode drains it between epoch solves, the race mode
        drains it through the :attr:`on_learned` hook instead.
        """
        batch = self._export_buffer[:]
        del self._export_buffer[:]
        return batch

    @property
    def imported_ids(self) -> Tuple[int, ...]:
        """Clause IDs installed through the shared-clause import path."""
        return tuple(self._imported_ids)

    # ------------------------------------------------------------------
    # Clause install: one loop for every clause source.
    # ------------------------------------------------------------------

    def _copy_template(self, template: "InstallTemplate") -> None:
        """Start from ``template``'s install state: copy its typed arrays
        into this solver's freshly sized ones (the per-variable prefix,
        the trail of root facts, the arena, the mirror and the
        watch-ID arrays) plus its small install bookkeeping."""
        nv = template.num_vars
        self.lit_truth[:2 * nv] = template.lit_truth[:2 * nv]
        self._levels[:nv] = template._levels[:nv]
        self._reasons[:nv] = template._reasons[:nv]
        self._lit_counts[:2 * nv] = template._lit_counts[:2 * nv]
        trail_len = template._trail_len
        self._trail[:trail_len] = template._trail[:trail_len]
        self._trail_len = trail_len
        arena = self._arena
        source = template._arena
        arena.data.extend(source.data)
        arena.refs.extend(source.refs)
        arena.flags.extend(source.flags)
        arena.activity.extend(source.activity)
        self._kernel.mirror.copy_from(template._kernel.mirror)
        for ids, source_ids in zip(self._watch_ids, template._watch_ids):
            ids.extend(source_ids)
        self._num_originals = template._num_originals
        self._num_original_literals = template._num_original_literals
        self._root_unit_of.update(template._root_unit_of)
        self._root_pruned.update(template._root_pruned)
        self._pending_root_pruned = template._pending_root_pruned
        self._pending_load_propagations = template._pending_load_propagations
        if not template._ok:
            self._mark_root_unsat(template._cdg.final_antecedents)

    def _run_of(self, clauses: Iterable[Sequence[int]]) -> ClauseRun:
        """``clauses`` as a :class:`ClauseRun`, flattened once unless it
        is one; a literal too large for a word is refused like any bad
        literal."""
        if isinstance(clauses, ClauseRun):
            return clauses
        tuples = [tuple(lits) for lits in clauses]
        try:
            return ClauseRun(tuples, flatten_clauses(tuples))
        except OverflowError:
            limit = 2 * self.num_vars
            raise self._literal_error(next(
                lit for lits in tuples for lit in lits if lit < 0 or lit >= limit
            )) from None

    def _literal_error(self, lit: int) -> ValueError:
        if lit < 0:
            return ValueError(f"bad packed literal {lit}")
        return ValueError(
            f"literal references variable {lit >> 1} >= num_vars "
            f"{self.num_vars}; call new_var()/ensure_num_vars first"
        )

    def _check_literals(self, run: ClauseRun) -> None:
        """Refuse a batch naming a literal of no existing variable,
        before any of it is installed (constructor formulas are valid
        by construction and skip this).  The kernel scans the words."""
        bad = self._kernel.check_words(
            run.words, run.lo, run.hi, 2 * self.num_vars
        )
        if bad >= 0:
            raise self._literal_error(run.words[bad])

    def _check_room(self, run: ClauseRun) -> None:
        """Refuse a batch the arena has no room for, before any of it is
        installed (counted deduplicated, as :meth:`_install` stores
        it)."""
        arena = self._arena
        used = len(arena.data)
        limit = arena.word_limit
        # A clause's word block is HEADER_WORDS - 1 words shorter than
        # its arena block.
        if used + run.hi - run.lo + (HEADER_WORDS - 1) * run.count <= limit:
            return
        words = run.words
        pos = run.lo
        while pos < run.hi:
            n = words[pos]
            used += HEADER_WORDS + len(set(words[pos + 1:pos + 1 + n]))
            if used > limit:
                raise ClauseArenaFullError(arena.full_message(used))
            pos += 1 + n

    def _install(
        self, clauses: Iterable[Sequence[int]], count_literals: bool = True
    ) -> range:
        """Install a batch of original clauses; returns their IDs.

        The one install entry: constructor formulas (the tail past a
        template's clauses), :meth:`add_clauses` batches and
        shared-clause imports all come here, as a :class:`ClauseRun`
        (other clause iterables are flattened into one first).  Per
        clause the install dedupes, marks tautologies inactive, counts
        literals (``count_literals=False`` for peer imports: the
        ``cha_score`` seeds and the 1/64 switch threshold are statistics
        of the input formula), stores the arena block, enqueues root
        units and classifies clauses that meet root facts.  The native
        kernel does all of it in C over the run's words
        (:meth:`_install_words`); the python kernel runs the reference
        loop over its tuples (:meth:`_install_tuples`).  The new
        clauses' watches then go to :attr:`_watch_ids` while the
        constructor runs, else onto the live watch columns through one
        ``kernel.attach_all`` call — per watch table in clause order
        either way, which is the order one bulk install gives.  The CDG
        registers a later batch's leaves as one ID range.  Arena room
        for the whole batch is checked first (:meth:`_check_room`; the
        public entry points check literals the same way), so a refusal
        changes nothing.
        """
        run = self._run_of(clauses)
        self._check_room(run)
        self._backtrack(0)
        # The arena and watch pools grow below; the native kernel
        # caches FFI views of them across calls (mid-solve path:
        # shared-clause import at level 0).
        self._kernel.invalidate_views()
        arena = self._arena
        first = len(arena.refs)
        count = run.count
        cdg = self._cdg
        if cdg is not None and first >= self._num_initial:
            # Later clauses are CDG leaves; registered up front because a
            # root falsification below cites them as antecedents.
            cdg.register_originals(first, first + count)
        if self._kernel.install_batch is None:
            new_ids, num_literals = self._install_tuples(run, count_literals)
        else:
            new_ids, num_literals = self._install_words(run, count_literals)
        arena.activity.frombytes(bytes(8 * count))
        self._num_originals += count
        self._num_original_literals += num_literals
        watch_ids = self._watch_ids
        if watch_ids is not None:
            for ids, new in zip(watch_ids, new_ids):
                ids.extend(new)
        else:
            self._kernel.attach_all(*new_ids)
        return range(first, first + count)

    def _install_words(
        self, run: ClauseRun, count_literals: bool
    ) -> Tuple[Tuple[Sequence[int], Sequence[int], Sequence[int]], int]:
        """The native install: the kernel's ``install_batch`` runs the
        per-clause loop in C and hands back, one at a time, the clauses
        that need solver state it cannot reach — a unit (the
        ``_root_unit_of`` dict) or a clause falsified at the root (the
        reason closure and the CDG) — then resumes at the next clause.
        Returns the new watch IDs per table and the literals counted."""
        install = self._kernel.install_batch(run, count_literals)
        data = self._arena.data
        refs = self._arena.refs
        while True:
            try:
                cid = next(install)
            except StopIteration as done:
                return done.value
            ref = refs[cid]
            n = data[ref - 1]
            if n == 1:
                self._load_unit(cid, data[ref])
            else:
                self._root_falsified(cid, data[ref:ref + n])

    def _install_tuples(
        self, run: ClauseRun, count_literals: bool
    ) -> Tuple[Tuple[List[int], List[int], List[int]], int]:
        """The reference install loop (the python kernel's), over the
        run's tuples; the native ``install_batch`` transliterates it.
        Dedupe is specialized for the 2-3 literal clauses Tseitin
        encodings consist of.  Arena words and offsets are gathered in
        Python lists and copied into the typed store once at the end
        (nothing reads the arena during install); the install-order
        mirror blocks are gathered the same way, and also copied before
        a clause meeting root facts is classified, because a root
        falsification's reason closure reads earlier clauses' blocks.
        Returns the new watch IDs per table and the literals counted."""
        arena = self._arena
        next_cid = len(arena.refs)
        word_buf: List[int] = []
        buf_append = word_buf.append
        buf_extend = word_buf.extend
        ref_buf: List[int] = []
        ref_append = ref_buf.append
        aflags_append = arena.flags.append
        mirror = self._kernel.mirror
        mirror_words = len(mirror.data)
        mirror_buf: List[int] = []
        mirror_append = mirror_buf.append
        mirror_extend = mirror_buf.extend
        mirror_refs: List[int] = []
        mirror_ref_append = mirror_refs.append

        def flush_mirror() -> None:
            mirror.data.fromlist(mirror_buf)
            mirror.refs.fromlist(mirror_refs)
            mirror_buf.clear()
            mirror_refs.clear()

        lit_counts = self._lit_counts
        truth = self.lit_truth
        bin_ids: List[int] = []
        tern_ids: List[int] = []
        long_ids: List[int] = []
        num_literals = 0
        words = len(arena.data)
        for lits in run.tuples:
            n = len(lits)
            taut = False
            if n == 2:
                a, b = lits
                if a == b:
                    lits = (a,)
                    n = 1
                else:
                    taut = a ^ 1 == b
            elif n == 3:
                a, b, c = lits
                if a == b or a == c or b == c:
                    lits = tuple(dict.fromkeys(lits))
                    n = len(lits)
                    taut = _is_tautology(lits)
                else:
                    taut = a ^ 1 == b or a ^ 1 == c or b ^ 1 == c
            elif n > 3:
                lits = tuple(dict.fromkeys(lits))
                n = len(lits)
                taut = _is_tautology(lits)
            words += HEADER_WORDS + n
            mirror_words += 1 + n
            cid = next_cid
            next_cid += 1
            flags = INACTIVE if taut else 0
            aflags_append(flags)
            buf_append(flags)
            buf_append(n)
            ref_append(words - n)
            mirror_append(n)
            mirror_extend(lits)
            mirror_ref_append(mirror_words - n)
            attach = False
            if not taut:
                if count_literals:
                    for lit in lits:
                        lit_counts[lit] += 1
                    num_literals += n
                if not self._ok:
                    pass
                elif n >= 2:
                    attach = True
                    for lit in lits:
                        if truth[lit] != 2:
                            # The arena stores the watch-ordered form;
                            # the mirror keeps install order.
                            flush_mirror()
                            lits = list(lits)
                            attach = self._classify_assigned(cid, lits)
                            break
                elif n == 1:
                    flush_mirror()
                    self._load_unit(cid, lits[0])
                else:
                    self._root_falsified(cid, ())
            buf_extend(lits)
            if not attach:
                continue
            if n == 2:
                bin_ids.append(cid)
            elif n == 3:
                tern_ids.append(cid)
            else:
                long_ids.append(cid)
        flush_mirror()
        arena.data.fromlist(word_buf)
        arena.refs.fromlist(ref_buf)
        return (bin_ids, tern_ids, long_ids), num_literals

    def _finish_install(self) -> None:
        """Lay out the watches of every clause the constructor installed,
        in one pass over empty columns."""
        watch_ids = self._watch_ids
        self._watch_ids = None
        self._kernel.attach_all(*watch_ids)

    def _classify_assigned(self, cid: int, lits: List[int]) -> bool:
        """Classify a clause some of whose literals are already assigned
        (level-0 facts): it may be satisfied, effectively unit, or
        falsified; one pass decides.  Returns True when the clause must
        be attached, with ``lits`` reordered in place into the form the
        arena must hold: long clauses get two non-false literals moved
        to the watch positions, a unit gets its free literal first (and
        is enqueued).  A clause already *satisfied* at level 0 stays
        satisfied forever, so under ``config.prune_root_satisfied`` it
        is never attached at all (pruned at birth — recorded so
        introspection agrees with the restart-time sweep).  Installation
        always happens at decision level 0, so every assigned literal
        seen here is a root fact."""
        truth = self.lit_truth
        satisfied = False
        first_un = -1
        second_un = -1
        for lit in lits:
            value = truth[lit]
            if value == 2:
                if first_un < 0:
                    first_un = lit
                elif second_un < 0:
                    second_un = lit
            elif value == 1:
                satisfied = True
                break
        if satisfied:
            if self.config.prune_root_satisfied:
                self._root_pruned.add(cid)
                self._pending_root_pruned += 1
                return False
        else:
            if first_un == -1:  # every literal false at level 0
                self._root_falsified(cid, lits)
                return False
            if second_un == -1:  # effectively unit at level 0
                lits.remove(first_un)
                lits.insert(0, first_un)
                self._enqueue(first_un, cid)
                self._pending_load_propagations += 1
            elif len(lits) > 3:
                lits.remove(first_un)
                lits.remove(second_un)
                lits[:0] = (first_un, second_un)
        return True

    def _root_falsified(self, cid: int, lits: Sequence[int]) -> None:
        """A clause every literal of which is false at level 0 (or the
        empty clause): the solver is UNSAT, with the clause and its
        literals' reason chains as the final conflict."""
        antecedents = [cid]
        self._reason_closure([lit >> 1 for lit in lits], antecedents)
        self._mark_root_unsat(antecedents)

    def _load_unit(self, clause_id: int, lit: int) -> None:
        self._root_unit_of.setdefault(lit >> 1, (lit, clause_id))
        value = self.lit_truth[lit]
        if value == 1:
            return  # redundant duplicate unit
        if value == 0:
            self._root_falsified(clause_id, (lit,))
            return
        self._enqueue(lit, clause_id)
        self._pending_load_propagations += 1

    def _mark_root_unsat(self, antecedents: Sequence[int]) -> None:
        self._ok = False
        if self._cdg is not None:
            self._cdg.set_final_conflict(antecedents)

    # ------------------------------------------------------------------
    # Introspection used by decision strategies and the BMC layer.
    # ------------------------------------------------------------------

    @property
    def assigns(self) -> List[int]:
        """Per-variable assignment snapshot: -1 unassigned, else 0/1.

        Compatibility view over the per-literal truth table (the
        variable's value is its positive literal's truth).  Read-only:
        hot paths and strategies use :attr:`lit_truth` directly.
        """
        truth = self.lit_truth
        return [
            -1 if truth[var + var] == 2 else truth[var + var]
            for var in range(self.num_vars)
        ]

    def original_literal_counts(self) -> List[int]:
        """Literal occurrence counts over the original clauses — the
        initial ``cha_score`` values (paper §3.3)."""
        return list(map(int, self._lit_counts[: 2 * self.num_vars]))

    def original_literal_keys(self) -> "array[float]":
        """:meth:`original_literal_counts` as a fresh ``array('d')`` —
        the heap strategies' score seed, copied without a Python object
        per literal."""
        return self._lit_counts[: 2 * self.num_vars]

    def num_original_literals(self) -> int:
        """Total literal count of the original clauses (the base of the
        dynamic strategy's 1/64 switch threshold)."""
        return self._num_original_literals

    @property
    def cdg(self) -> Optional[ConflictDependencyGraph]:
        return self._cdg

    @property
    def decision_level(self) -> int:
        return self._decision_level

    def value_of(self, lit: int) -> int:
        """Current value of a literal: 1 true, 0 false, -1 unassigned.

        (Internally unassigned is stored as 2 — see ``lit_truth`` — and
        mapped to the conventional -1 at this public boundary.)
        """
        value = self.lit_truth[lit]
        return -1 if value == 2 else value

    def clause_literals(self, clause_id: int) -> Tuple[int, ...]:
        """Literals of any clause (original or learned, even deleted —
        unless arena compaction reclaimed the block, which only happens
        without CDG recording)."""
        return self._arena.literals(clause_id)

    def is_original_clause(self, clause_id: int) -> bool:
        """True if the clause ID denotes an original (non-learned) clause."""
        flags = self._arena.flags
        return 0 <= clause_id < len(flags) and not flags[clause_id] & LEARNED

    def _looks_learned(self, clause_id: int) -> bool:
        # O(1) via the arena's learned flag; the ID spaces of original
        # and learned clauses interleave incrementally, so a plain range
        # check is not enough.
        return bool(self._arena.flags[clause_id] & LEARNED)

    def arena_footprint(self) -> dict:
        """Flat-store memory accounting (see ``ClauseArena.footprint``)."""
        return self._arena.footprint()

    # ------------------------------------------------------------------
    # Assignment trail.
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> None:
        truth = self.lit_truth
        truth[lit] = 1
        truth[lit ^ 1] = 0
        var = lit >> 1
        self._levels[var] = self._decision_level
        self._reasons[var] = reason
        self._trail[self._trail_len] = lit
        self._trail_len += 1

    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_lim[level]
        undone = self._trail_len - limit
        # Truth reset, saved phases and the heap re-insert: one kernel
        # call (see KernelBase.backtrack).
        self._kernel.backtrack(limit)
        # _levels/_reasons are deliberately left stale: every consumer
        # reads them only for *assigned* variables (conflict and reason
        # clauses contain assigned literals by construction; the
        # learned-DB lock test guards on lit_truth first), and both are
        # overwritten by the next assignment.  Level-0 entries are
        # never undone, so a stale level is always >= 1 and can never
        # masquerade as a root fact.  Trail entries past _trail_len
        # are dead capacity, the next assignments overwrite them, and
        # so are _trail_lim entries past the level.
        self._trail_len = limit
        self._qhead = limit
        self._decision_level = level
        self.strategy.on_backtrack()
        profile = self._profile
        if profile is not None:
            # Heap reinserts: every unassigned variable is offered back
            # to the decision heap (pops are counted at decision sites).
            profile[PROF_HEAP] += undone

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP) with complete antecedent recording.
    # ------------------------------------------------------------------

    def _reason_closure(self, start_vars: Sequence[int], antecedents: List[int]) -> None:
        """Append the reason chains of level-0 variables to ``antecedents``.

        Level-0 literals are dropped from learned clauses, so a complete
        resolution derivation must also cite the clauses that forced them.

        A level-0 variable may legitimately carry no trail reason
        (``reason == -1``): front ends that install root-level unit
        clauses incrementally can discharge or never record the
        implication (the incremental BMC engines re-feed facts between
        ``solve()`` calls).  Such variables resolve against their
        defining original unit clause instead of crashing; only a
        variable with neither a reason nor a consistent defining unit is
        a genuine internal error.
        """
        mirror = self._kernel.mirror
        mdata = mirror.data
        mrefs = mirror.refs
        visited: Set[int] = set()
        stack = list(start_vars)
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            reason = self._reasons[var]
            if reason == -1:
                reason = self._defining_unit(var)
                if reason == -1:
                    raise AssertionError(
                        f"level-0 variable {var} has no reason clause "
                        f"and no defining unit"
                    )
                antecedents.append(reason)
                continue  # a unit clause closes the chain for this var
            antecedents.append(reason)
            ref = mrefs[reason]
            for lit in mdata[ref:ref + mdata[ref - 1]]:
                other = lit >> 1
                if other != var:
                    stack.append(other)

    def _defining_unit(self, var: int) -> int:
        """Clause ID of an original unit clause matching ``var``'s current
        assignment, or -1."""
        entry = self._root_unit_of.get(var)
        if entry is not None and self.lit_truth[entry[0]] == 1:
            return entry[1]
        return -1

    def _replay_clause_bumps(self, antecedents: List[int]) -> None:
        """Bump every learned clause the first-UIP walk resolved over.

        The kernels leave clause activity alone; the walk's visit order
        is ``antecedents[1:]`` as a kernel hands it back
        (``antecedents[0]``, the conflict clause, is falsified and is
        never bumped).  Must run before :meth:`_finish_analysis`:
        minimization and the level-0 closure append further
        antecedents that are not bumped.
        """
        aflags = self._arena.flags
        activity = self._activity
        inc = self._activity_inc
        rescale_limit = ACTIVITY_RESCALE_LIMIT
        for i in range(1, len(antecedents)):
            cid = antecedents[i]
            if aflags[cid] & 1:  # LEARNED
                bumped = activity[cid] + inc
                activity[cid] = bumped
                if bumped > rescale_limit:
                    self._rescale_clause_activity()
                    inc = self._activity_inc

    def _finish_analysis(
        self, learned: List[int], antecedents: List[int]
    ) -> AnalysisResult:
        """The analysis tail after the kernel's first-UIP walk: learned-
        clause minimization, LBD, the level-0 reason closure, seen-mark
        clearing and the backjump-literal swap.  Expects the seam state
        the walk leaves behind — asserting literal at ``learned[0]``,
        seen marks set, touched/zero scratch filled.  The returned
        :class:`AnalysisResult` carries the asserting literal at
        ``learned[0]`` and (when the clause is not unit) a literal of
        the backjump level at position 1."""
        levels = self._levels
        seen = self._seen
        zero = self._zero_scratch
        touched = self._touched_scratch
        stats = self.stats
        stats.learned_literals_before_min += len(learned)
        mode = self.config.minimize_learned
        if mode != "off" and len(learned) > 2:
            self._minimize_learned(learned, antecedents, mode == "recursive")
        stats.learned_literals += len(learned)

        # LBD of the final (minimized) clause: distinct decision levels
        # among its literals, counted with the generation-stamped array
        # (no set, no clearing).
        gen = self._lbd_gen + 1
        self._lbd_gen = gen
        stamp = self._lbd_stamp
        lbd = 0
        for q in learned:
            level = levels[q >> 1]
            if stamp[level] != gen:
                stamp[level] = gen
                lbd += 1
        stats.learned_lbd_sum += lbd

        # While the seen marks are still set, close over the level-0
        # chains (minimization may have added zero-level variables).
        if zero:
            self._reason_closure(zero, antecedents)
        for var in touched:
            seen[var] = 0
        del touched[:]
        del zero[:]

        if len(learned) > 1:
            max_i = 1
            max_level = levels[learned[1] >> 1]
            for i in range(2, len(learned)):
                level = levels[learned[i] >> 1]
                if level > max_level:
                    max_level = level
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            btlevel = max_level
        else:
            btlevel = 0
        return AnalysisResult(learned, btlevel, lbd, antecedents)

    def _minimize_learned(
        self, learned: List[int], antecedents: List[int], recursive: bool
    ) -> None:
        """Self-subsumption minimization of a freshly learned clause.

        A non-asserting literal ``q`` is *redundant* when its reason
        clause resolves away against the rest of the learned clause:
        every other literal of ``reason(var(q))`` is a level-0 fact, an
        already-marked variable, or (in recursive mode) transitively
        redundant itself.  Removing redundant literals shortens the
        clause — cutting downstream BCP work — without weakening it.

        Soundness bookkeeping: each reason clause consumed by a
        successful redundancy proof is appended to ``antecedents`` (the
        implication graph is acyclic in trail order, so reverse unit
        propagation over the extended antecedent list still derives the
        minimized clause), and level-0 variables met along the way join
        the zero-scratch list for the usual reason-chain closure.
        """
        levels = self._levels
        reasons = self._reasons
        seen = self._seen
        mirror = self._kernel.mirror
        mdata = mirror.data
        mrefs = mirror.refs
        budget = self.config.minimize_budget
        mask = 0
        for i in range(1, len(learned)):
            mask |= 1 << (levels[learned[i] >> 1] & 31)
        j = 1
        for i in range(1, len(learned)):
            q = learned[i]
            var = q >> 1
            reason = reasons[var]
            if reason == -1:
                learned[j] = q
                j += 1
                continue
            # Inline fast path: one resolution step.  Most candidates
            # are decided here; only reasons that meet unseen variables
            # fall through to the recursive DFS.  Seen codes: 1 = in the
            # clause or proven covered, 3 = proven (or assumed, after a
            # budget abort) non-redundant — both memoized per conflict.
            verdict = 1  # 1 redundant, 0 not, -1 needs recursion
            ref = mrefs[reason]
            for r in mdata[ref:ref + mdata[ref - 1]]:
                u = r >> 1
                if u == var:
                    continue
                s = seen[u]
                if s == 1:
                    continue
                if s == 3:
                    verdict = 0
                    break
                lu = levels[u]
                if lu == 0:
                    seen[u] = 1
                    self._touched_scratch.append(u)
                    self._zero_scratch.append(u)
                    continue
                if (
                    not recursive
                    or reasons[u] == -1
                    or not (mask >> (lu & 31)) & 1
                ):
                    # A decision variable or a level outside the clause
                    # can never be resolved away; memoize the failure so
                    # later candidates skip it in one lookup.
                    seen[u] = 3
                    self._touched_scratch.append(u)
                    verdict = 0
                    break
                verdict = -1
                break
            if verdict == 1:
                antecedents.append(reason)
                continue
            if verdict == -1 and self._lit_redundant(
                var, mask, antecedents, budget
            ):
                continue
            learned[j] = q
            j += 1
        removed = len(learned) - j
        if removed:
            del learned[j:]
            self.stats.minimized_literals += removed

    def _lit_redundant(
        self, var0: int, mask: int, antecedents: List[int], budget: int
    ) -> bool:
        """True if ``var0``'s literal is redundant in the current learned
        clause; on success the consumed reason clauses join ``antecedents``.

        ``mask`` is the abstraction of decision levels present in the
        clause (MiniSat's ``abstract_levels``): a reason touching a level
        outside it can never be covered, which prunes most failures in
        one bit test.  Proofs that would explore more than
        ``config.minimize_budget`` variables are abandoned (literal
        kept) — soundness never depends on a proof being found.
        """
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        mirror = self._kernel.mirror
        mdata = mirror.data
        mrefs = mirror.refs
        touched = self._touched_scratch
        zero = self._zero_scratch
        stack = self._min_stack
        del stack[:]
        stack.append(var0)
        top = len(touched)
        while stack:
            v = stack.pop()
            ref = mrefs[reasons[v]]
            for q in mdata[ref:ref + mdata[ref - 1]]:
                u = q >> 1
                if u == v:
                    continue
                lu = levels[u]
                if lu == 0:
                    if not seen[u]:
                        seen[u] = 1
                        touched.append(u)
                        zero.append(u)
                    continue
                s = seen[u]
                if s == 1:
                    continue
                failed = s == 3
                if not failed:
                    budget -= 1
                    failed = (
                        budget < 0
                        or reasons[u] == -1
                        or not (mask >> (lu & 31)) & 1
                    )
                if failed:
                    # Memoize the failure: every level>0 variable this
                    # proof explored is re-marked "non-redundant", so
                    # later candidates fail on it in one lookup rather
                    # than re-running the DFS.  (Level-0 marks stay:
                    # their chains are harmless extra antecedents and
                    # keep the zero list in sync.)
                    for k in range(top, len(touched)):
                        w = touched[k]
                        if levels[w] != 0:
                            seen[w] = 3
                    return False
                seen[u] = 1
                touched.append(u)
                stack.append(u)
        antecedents.append(reasons[var0])
        for k in range(top, len(touched)):
            w = touched[k]
            if levels[w] != 0:
                antecedents.append(reasons[w])
        return True

    def _bump_clause_activity(self, cid: int) -> None:
        # Single-clause form of _replay_clause_bumps (same threshold
        # constant); the utility entry point for tests.
        self._activity[cid] += self._activity_inc
        if self._activity[cid] > ACTIVITY_RESCALE_LIMIT:
            self._rescale_clause_activity()

    def _rescale_clause_activity(self) -> None:
        """Rescale on overflow — learned-clause activities only.

        Original clauses never accumulate activity (bumps are gated on
        the learned side), so scaling them is at best wasted work over
        the whole clause DB and would corrupt any externally assigned
        original-clause activity.  Relative ordering among learned
        clauses is preserved exactly (one common factor).
        """
        scale = 1e-20
        activity = self._activity
        for cid in self._learned_ids:
            activity[cid] *= scale
        self._activity_inc *= scale

    def _add_learned(self, learned: List[int], antecedents: List[int]) -> int:
        # The arena append always resizes arrays the native kernel
        # holds cached FFI views of; watch-pool growth during the attach
        # (rare) invalidates itself via the columns' on_resize hook.
        self._kernel.invalidate_arena_views()
        cid = self._arena.add(learned, LEARNED, self._activity_inc)
        self._kernel.mirror.append(learned)
        self._learned_ids.append(cid)
        self._num_live_learned += 1
        self.stats.learned_clauses += 1
        if self._cdg is not None:
            self._cdg.add(cid, antecedents)
            self.stats.cdg_entries += 1
        if len(learned) >= 2:
            self._kernel.attach(cid, learned)
        return cid

    # ------------------------------------------------------------------
    # Learned-clause deletion (the feature the simplified CDG protects).
    # ------------------------------------------------------------------

    def _reduce_learned_db(self) -> None:
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        reasons = self._reasons
        truth = self.lit_truth
        activity = self._activity
        candidates = []
        # _learned_ids is ascending and learned clauses are never
        # tautological, so this visits exactly the live learned clauses
        # in clause-ID order (the order the old full-range scan had).
        # The lock test ("currently the reason of an assignment") guards
        # on the implied literal being true before trusting _reasons —
        # backtracking leaves _reasons stale for unassigned variables.
        for cid in self._learned_ids:
            if aflags[cid] & TOMBSTONE:
                continue
            base = arefs[cid]
            n = adata[base - 1]
            if n <= 2:
                continue  # keep short clauses, they are cheap and strong
            if n == 3:
                # Ternary watches never reorder literals, so the implied
                # literal of a reason clause may sit at any position.
                a = adata[base]
                b = adata[base + 1]
                c = adata[base + 2]
                if (
                    (truth[a] == 1 and reasons[a >> 1] == cid)
                    or (truth[b] == 1 and reasons[b >> 1] == cid)
                    or (truth[c] == 1 and reasons[c >> 1] == cid)
                ):
                    continue  # locked
            else:
                first = adata[base]
                if truth[first] == 1 and reasons[first >> 1] == cid:
                    continue  # locked
            candidates.append(cid)
        if not candidates:
            return
        candidates.sort(key=lambda cid: (activity[cid], -cid))
        root_pruned = self._root_pruned
        arena = self._arena
        kernel = self._kernel
        mirror = kernel.mirror
        # Arena and mirror compaction below resize stores the native
        # kernel holds cached FFI views of.
        kernel.invalidate_views()
        for cid in candidates[: len(candidates) // 2]:
            if cid not in root_pruned:  # pruned clauses are already detached
                kernel.detach(cid)
            arena.tombstone(cid)
            mirror.free(cid)  # reasons are locked, never freed
            self._num_live_learned -= 1
            self.stats.deleted_clauses += 1
        self._maybe_compact_arena()

    def _maybe_compact_arena(self) -> None:
        """Reclaim tombstoned literal blocks in place, when allowed.

        With a CDG the literals of deleted learned clauses are pinned —
        ``export_proof`` and ``clause_literals`` promise access to them
        — so tombstones accumulate but blocks stay.  Without a CDG
        (the bounded/benchmark configurations) the blocks are dead the
        moment they are detached: compaction slides live blocks left
        once the dead fraction reaches half the arena, which amortizes
        to O(1) work per reclaimed word.  Clause IDs — the only handle
        watch entries and stats hold — are stable across compaction.
        """
        arena = self._arena
        if (
            self._cdg is None
            and arena.dead_words >= _COMPACT_MIN_DEAD_WORDS
            and 2 * arena.dead_words >= len(arena.data)
        ):
            self.stats.arena_reclaimed_words += arena.compact()
            self.stats.arena_compactions += 1

    def _prune_root_satisfied(self) -> None:
        """Detach every clause a level-0 assignment satisfies (paper-side
        motivation: root-satisfied clauses still get scanned by BCP on
        every watch hit, and on conflict-bound workloads learned units
        keep growing the root-satisfied population).

        Called after each restart.  Level-0 assignments are never undone
        for the lifetime of the solver — assumptions live at levels
        >= 1 — so a clause
        satisfied at level 0 can never become unit or conflicting again
        and its watch entries are dead weight.  Only the watch entries
        go: literal blocks, activity, CDG entries and proof export stay,
        which keeps core extraction, ``_reason_closure`` and replay
        byte-identical with pruning on or off.

        Cost: one pass over the arena plus one in-place compaction pass
        over the watch tables, gated by a trail watermark so restarts
        without new root facts pay one comparison.  The sweep only runs
        once a batch of at least ``_PRUNE_MIN_NEW_FACTS`` new root facts
        has accumulated: a lone learned unit rarely satisfies enough
        clauses to repay two full passes (facts below the threshold are
        not lost — they stay below the watermark and count toward the
        next batch).
        """
        limit = self._trail_lim[0] if self._decision_level else self._trail_len
        if limit - self._root_prune_watermark < _PRUNE_MIN_NEW_FACTS:
            return
        self._root_prune_watermark = limit
        truth = self.lit_truth
        levels = self._levels
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        pruned = self._root_pruned
        dead = TOMBSTONE | INACTIVE
        newly = []
        for cid in range(len(arefs)):
            if aflags[cid] & dead or cid in pruned:
                continue
            base = arefs[cid]
            n = adata[base - 1]
            if n < 2:
                continue
            for lit in adata[base:base + n]:
                if truth[lit] == 1 and levels[lit >> 1] == 0:
                    newly.append(cid)
                    break
        if not newly:
            return
        pruned.update(newly)
        self.stats.root_pruned_clauses += len(newly)
        self._kernel.drop_clauses(pruned)

    @property
    def root_pruned_clauses(self) -> int:
        """Total clauses detached as root-satisfied over the solver's
        lifetime (install-time skips included)."""
        return len(self._root_pruned)

    # ------------------------------------------------------------------
    # Main search loop (the paper's Fig. 1, plus restarts and deletion).
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        strategy: Optional[DecisionStrategy] = None,
    ) -> SolveOutcome:
        """Run the CDCL search to completion (or budget exhaustion).

        ``assumptions`` are literals forced as the first decisions; an
        UNSAT answer then means "unsatisfiable under these assumptions"
        and ``failed_assumptions`` lists the subset actually used.
        Repeated calls are allowed; clauses and learning persist.
        """
        if self._solving:
            raise RuntimeError("re-entrant solve() call")
        for lit in assumptions:
            if lit < 0 or (lit >> 1) >= self.num_vars:
                raise ValueError(f"bad assumption literal {lit}")
        if strategy is not None:
            self.strategy = strategy
        # Room for one level per assumption on top of the decision
        # levels (at most one per variable).
        missing = self.num_vars + len(assumptions) - len(self._trail_lim)
        if missing > 0:
            self._trail_lim.frombytes(bytes(4 * missing))
        self._solving = True
        self._assumptions = list(assumptions)
        self.failed_assumptions = None
        self.stats = SolverStats()
        self.stats.propagations += self._pending_load_propagations
        self._pending_load_propagations = 0
        self.stats.root_pruned_clauses += self._pending_root_pruned
        self._pending_root_pruned = 0
        self.stats.imported_clauses += self._pending_imported
        self._pending_imported = 0
        observer = self._observer
        status = None
        start = time.perf_counter()
        try:
            if observer is not None:
                observer.begin(self)
            self._backtrack(0)
            outcome = self._search()
            status = outcome.status
        finally:
            self._solving = False
            # The strategy holds the solver only inside solve(): a
            # binding kept past it would be a strategy <-> solver cycle,
            # freed by the cyclic collector instead of by refcount.
            self._kernel.bind_decisions(None)
            self.strategy.detach()
            # Release the kernel's cached views so between-solve
            # mutations (ensure_num_vars, add_clause) never hit a
            # pinned buffer.
            self._kernel.invalidate_views()
            self.stats.solve_time = time.perf_counter() - start
            if observer is not None:
                observer.end(self, status)
        outcome.stats = self.stats
        return outcome

    # ------------------------------------------------------------------
    # Observability: access profiling and live progress.
    # ------------------------------------------------------------------

    def access_profile(self) -> Optional[Dict[str, object]]:
        """The per-structure access profile accumulated so far (raw
        slots by name plus derived structure totals), or None when
        ``config.profile_access`` is off.  Cumulative across solve()
        calls — callers wanting per-solve numbers difference two reads.
        """
        if self._profile is None:
            return None
        return profile_as_dict(self._profile)

    def progress_snapshot(self) -> Dict[str, int]:
        """The live-progress payload: counters and depths only — no
        clock read, nothing a hook could perturb the search with."""
        stats = self.stats
        return {
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "learned": self._num_live_learned,
            "trail": self._trail_len,
            "level": self._decision_level,
            "vars": self.num_vars,
        }

    def _search(self) -> SolveOutcome:
        if not self._ok:
            return self._unsat_outcome()
        config = self.config
        strategy = self.strategy
        strategy.attach(self)
        restart_epoch = 1
        conflicts_in_epoch = 0
        epoch_limit = config.restart_base * luby(restart_epoch)
        # The reduction ceiling never shrinks across solve() calls on
        # one solver: a single-solve run is byte-identical to before
        # (the floor is the old per-call value), while re-entrant
        # solves keep the ceiling their reductions grew.
        max_learned = max(
            self._max_learned or 0,
            config.reduce_base + self._num_originals // 3,
        )
        self._max_learned = max_learned
        # Per-conflict hoists (the conflict path runs thousands of times
        # per second; budget fields are read-only during a solve).
        activity_decay = config.clause_activity_decay
        max_conflicts = config.max_conflicts
        max_propagations = config.max_propagations
        prune_enabled = config.prune_root_satisfied
        export_cap = config.export_learned_max_len
        export_buffer = self._export_buffer
        on_learned = self.on_learned
        save_phase = config.phase_mode == "save"
        invert_phase = config.phase_mode == "inverted"
        saved_phase = self._saved_phase
        truth = self.lit_truth
        stats = self.stats
        num_vars = self.num_vars
        num_assumptions = len(self._assumptions)
        decide = strategy.decide
        on_conflict = strategy.on_conflict
        profile = self._profile
        # The one capture hook (None when detached: one `is not None`
        # test per event site).  Capture lives at search level, never
        # inside the kernels, whose state differs while search-level
        # state is byte-identical across them.
        observer = self._observer
        # The data plane: propagate, then (for a conflict above the
        # assumption prefix) the first-UIP walk, in one kernel call.
        # Both kernels produce identical analyses — the fuzzer and the
        # Table-1 pin hold them byte-identical.
        kernel = self._kernel
        search_step = kernel.search_step
        heap = strategy.decision_heap()
        kernel.bind_decisions(heap)
        # In-kernel decisions: a kernel that decides may also make the
        # decisions that are plain pops of the strategy's heap, up to a
        # budget per step.  The budget is 0 whenever the decision branch
        # below has anything else to do first (restart, reduction,
        # assumption level, the max_decisions cap, the strategy's own
        # limit such as the dynamic switch) or anything watches each
        # decision (observer, access profile); those conditions change
        # only on a conflict or at the budget's end, where the kernel
        # hands the search back.
        pop_budget = (
            strategy.pop_budget
            if kernel.decides and heap is not None
            and observer is None and profile is None
            else None
        )
        use_restarts = config.use_restarts
        clause_deletion = config.clause_deletion
        max_decisions = config.max_decisions
        budget = 0

        while True:
            if pop_budget is not None:
                if (
                    (use_restarts and conflicts_in_epoch >= epoch_limit)
                    or (clause_deletion and self._num_live_learned > max_learned)
                    or self._decision_level < num_assumptions
                ):
                    budget = 0
                else:
                    budget = pop_budget()
                    if (
                        max_decisions is not None
                        and max_decisions - stats.decisions < budget
                    ):
                        budget = max_decisions - stats.decisions
            conflict, analysis = search_step(num_assumptions, budget)
            if conflict != -1:
                stats.conflicts += 1
                conflicts_in_epoch += 1
                if observer is not None:
                    observer.on_conflict(self, self._decision_level)
                if self._decision_level == 0:
                    self._record_final_conflict(conflict)
                    self._ok = False
                    return self._unsat_outcome()
                if self._decision_level <= num_assumptions:
                    # The conflict is entirely above assumption decisions:
                    # UNSAT under the current assumptions.
                    return self._assumption_conflict_outcome(conflict)
                self._replay_clause_bumps(analysis[1])
                learned, btlevel, _, antecedents = self._finish_analysis(
                    analysis[0], analysis[1]
                )
                self._activity_inc /= activity_decay
                # Backjumping below the assumption prefix is fine: the
                # decision loop re-establishes assumptions level by level.
                self._backtrack(btlevel)
                cid = self._add_learned(learned, antecedents)
                if export_cap is not None and len(learned) <= export_cap:
                    export_buffer.append(tuple(learned))
                    stats.exported_clauses += 1
                if truth[learned[0]] == 2:
                    self._enqueue(learned[0], cid)
                    stats.propagations += 1
                on_conflict(learned)
                if observer is not None:
                    observer.on_learn(self, learned, btlevel, antecedents)
                if max_conflicts is not None and stats.conflicts >= max_conflicts:
                    return SolveOutcome(status=SolveResult.UNKNOWN)
                if (
                    max_propagations is not None
                    and stats.propagations >= max_propagations
                ):
                    return SolveOutcome(status=SolveResult.UNKNOWN)
                continue

            if (
                use_restarts
                and conflicts_in_epoch >= epoch_limit
                and self._decision_level > num_assumptions
            ):
                restart_epoch += 1
                conflicts_in_epoch = 0
                epoch_limit = config.restart_base * luby(restart_epoch)
                self.stats.restarts += 1
                if observer is not None:
                    observer.on_restart(self, num_assumptions)
                self._backtrack(num_assumptions)
                if prune_enabled:
                    self._prune_root_satisfied()
                if on_learned is not None and num_assumptions == 0:
                    # Sharing point (portfolio race mode): the solver is
                    # at decision level 0, so peer clauses can be
                    # installed through the ordinary root-level path.
                    # The hook receives this solver's drained exports
                    # and returns the peers' clauses to import; a root
                    # falsification surfaces as UNSAT right here, a
                    # root unit is picked up by the next propagation.
                    batch = export_buffer[:]
                    del export_buffer[:]
                    imports = on_learned(batch)
                    if imports:
                        self._import_shared(imports)
                        if not self._ok:
                            return self._unsat_outcome()
                continue
            if clause_deletion and self._num_live_learned > max_learned:
                deleted_before = stats.deleted_clauses
                self._reduce_learned_db()
                if observer is not None:
                    observer.on_reduce(self, stats.deleted_clauses - deleted_before)
                max_learned = int(max_learned * config.reduce_growth)
                self._max_learned = max_learned

            if self._decision_level < num_assumptions:
                lit = self._assumptions[self._decision_level]
                value = truth[lit]
                if value == 0:
                    return self._failed_assumption_outcome(lit)
                if observer is not None:
                    observer.on_assume(self, lit)
                # Open a level even if already true, so level indices and
                # assumption indices stay aligned.
                self._trail_lim[self._decision_level] = self._trail_len
                self._decision_level += 1
                if value == 2:
                    self._enqueue(lit, -1)
                continue

            if self._trail_len == num_vars:
                # Every variable is assigned: SAT without asking the
                # strategy (saves draining the whole decision heap of
                # its propagation-assigned variables one pop at a time).
                return self._sat_outcome()
            lit = decide()
            if lit == -1:
                return self._sat_outcome()
            if truth[lit] != 2:
                raise AssertionError("strategy chose an assigned variable")
            var = lit >> 1
            # Phase policy: the strategy picks the variable; the phase is
            # the saved polarity (phase_mode="save", when one exists),
            # the strategy's literal ("default"), or its complement
            # ("inverted").  Assumptions bypass this block entirely.
            if save_phase:
                polarity = saved_phase[var]
                if polarity >= 0:
                    lit = (var << 1) | (polarity ^ 1)
            elif invert_phase:
                lit ^= 1
            stats.decisions += 1
            if profile is not None:
                # One heap pop per decision (reinserts are counted at
                # backtrack time).
                profile[PROF_HEAP] += 1
            if (
                max_decisions is not None
                and stats.decisions > max_decisions
            ):
                return SolveOutcome(status=SolveResult.UNKNOWN)
            self._trail_lim[self._decision_level] = self._trail_len
            self._decision_level += 1
            if self._decision_level > self.stats.max_decision_level:
                self.stats.max_decision_level = self._decision_level
            self._enqueue(lit, -1)
            if observer is not None:
                observer.on_decide(self, lit)

    # ------------------------------------------------------------------
    # Outcome construction.
    # ------------------------------------------------------------------

    def _record_final_conflict(self, conflict_cid: int) -> None:
        if self._cdg is None:
            return
        antecedents = [conflict_cid]
        conflict_vars = [
            lit >> 1 for lit in self._arena.literals(conflict_cid)
        ]
        self._reason_closure(conflict_vars, antecedents)
        self._cdg.set_final_conflict(antecedents)

    def _relative_closure(self, seed_vars: Sequence[int]) -> Tuple[List[int], Set[int]]:
        """Reason closure stopping at decision variables (assumptions).

        Returns ``(antecedent clause ids, assumption vars encountered)``.
        """
        adata = self._arena.data
        arefs = self._arena.refs
        antecedents: List[int] = []
        assumption_vars: Set[int] = set()
        visited: Set[int] = set()
        stack = list(seed_vars)
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            reason = self._reasons[var]
            if reason == -1:
                if self._levels[var] == 0:
                    # Root fact whose trail reason was discharged by an
                    # incremental front end: cite its defining unit, do
                    # not misreport it as a failed assumption.
                    unit = self._defining_unit(var)
                    if unit != -1:
                        antecedents.append(unit)
                        continue
                assumption_vars.add(var)
                continue
            antecedents.append(reason)
            base = arefs[reason]
            for lit in adata[base:base + adata[base - 1]]:
                other = lit >> 1
                if other != var:
                    stack.append(other)
        return antecedents, assumption_vars

    def _assumption_conflict_outcome(self, conflict_cid: int) -> SolveOutcome:
        seed = [lit >> 1 for lit in self._arena.literals(conflict_cid)]
        antecedents, assumption_vars = self._relative_closure(seed)
        return self._relative_unsat_outcome([conflict_cid] + antecedents, assumption_vars)

    def _failed_assumption_outcome(self, lit: int) -> SolveOutcome:
        antecedents, assumption_vars = self._relative_closure([lit >> 1])
        assumption_vars.add(lit >> 1)
        return self._relative_unsat_outcome(antecedents, assumption_vars)

    def _relative_unsat_outcome(
        self, antecedents: List[int], assumption_vars: Set[int]
    ) -> SolveOutcome:
        self.failed_assumptions = frozenset(
            lit for lit in self._assumptions if (lit >> 1) in assumption_vars
        )
        core_clauses = None
        core_vars = None
        if self._cdg is not None:
            core: Set[int] = set()
            visited: Set[int] = set()
            stack = list(antecedents)
            while stack:
                cid = stack.pop()
                if cid in visited:
                    continue
                visited.add(cid)
                if self._cdg.is_original(cid):
                    core.add(cid)
                else:
                    stack.extend(self._cdg.antecedents_of(cid))
            core_clauses = frozenset(core)
            core_vars = frozenset(
                lit >> 1
                for cid in core_clauses
                for lit in self._arena.literals(cid)
            )
        return SolveOutcome(
            status=SolveResult.UNSAT,
            core_clauses=core_clauses,
            core_vars=core_vars,
            failed_assumptions=self.failed_assumptions,
        )

    def _sat_outcome(self) -> SolveOutcome:
        # The model is the positive-literal column of the truth table
        # (one stride-2 slice, not a per-variable subscript loop);
        # unassigned variables default to 0.  ``list(...)`` normalizes
        # the ``bytearray`` slice to the list the SolveOutcome contract
        # promises.
        model = list(self.lit_truth[0:2 * self.num_vars:2])
        if 2 in model:  # C-speed scan; all-assigned is the common case
            model = [0 if value == 2 else value for value in model]
        if self.config.check_model and not self._model_check(model):
            raise AssertionError("internal error: produced model does not satisfy formula")
        return SolveOutcome(status=SolveResult.SAT, model=model)

    def _model_check(self, model: List[int]) -> bool:
        # Constructor clauses are checked against the formula's own
        # immutable literal tuples: iterating stored tuple refs with an
        # early break is markedly faster in CPython than re-boxing the
        # same literals out of the arena, and the raw formula is
        # exactly what the model must satisfy (tautologies hold both
        # phases of a var, so any model passes them; an empty clause
        # falls through its loop and fails).  Bounded at the install
        # count: clauses added to the formula after construction are
        # not the solver's.  Only originals added through the
        # incremental interface live solely in the arena.
        for lits in islice(self._formula.iter_literals(), self._num_initial):
            for lit in lits:
                if model[lit >> 1] ^ (lit & 1):
                    break
            else:
                return False
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        for cid in range(self._num_initial, len(arefs)):
            if aflags[cid] & LEARNED:
                continue
            base = arefs[cid]
            n = adata[base - 1]
            if not n:
                if not aflags[cid] & INACTIVE:
                    return False
                continue
            for lit in adata[base:base + n]:
                if model[lit >> 1] ^ (lit & 1):
                    break
            else:
                return False
        return True

    def _unsat_outcome(self) -> SolveOutcome:
        core_clauses = None
        core_vars = None
        if self._cdg is not None and self._cdg.final_antecedents is not None:
            core_clauses = self._cdg.unsat_core()
            core_vars = frozenset(
                lit >> 1
                for cid in core_clauses
                for lit in self._arena.literals(cid)
            )
        return SolveOutcome(
            status=SolveResult.UNSAT,
            core_clauses=core_clauses,
            core_vars=core_vars,
        )

    def export_proof(self):
        """Export the (global) refutation for independent checking.

        Returns a :class:`repro.sat.proof.ResolutionProof`.  Requires CDG
        recording and a completed *global* UNSAT answer (not merely UNSAT
        under assumptions); deleted clauses are exportable because their
        literal blocks are retained in the arena whenever a CDG is
        recorded (compaction only reclaims them without one).
        """
        from repro.sat.proof import ResolutionProof

        if self._cdg is None:
            raise RuntimeError("CDG recording was disabled; no proof available")
        if self._cdg.final_antecedents is None:
            raise RuntimeError("no final conflict recorded (not proven UNSAT)")
        learned = {}
        extra_originals = {}
        arena = self._arena
        for cid in range(len(arena.refs)):
            if self._cdg.is_original(cid):
                if cid >= self._num_initial:
                    extra_originals[cid] = arena.literals(cid)
                continue
            learned[cid] = (
                arena.literals(cid),
                self._cdg.antecedents_of(cid),
            )
        return ResolutionProof(
            num_original=self._num_initial,
            learned=learned,
            final_antecedents=self._cdg.final_antecedents,
            extra_originals=extra_originals,
        )


#: The :class:`SolverConfig` fields that change what an install
#: produces; a fork must agree with its template on each of them.
INSTALL_FIELDS = ("kernel", "prune_root_satisfied", "profile_access")


class InstallTemplate(CdclSolver):
    """A never-solved solver over a formula prefix, for forks to copy.

    It holds what installing its formula produces — the arena, the
    per-variable arrays with the root facts, literal counts, the
    install-order mirror and, per watch table, the IDs of the clauses
    to watch — but lays out no watches.
    ``CdclSolver(formula, template=t)`` is a *fork*: it copies those
    typed arrays, installs only the clauses of ``formula`` past ``t``'s
    through the one install loop, then lays every watch out in one pass
    over empty columns.  That is the per-literal watch order a bulk
    install of ``formula`` gives, so the fork searches exactly like
    ``CdclSolver(formula)``.  ``InstallTemplate(formula, config, t)``
    grows a template the same way, leaving ``t`` as it was; the BMC
    engines grow one per run, a frame at a time.

    Its config keeps only :data:`INSTALL_FIELDS` of ``config``: a
    template never solves, so nothing else applies to it, and forks
    whose install fields differ are refused.
    """

    def __init__(
        self,
        formula: CnfFormula,
        config: Optional[SolverConfig] = None,
        template: Optional["InstallTemplate"] = None,
    ) -> None:
        base = config or SolverConfig()
        super().__init__(
            formula,
            config=SolverConfig(
                **{name: getattr(base, name) for name in INSTALL_FIELDS}
            ),
            template=template,
        )

    @property
    def num_clauses(self) -> int:
        """Clauses installed: the template formula's size."""
        return self._num_initial

    def _finish_install(self) -> None:
        # Watches stay unlaid: forks copy the ID arrays.  (The native
        # install already wrote the mirror, so forks copy that too.)
        pass

    def check_fork(
        self, formula: CnfFormula, config: SolverConfig, kernel: str
    ) -> None:
        """Raise ``ValueError`` unless a solver over ``formula`` under
        ``config`` (running ``kernel``) may fork from this template."""
        differ = [
            name for name in INSTALL_FIELDS
            if name != "kernel" and getattr(config, name) != getattr(self.config, name)
        ]
        if kernel != self._kernel.name:
            differ.insert(0, "kernel")
        if differ:
            raise ValueError(
                f"fork config differs from its template's in {differ}"
            )
        if formula.num_vars < self.num_vars or not formula.starts_with(
            self._formula
        ):
            raise ValueError("the template's formula is not a prefix of the fork's")

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError("an install template is never solved or extended; fork it")

    solve = add_clauses = add_shared_clause = _refuse


def _is_tautology(lits: Sequence[int]) -> bool:
    # Specialized for the 2-3 literal clauses that dominate Tseitin
    # encodings; the set-based general case only runs for longer ones.
    n = len(lits)
    if n <= 1:
        return False
    if n == 2:
        return lits[0] ^ 1 == lits[1]
    if n == 3:
        a, b, c = lits
        return a ^ 1 == b or a ^ 1 == c or b ^ 1 == c
    lit_set = set(lits)
    return any(lit ^ 1 in lit_set for lit in lit_set)


def solve_formula(
    formula: CnfFormula,
    strategy: Optional[DecisionStrategy] = None,
    config: Optional[SolverConfig] = None,
) -> SolveOutcome:
    """Convenience one-call interface: build a solver and solve."""
    return CdclSolver(formula, strategy=strategy, config=config).solve()
