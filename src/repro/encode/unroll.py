"""Time-frame unrolling of the paper's Eq. 1.

For an invariant property ``G P`` and a depth ``k``, the BMC instance is::

    I(V0)  and  T(V0,W1,V1) ... T(V(k-1),Wk,Vk)  and  not P(Vk)

The :class:`Unroller` is *stateful and monotone*: frames are encoded once
and cached, and variable/clause numbering for the shared prefix is
identical across instances of increasing ``k``.  This is what lets the
paper's ``varRank`` — keyed by CNF variable — transfer from one BMC
instance to the next (the same circuit net at the same time frame is the
same CNF variable in every instance).

Encoding choices (standard for circuit BMC):

* NOT/BUF are free — they alias to the fanin literal with the phase bit.
* NAND/NOR/XNOR alias to the negation of the AND/OR/XOR variable.
* Latch variables are shared across the frame boundary:
  ``lit(latch, f+1) = lit(next_state_net, f)``.
* Variable 0 is a global constant-true anchored by a unit clause.

Storage: encoded clauses go into an append-only *log* of plain literal
tuples, with a parallel log of compact ``(kind, net, frame)`` origin
records — exact tuples, which CPython's cyclic garbage collector
untracks, so a cached encoding costs a full collection nothing.  The
clause log is a :class:`~repro.cnf.formula.ClauseLog`: it also keeps
every clause as a flat ``[n, lit_0 … lit_{n-1}]`` word block, the
solver's install input, so encoding once serves every install of a
clause (each depth's template grow, each incremental feed) without
flattening it again.  Every
depth-``k`` instance, :meth:`Unroller.formula_up_to` and
:meth:`Unroller.clauses_since` are O(1) views over a bounded prefix or
slice of the log (see :meth:`~repro.cnf.formula.CnfFormula.over_log`):
nothing is copied per depth, and a view stays fixed when a shared
unroller later encodes frames beyond it.  :class:`Clause` and
:class:`ClauseOrigin` values are built on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.circuit.netlist import Circuit, GateOp
from repro.circuit.ops import cone_of_influence
from repro.cnf.formula import Clause, ClauseLog, ClauseRun, CnfFormula
from repro.cnf.literals import lit_neg, mk_lit
from repro.encode.tseitin import gate_clauses


@dataclass(frozen=True)
class ClauseOrigin:
    """Provenance of one CNF clause.

    ``kind`` is ``"const"``, ``"init"``, ``"gate"`` or ``"property"``;
    ``net``/``frame`` locate the circuit element (−1 where meaningless).
    The abstraction module maps unsat cores back to circuit elements
    through these records (the paper's Fig. 3).
    """

    kind: str
    net: int
    frame: int


#: The stored form of a :class:`ClauseOrigin`: ``(kind, net, frame)``.
OriginRecord = Tuple[str, int, int]


class _LogView(Sequence):
    """Read-only sequence over entries ``start .. stop - 1`` of an
    append-only log; items are built from the stored records on access
    (:meth:`_make`)."""

    __slots__ = ("_log", "_start", "_stop")

    def __init__(self, log: Sequence, start: int, stop: int) -> None:
        self._log = log
        self._start = start
        self._stop = stop

    def _make(self, index: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("log view index out of range")
        return self._make(index)

    def __iter__(self) -> Iterator:
        make = self._make
        return (make(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, _LogView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class OriginView(_LogView):
    """The :class:`ClauseOrigin` of every clause of a formula view: the
    origin log's first ``stop`` records, then the view's own ``tail``
    (an instance's property clause)."""

    __slots__ = ("_tail",)

    def __init__(
        self, records: Sequence[OriginRecord], stop: int,
        tail: Sequence[OriginRecord] = (),
    ) -> None:
        super().__init__(records, 0, stop)
        self._tail = tail

    def __len__(self) -> int:
        return self._stop + len(self._tail)

    def _make(self, index: int) -> ClauseOrigin:
        stop = self._stop
        record = self._log[index] if index < stop else self._tail[index - stop]
        return ClauseOrigin(*record)


class ClauseSlice(_LogView):
    """``(Clause, ClauseOrigin)`` pairs over a slice of the unroller's
    clause log (what :meth:`Unroller.clauses_since` returns)."""

    __slots__ = ("_origins", "_words")

    def __init__(
        self,
        clauses: ClauseLog,
        origins: Sequence[OriginRecord],
        start: int,
        stop: int,
    ) -> None:
        super().__init__(clauses.tuples, start, stop)
        self._origins = origins
        self._words = clauses

    def _make(self, index: int) -> Tuple[Clause, ClauseOrigin]:
        at = self._start + index
        return Clause(self._log[at]), ClauseOrigin(*self._origins[at])

    def word_range(self) -> Tuple["array[int]", int, int]:
        """``(words, lo, hi)``: the slice's clauses as the flat blocks
        ``words[lo:hi]`` of the shared word log."""
        log = self._words
        return (
            log.words, log.word_offset(self._start), log.word_offset(self._stop)
        )

    def literals(self) -> ClauseRun:
        """The slice's literal tuples as stored (no value objects), with
        their word range — the incremental feed's path into
        ``CdclSolver.add_clauses``, which installs it without flattening."""
        words, lo, hi = self.word_range()
        return ClauseRun(self._log[self._start:self._stop], words, lo, hi)


class BmcInstance:
    """One depth-``k`` BMC SAT instance with provenance and decoding."""

    def __init__(
        self,
        unroller: "Unroller",
        k: int,
        formula: CnfFormula,
        origins: Sequence[ClauseOrigin],
        property_clause_index: int,
    ) -> None:
        self.unroller = unroller
        self.k = k
        self.formula = formula
        self.origins = origins
        self.property_clause_index = property_clause_index

    @property
    def circuit(self) -> Circuit:
        return self.unroller.circuit

    def lit_of(self, net: int, frame: int) -> int:
        """CNF literal of a circuit net at a time frame (0 .. k)."""
        if not 0 <= frame <= self.k:
            raise ValueError(f"frame {frame} outside 0..{self.k}")
        return self.unroller.lit_of(net, frame)

    def value_of(self, model: Sequence[int], net: int, frame: int) -> int:
        """Value of a net at a frame under a satisfying model."""
        lit = self.lit_of(net, frame)
        return model[lit >> 1] ^ (lit & 1)

    def origin_of(self, clause_index: int) -> ClauseOrigin:
        """Provenance of a clause of this instance's formula."""
        return self.origins[clause_index]


class Unroller:
    """Monotone unroller for one circuit + property pair.

    ``property_net`` is the net that must hold in every reachable state
    (the invariant ``P``); each instance asserts its negation at frame
    ``k``.  With ``use_coi=True``, only the property's sequential cone of
    influence is encoded (an ablation; the default matches Eq. 1's full
    transition relation).
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        use_coi: bool = False,
        constrain_init: bool = True,
        memoize_instances: bool = False,
    ) -> None:
        circuit.validate()
        if not 0 <= property_net < circuit.num_nets:
            raise ValueError(f"property net {property_net} does not exist")
        self.circuit = circuit
        self.property_net = property_net
        self.use_coi = use_coi
        self.constrain_init = constrain_init
        if use_coi:
            cone = cone_of_influence(circuit, [property_net])
            self._nets = [net for net in circuit.topological_order() if net in cone]
        else:
            self._nets = circuit.topological_order()
        net_set = set(self._nets)
        self.nets_inputs = tuple(n for n in circuit.inputs if n in net_set)
        self.nets_latches = tuple(n for n in circuit.latches if n in net_set)

        # Variable 0 is constant-true; clause 0 asserts it.  The clause
        # and origin logs are append-only (see the module docstring):
        # instance views rely on entries never changing once written.
        self._num_vars = 1
        self._log = ClauseLog()
        #: The log's tuple side: what the encoder appends to, and what
        #: instance views and slices index.
        self._clauses = self._log.tuples
        self._clauses.append((mk_lit(0),))
        self._origins: List[OriginRecord] = [("const", -1, -1)]
        self._lit_cache: Dict[Tuple[int, int], int] = {}
        self._var_frame: List[int] = [-1]  # allocation frame per variable
        self._frames_built = 0
        self._vars_after_frame: List[int] = []
        self._clauses_after_frame: List[int] = []
        # With memoize_instances, assembled BmcInstance views are kept
        # per depth and handed out shared.  Safe because instance(k) is
        # deterministic and consumers treat instances as read-only (the
        # solver copies clause literals into its own arena) — the basis
        # of the cross-strategy CNF cache (repro.bmc.cnf_cache).
        self._instance_memo: Optional[Dict[int, "BmcInstance"]] = (
            {} if memoize_instances else None
        )

    # -- variable management -------------------------------------------

    def _new_var(self, frame: int) -> int:
        var = self._num_vars
        self._num_vars += 1
        self._var_frame.append(frame)
        return var

    def lit_of(self, net: int, frame: int) -> int:
        """Packed literal of ``net`` at ``frame``; frames must be built."""
        try:
            return self._lit_cache[(net, frame)]
        except KeyError:
            raise KeyError(
                f"net {net} at frame {frame} is not encoded "
                f"(frames built: {self._frames_built}, coi={self.use_coi})"
            ) from None

    def value_of(self, model: Sequence[int], net: int, frame: int) -> int:
        """Value of ``net`` at ``frame`` under a model over this
        unroller's variables."""
        lit = self.lit_of(net, frame)
        return model[lit >> 1] ^ (lit & 1)

    def decode_inputs(self, model: Sequence[int], k: int) -> List[Dict[int, int]]:
        """Input vectors of frames ``0..k``, suitable for
        ``Circuit.simulate``."""
        return [
            {net: self.value_of(model, net, frame) for net in self.nets_inputs}
            for frame in range(k + 1)
        ]

    def decode_initial_state(self, model: Sequence[int]) -> Dict[int, int]:
        """Latch values at frame 0 (relevant for ``init=None`` latches)."""
        return {net: self.value_of(model, net, 0) for net in self.nets_latches}

    def var_frame(self, var: int) -> int:
        """The frame a CNF variable was allocated in (−1 for the constant).

        This is the "time axis" position used by the Shtrichman baseline
        ordering."""
        return self._var_frame[var]

    # -- frame construction ----------------------------------------------

    def _add_clause(self, lits: Sequence[int], origin: OriginRecord) -> None:
        self._clauses.append(tuple(lits))
        self._origins.append(origin)

    def ensure_frames(self, k: int) -> None:
        """Encode frames up to and including ``k``."""
        while self._frames_built <= k:
            self._build_frame(self._frames_built)
            self._frames_built += 1
            self._vars_after_frame.append(self._num_vars)
            self._clauses_after_frame.append(len(self._clauses))
            self._log.mark()

    def _build_frame(self, frame: int) -> None:
        circuit = self.circuit
        cache = self._lit_cache
        const_true = mk_lit(0)
        for net in self._nets:
            op = circuit.op_of(net)
            if op is GateOp.CONST0:
                cache[(net, frame)] = lit_neg(const_true)
            elif op is GateOp.CONST1:
                cache[(net, frame)] = const_true
            elif op is GateOp.INPUT:
                cache[(net, frame)] = mk_lit(self._new_var(frame))
            elif op is GateOp.LATCH:
                if frame == 0:
                    lit = mk_lit(self._new_var(0))
                    cache[(net, 0)] = lit
                    init = circuit.init_of(net)
                    if init is not None and self.constrain_init:
                        self._add_clause(
                            [lit if init == 1 else lit_neg(lit)],
                            ("init", net, 0),
                        )
                else:
                    cache[(net, frame)] = cache[(circuit.next_of(net), frame - 1)]
            elif op is GateOp.BUF:
                cache[(net, frame)] = cache[(circuit.fanins_of(net)[0], frame)]
            elif op is GateOp.NOT:
                cache[(net, frame)] = lit_neg(cache[(circuit.fanins_of(net)[0], frame)])
            else:
                base_op, negate = _ALIAS[op]
                fanin_lits = [cache[(f, frame)] for f in circuit.fanins_of(net)]
                out_var = self._new_var(frame)
                origin = ("gate", net, frame)
                for clause in gate_clauses(base_op, out_var, fanin_lits):
                    self._add_clause(clause, origin)
                lit = mk_lit(out_var)
                cache[(net, frame)] = lit_neg(lit) if negate else lit

    # -- incremental access (used by repro.bmc.incremental) ----------------

    @property
    def num_encoded_clauses(self) -> int:
        """Clauses encoded so far (over all built frames)."""
        return len(self._clauses)

    @property
    def num_encoded_vars(self) -> int:
        """Variable watermark over all built frames."""
        return self._num_vars

    def clauses_since(self, index: int, stop: Optional[int] = None) -> ClauseSlice:
        """Clauses (with provenance) added at or after cumulative index
        ``index`` — the delta an incremental solver must ingest after
        ``ensure_frames`` advanced.  ``stop`` bounds the delta at a
        cumulative index (e.g. a frame watermark): a *shared* unroller
        may hold frames beyond the consumer's current depth, and feeding
        those early would change search behaviour.  An O(1) view of
        ``(Clause, ClauseOrigin)`` pairs, fixed at the slice bounds of
        the call (``stop=None`` means the clauses encoded so far)."""
        end = len(self._clauses)
        start, stop, _ = slice(index, stop).indices(end)
        return ClauseSlice(self._log, self._origins, start, max(start, stop))

    def clause_watermark(self, k: int) -> int:
        """Cumulative clause count covering exactly frames ``0..k``
        (builds the frames if needed).  Independent of how many further
        frames a shared unroller has already encoded."""
        self.ensure_frames(k)
        return self._clauses_after_frame[k]

    def var_watermark(self, k: int) -> int:
        """Variable watermark covering exactly frames ``0..k`` (builds
        the frames if needed)."""
        self.ensure_frames(k)
        return self._vars_after_frame[k]

    def origin_of_clause(self, index: int) -> ClauseOrigin:
        """Provenance of a cumulative clause index (identical to the
        incremental solver's original-clause ID)."""
        return ClauseOrigin(*self._origins[index])

    def formula_up_to(self, k: int) -> Tuple[CnfFormula, OriginView]:
        """The transition formula for frames 0..k *without* any property
        clause (the k-induction engine asserts properties via
        assumptions instead) — a view over the clause log."""
        self.ensure_frames(k)
        num_clauses = self._clauses_after_frame[k]
        formula = CnfFormula.over_log(
            self._log, num_clauses, self._vars_after_frame[k]
        )
        return formula, OriginView(self._origins, num_clauses)

    # -- instance assembly -------------------------------------------------

    def instance(self, k: int) -> BmcInstance:
        """The depth-``k`` BMC instance (deterministic for every ``k``,
        independent of what was built before; memoized when the unroller
        was created with ``memoize_instances=True``).

        O(1) after the frames exist: the formula is a view over the
        clause log's frame-``k`` prefix, plus the property clause in the
        view's private tail."""
        if k < 0:
            raise ValueError("depth must be non-negative")
        if self._instance_memo is not None:
            memo = self._instance_memo.get(k)
            if memo is not None:
                return memo
        self.ensure_frames(k)
        num_clauses = self._clauses_after_frame[k]
        formula = CnfFormula.over_log(
            self._log, num_clauses, self._vars_after_frame[k]
        )
        property_lit = self.lit_of(self.property_net, k)
        property_index = formula.add_clause((lit_neg(property_lit),))
        origins = OriginView(
            self._origins, num_clauses, (("property", self.property_net, k),)
        )
        built = BmcInstance(self, k, formula, origins, property_index)
        if self._instance_memo is not None:
            self._instance_memo[k] = built
        return built


_ALIAS = {
    GateOp.AND: (GateOp.AND, False),
    GateOp.NAND: (GateOp.AND, True),
    GateOp.OR: (GateOp.OR, False),
    GateOp.NOR: (GateOp.OR, True),
    GateOp.XOR: (GateOp.XOR, False),
    GateOp.XNOR: (GateOp.XOR, True),
    GateOp.MUX: (GateOp.MUX, False),
}
