"""Temporal induction (k-induction) on top of the BMC substrate.

Eén & Sörensson's method (the paper's reference [5]) extends BMC from
bounded refutation to unbounded *proof*:

* **Base case** (= BMC at depth ``k``): no state reachable in exactly
  ``k`` steps from the initial states violates ``P``.
* **Step case**: any path of ``k+1`` consecutive states satisfying ``P``
  (with *no* initial-state constraint) cannot be followed by a state
  violating ``P``.  Asserted via assumptions:
  ``P(V_0) .. P(V_k), not P(V_{k+1})`` — UNSAT means ``P`` is
  (k+1)-inductive, so together with the base cases the property holds in
  every reachable state.

Plain k-induction may never converge (a non-inductive invariant admits
ever-longer pseudo-paths of ``P``-states).  The standard fix is the
**unique-states** (simple-path) constraint: all ``k+2`` states on the
step path must be pairwise distinct, which guarantees termination at the
recurrence diameter.  Implemented as pairwise difference clauses over the
latch variables, with XOR-defined difference bits.

The base cases are the depths of one :class:`~repro.bmc.engine.BmcEngine`
run over one unroller and one growing install template, so each base
frame is encoded and installed once per run; the step case at ``k`` runs
after the UNSAT base case at ``k`` (the engine's ``on_unsat`` step) and
ends the run when it proves the property or exhausts its budget.  The
step cases share one unroller without the initial-state constraint.

The recurrence-diameter query of Biere et al. (completeness thresholds)
is exposed separately as :func:`recurrence_diameter_at_least`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.cnf.formula import CnfFormula
from repro.cnf.literals import lit_neg, mk_lit
from repro.encode.tseitin import gate_clauses
from repro.encode.unroll import Unroller
from repro.circuit.netlist import GateOp
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveOutcome, SolveResult
from repro.bmc.engine import BmcEngine
from repro.bmc.result import BmcStatus, DepthStats, Trace


class InductionStatus(enum.Enum):
    """Outcome of a k-induction run."""

    PROVED = "proved"  # the invariant holds in all reachable states
    FAILED = "failed"  # a real counterexample exists (base case SAT)
    UNKNOWN = "unknown"  # bound or budget exhausted before convergence


@dataclass
class InductionResult:
    """Everything a k-induction run produces."""

    status: InductionStatus
    k: int  # depth at which the run concluded (or gave up)
    trace: Optional[Trace] = None
    base_stats: List[DepthStats] = field(default_factory=list)
    step_stats: List[DepthStats] = field(default_factory=list)
    total_time: float = 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return f"{self.status.value} @k={self.k} time={self.total_time:.3f}s"


def _add_unique_states(
    formula: CnfFormula,
    unroller: Unroller,
    num_frames: int,
) -> None:
    """Constrain the latch states of frames ``0..num_frames-1`` to be
    pairwise distinct (the simple-path condition)."""
    latches = unroller.nets_latches
    if not latches:
        return
    state_lits = [
        [unroller.lit_of(net, frame) for net in latches]
        for frame in range(num_frames)
    ]
    for i in range(num_frames):
        for j in range(i + 1, num_frames):
            difference_bits = []
            for lit_i, lit_j in zip(state_lits[i], state_lits[j]):
                diff = formula.new_var()
                for clause in gate_clauses(GateOp.XOR, diff, [lit_i, lit_j]):
                    formula.add_clause(clause)
                difference_bits.append(mk_lit(diff))
            formula.add_clause(difference_bits)


class KInductionEngine:
    """Prove or refute an invariant with temporal induction.

    ``unique_states=True`` (default) adds simple-path constraints to the
    step case, which makes the method complete.  The base case is the
    plain BMC depth loop; a SAT base case yields a verified
    counterexample.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_k: int,
        unique_states: bool = True,
        solver_config: Optional[SolverConfig] = None,
        time_budget: Optional[float] = None,
    ) -> None:
        if max_k < 0:
            raise ValueError("max_k must be non-negative")
        self.circuit = circuit
        self.property_net = property_net
        self.max_k = max_k
        self.unique_states = unique_states
        self.solver_config = solver_config or SolverConfig()
        self.time_budget = time_budget
        # Base unroller (with init); step unroller (without).
        self._base_unroller = Unroller(circuit, property_net)
        self._step_unroller = Unroller(circuit, property_net, constrain_init=False)

    def _step_case_holds(self, k: int, step_stats: List[DepthStats]) -> Optional[bool]:
        """True if P is (k+1)-inductive; None on budget exhaustion."""
        unroller = self._step_unroller
        formula, _ = unroller.formula_up_to(k + 1)
        if self.unique_states:
            formula = formula.copy()
            _add_unique_states(formula, unroller, k + 2)
        assumptions = [
            unroller.lit_of(self.property_net, frame) for frame in range(k + 1)
        ]
        assumptions.append(lit_neg(unroller.lit_of(self.property_net, k + 1)))
        solver = CdclSolver(formula, config=self.solver_config)
        outcome = solver.solve(assumptions=assumptions)
        # A step-case record carries no core or pruning counts.
        step_stats.append(
            DepthStats.from_outcome(
                k, outcome, formula.num_vars, formula.num_clauses,
                core_clauses=None, core_vars=None, root_pruned=0,
            )
        )
        if outcome.status is SolveResult.UNKNOWN:
            return None
        return outcome.status is SolveResult.UNSAT

    def run(self) -> InductionResult:
        """Interleave base and step cases for k = 0..max_k."""
        start = time.perf_counter()
        base = _BaseCases(self)
        base_result = base.run()
        if base_result.status is BmcStatus.FAILED:
            status = InductionStatus.FAILED
        elif base.step_holds:
            status = InductionStatus.PROVED
        else:
            status = InductionStatus.UNKNOWN
        per_depth = base_result.per_depth
        return InductionResult(
            status=status,
            # The last base case run: the refuting or proving depth, the
            # one whose budget ran out, or max_k.
            k=per_depth[-1].k if per_depth else -1,
            trace=base_result.trace,
            base_stats=per_depth,
            step_stats=base.step_stats,
            total_time=time.perf_counter() - start,
        )


class _BaseCases(BmcEngine):
    """The base cases of one k-induction run: the BMC depth loop over
    ``k = 0..max_k``, whose refinement step is the step case at ``k``.
    A step case that proves the property (``step_holds``) or exhausts
    its budget ends the run."""

    def __init__(self, induction: KInductionEngine) -> None:
        super().__init__(
            induction.circuit, induction.property_net, induction.max_k,
            solver_config=induction.solver_config,
            time_budget=induction.time_budget,
            unroller=induction._base_unroller,
        )
        self._step_case_holds = induction._step_case_holds
        self.step_stats: List[DepthStats] = []
        self.step_holds: Optional[bool] = False

    def on_unsat(self, k: int, outcome: SolveOutcome) -> bool:
        self.step_holds = self._step_case_holds(k, self.step_stats)
        return self.step_holds is not False


def recurrence_diameter_at_least(
    circuit: Circuit,
    property_net: int,
    length: int,
    solver_config: Optional[SolverConfig] = None,
) -> Optional[bool]:
    """Is there a *simple* (all-states-distinct) initialized path of
    ``length`` transitions?

    The largest such ``length`` is the recurrence diameter — a
    completeness threshold for BMC (Biere et al. [1]): once BMC has
    checked every depth up to it, the property is proved.  Returns None
    if the solver budget is exhausted.
    """
    unroller = Unroller(circuit, property_net)
    formula, _ = unroller.formula_up_to(length)
    formula = formula.copy()
    _add_unique_states(formula, unroller, length + 1)
    outcome = CdclSolver(formula, config=solver_config).solve()
    if outcome.status is SolveResult.UNKNOWN:
        return None
    return outcome.status is SolveResult.SAT
