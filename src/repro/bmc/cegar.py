"""Counterexample-guided abstraction refinement (CEGAR) for invariants.

The paper's Fig. 3/4 machinery — unsat cores as abstract models — comes
from the SAT-based abstraction-refinement line of work it cites as [3]
(Chauhan et al., FMCAD'02).  This module closes that loop:

1. **Abstract**: keep only a subset of latches; every other latch is cut
   into a fresh free input (an over-approximation — the abstract machine
   has strictly more behaviours).
2. **Check** the abstraction with BMC.  UNSAT at depth ``k`` for the
   abstraction implies UNSAT for the concrete design at ``k``.
3. **Concretize**: an abstract counterexample may be spurious.  Re-check
   the *concrete* design at exactly that depth; a SAT answer is a real
   counterexample.
4. **Refine**: if the concrete check is UNSAT, its unsatisfiable core
   names the latches whose constraints refuted the abstract trace — add
   them to the kept set and repeat (proof-based refinement: the paper's
   §3 core extraction doing double duty).

For designs where the property depends on a small state slice (the
regime the whole paper targets), the kept set stays small and every
abstract SAT instance is much cheaper than the concrete one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit, GateOp
from repro.circuit.ops import cone_of_influence
from repro.encode.unroll import Unroller
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveResult
from repro.bmc.abstraction import abstract_model
from repro.bmc.result import BmcStatus, Trace


def abstract_circuit(
    circuit: Circuit, kept_latches: Sequence[int]
) -> Tuple[Circuit, Dict[int, int]]:
    """Copy ``circuit`` with every latch outside ``kept_latches`` turned
    into a fresh free input.  Returns ``(abstraction, net_map)`` where
    ``net_map`` maps original nets to abstraction nets."""
    kept = set(kept_latches)
    for latch in sorted(kept):
        if circuit.op_of(latch) is not GateOp.LATCH:
            raise ValueError(f"net {latch} is not a latch")
    abstraction = Circuit(f"{circuit.name}_abs{len(kept)}")
    net_map: Dict[int, int] = {}
    for net in circuit.topological_order():
        op = circuit.op_of(net)
        name = circuit.name_of(net)
        if op is GateOp.INPUT:
            net_map[net] = abstraction.add_input(name)
        elif op is GateOp.LATCH:
            if net in kept:
                net_map[net] = abstraction.add_latch(name, init=circuit.init_of(net))
            else:
                net_map[net] = abstraction.add_input(f"cut_{name}")
        elif op is GateOp.CONST0:
            net_map[net] = abstraction.const(0)
        elif op is GateOp.CONST1:
            net_map[net] = abstraction.const(1)
        else:
            fanins = [net_map[f] for f in circuit.fanins_of(net)]
            net_map[net] = abstraction.add_gate(op, fanins)
    for latch in circuit.latches:
        if latch in kept:
            abstraction.set_next(net_map[latch], net_map[circuit.next_of(latch)])
    abstraction.validate()
    return abstraction, net_map


@dataclass
class CegarResult:
    """Outcome of a CEGAR run."""

    status: BmcStatus
    depth_reached: int
    iterations: int
    kept_latches: FrozenSet[int]
    trace: Optional[Trace] = None  # concrete counterexample if FAILED
    refinement_history: List[int] = field(default_factory=list)  # kept-set sizes
    total_time: float = 0.0

    @property
    def final_abstraction_ratio(self) -> float:
        """|kept latches| at convergence over total latches (set by the
        engine)."""
        return self._ratio

    _ratio: float = 0.0


class CegarBmc:
    """CEGAR-accelerated bounded invariant checking.

    ``initial_latches`` seeds the kept set (default: latches in the
    property's combinational support).  Each depth is first checked on
    the abstraction; spurious counterexamples trigger proof-based
    refinement using the concrete instance's unsat core.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        initial_latches: Optional[Sequence[int]] = None,
        solver_config: Optional[SolverConfig] = None,
        max_refinements: int = 100,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.property_net = property_net
        self.max_depth = max_depth
        self.solver_config = solver_config or SolverConfig()
        if not self.solver_config.record_cdg:
            raise ValueError("CEGAR requires CDG recording for refinement")
        self.max_refinements = max_refinements
        if initial_latches is None:
            from repro.circuit.ops import transitive_fanin

            support = transitive_fanin(circuit, [property_net])
            initial_latches = [l for l in circuit.latches if l in support]
        self.kept: Set[int] = set(initial_latches)
        self._concrete_unroller = Unroller(circuit, property_net)

    def _check_abstraction(self, k: int):
        abstraction, net_map = abstract_circuit(self.circuit, sorted(self.kept))
        unroller = Unroller(abstraction, net_map[self.property_net])
        outcome = CdclSolver(
            unroller.instance(k).formula, config=self.solver_config
        ).solve()
        return outcome

    def _check_concrete(self, k: int):
        instance = self._concrete_unroller.instance(k)
        solver = CdclSolver(instance.formula, config=self.solver_config)
        return instance, solver.solve()

    def run(self) -> CegarResult:
        """Execute the abstract/check/concretize/refine loop."""
        start = time.perf_counter()
        iterations = 0
        history: List[int] = [len(self.kept)]
        status = BmcStatus.PASSED_BOUNDED
        trace = None
        depth_reached = -1
        k = 0
        while k <= self.max_depth:
            iterations += 1
            if iterations > self.max_refinements + self.max_depth + 1:
                status = BmcStatus.BUDGET_EXHAUSTED
                break
            abstract_outcome = self._check_abstraction(k)
            if abstract_outcome.status is SolveResult.UNKNOWN:
                status = BmcStatus.BUDGET_EXHAUSTED
                break
            if abstract_outcome.status is SolveResult.UNSAT:
                # Over-approximation UNSAT => concrete UNSAT at this depth.
                depth_reached = k
                k += 1
                continue
            # Abstract counterexample: concretize at the same depth.
            instance, concrete_outcome = self._check_concrete(k)
            if concrete_outcome.status is SolveResult.UNKNOWN:
                status = BmcStatus.BUDGET_EXHAUSTED
                break
            if concrete_outcome.status is SolveResult.SAT:
                status = BmcStatus.FAILED
                depth_reached = k
                trace = Trace.decode(
                    self._concrete_unroller, k, concrete_outcome.model,
                    self.property_net,
                )
                break
            # Spurious: refine from the concrete core's latches.
            model = abstract_model(instance, concrete_outcome.core_clauses)
            new_latches = (set(model.latches) | self._core_latches(instance, concrete_outcome)) - self.kept
            if not new_latches:
                # Core adds nothing (it may avoid init clauses entirely);
                # fall back to keeping every latch in the core's gate
                # support to guarantee progress.
                support = cone_of_influence(self.circuit, list(model.gates) or [self.property_net])
                new_latches = {
                    l for l in self.circuit.latches if l in support
                } - self.kept
            if not new_latches:
                raise AssertionError(
                    "refinement made no progress (spurious cex persists)"
                )
            self.kept |= new_latches
            history.append(len(self.kept))
            depth_reached = max(depth_reached, k - 1)
            # Re-check the same depth with the refined abstraction.
        result = CegarResult(
            status=status,
            depth_reached=depth_reached,
            iterations=iterations,
            kept_latches=frozenset(self.kept),
            trace=trace,
            refinement_history=history,
            total_time=time.perf_counter() - start,
        )
        result._ratio = (
            len(self.kept) / len(self.circuit.latches)
            if self.circuit.latches
            else 0.0
        )
        return result

    def _core_latches(self, instance, outcome) -> Set[int]:
        """Latches whose init or next-state gate clauses appear in the
        core (refinement candidates)."""
        latches: Set[int] = set()
        gate_nets: Set[int] = set()
        for clause_index in outcome.core_clauses:
            origin = instance.origin_of(clause_index)
            if origin.kind == "init":
                latches.add(origin.net)
            elif origin.kind == "gate":
                gate_nets.add(origin.net)
        for latch in self.circuit.latches:
            if self.circuit.next_of(latch) in gate_nets:
                latches.add(latch)
        return latches
