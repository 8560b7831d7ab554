"""Structural analyses over circuits.

``cone_of_influence`` implements the classic sequential COI reduction
(which the full-model encoding of Eq. 1 does *not* apply by default; it is
available as an option and an ablation — see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.circuit.netlist import Circuit, GateOp


def transitive_fanin(circuit: Circuit, roots: Iterable[int]) -> FrozenSet[int]:
    """All nets reachable backward through combinational fanins only
    (stops at latches and inputs, which are included but not crossed)."""
    visited: Set[int] = set()
    stack = list(roots)
    while stack:
        net = stack.pop()
        if net in visited:
            continue
        visited.add(net)
        stack.extend(circuit.fanins_of(net))
    return frozenset(visited)


def cone_of_influence(circuit: Circuit, roots: Iterable[int]) -> FrozenSet[int]:
    """Sequential cone of influence: transitive fanin crossing latches
    through their next-state nets until a fixpoint."""
    visited: Set[int] = set()
    stack = list(roots)
    while stack:
        net = stack.pop()
        if net in visited:
            continue
        visited.add(net)
        stack.extend(circuit.fanins_of(net))
        if circuit.op_of(net) is GateOp.LATCH:
            stack.append(circuit.next_of(net))
    return frozenset(visited)


def logic_levels(circuit: Circuit) -> List[int]:
    """Combinational depth of every net (sources are level 0)."""
    levels = [0] * circuit.num_nets
    for net in circuit.topological_order():
        fanins = circuit.fanins_of(net)
        if fanins:
            levels[net] = 1 + max(levels[f] for f in fanins)
    return levels


@dataclass(frozen=True)
class CircuitStats:
    """Size summary of a circuit."""

    num_inputs: int
    num_latches: int
    num_gates: int
    max_level: int

    def __str__(self) -> str:
        return (
            f"inputs={self.num_inputs} latches={self.num_latches} "
            f"gates={self.num_gates} depth={self.max_level}"
        )


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Compute a :class:`CircuitStats` summary."""
    levels = logic_levels(circuit)
    return CircuitStats(
        num_inputs=len(circuit.inputs),
        num_latches=len(circuit.latches),
        num_gates=len(circuit.gates()),
        max_level=max(levels) if levels else 0,
    )
