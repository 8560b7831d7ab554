"""Result types for BMC runs: statuses, per-depth statistics, traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.sat.types import SolveOutcome

if TYPE_CHECKING:
    from repro.encode.unroll import Unroller


class BmcStatus(enum.Enum):
    """Outcome of a bounded model checking run."""

    FAILED = "failed"  # counterexample found: the property is false
    PASSED_BOUNDED = "passed-bounded"  # no counterexample up to the bound
    BUDGET_EXHAUSTED = "budget-exhausted"  # a per-depth or global budget hit


@dataclass
class Trace:
    """A counterexample: per-frame input vectors and the initial state.

    Replaying ``inputs`` from ``initial_state`` through
    ``Circuit.simulate`` reaches a state violating the property at frame
    ``depth`` — the engine verifies this before returning.
    """

    depth: int
    inputs: List[Dict[int, int]]
    initial_state: Dict[int, int]
    property_net: int

    @classmethod
    def decode(
        cls,
        unroller: "Unroller",
        k: int,
        model: Sequence[int],
        property_net: int,
        verify: bool = True,
    ) -> "Trace":
        """The depth-``k`` counterexample in a satisfying ``model`` over
        ``unroller``'s variables (a one-shot instance's or a persistent
        solver's).  With ``verify`` it is re-simulated first."""
        trace = cls(
            depth=k,
            inputs=unroller.decode_inputs(model, k),
            initial_state=unroller.decode_initial_state(model),
            property_net=property_net,
        )
        if verify:
            frames = unroller.circuit.simulate(
                trace.inputs, initial_state=trace.initial_state
            )
            if frames[k][property_net] != 0:
                raise AssertionError(
                    "internal error: counterexample fails re-simulation"
                )
        return trace


@dataclass
class DepthStats:
    """Measurements for one BMC depth (one SAT instance).

    ``decisions`` and ``propagations`` are the series of the paper's
    Fig. 7; ``core_clauses``/``core_vars`` are sizes of the extracted
    unsatisfiable core (UNSAT depths only); ``switched`` reports whether a
    dynamic strategy fell back to VSIDS at this depth; ``root_pruned``
    counts clauses the solver's root-level watch pruning detached during
    this depth's solve (PR 3 observability hook); ``winner`` names the
    portfolio member whose solver decided this depth (portfolio engines
    only — ``None`` for single-strategy runs).  ``install_time`` is the
    wall time the engine spent installing this depth's clauses before
    the solve: the template grow plus the fork (one-shot engines), the
    frame batch (incremental engine).  Like ``solve_time`` it is a
    measurement only, never part of a search digest.
    """

    k: int
    status: str  # "sat" | "unsat" | "unknown"
    num_vars: int
    num_clauses: int
    decisions: int
    propagations: int
    conflicts: int
    solve_time: float
    core_clauses: Optional[int] = None
    core_vars: Optional[int] = None
    switched: Optional[bool] = None
    root_pruned: int = 0
    winner: Optional[str] = None
    install_time: float = 0.0

    @classmethod
    def from_outcome(
        cls,
        k: int,
        outcome: SolveOutcome,
        num_vars: int,
        num_clauses: int,
        **extras: Any,
    ) -> "DepthStats":
        """The record of depth ``k``'s solve over ``num_vars`` variables
        and ``num_clauses`` clauses: status, work counters, core sizes
        and root pruning from ``outcome``; ``extras`` set the engine's
        own fields (``switched``, ``winner``, ``install_time``) and may
        override the outcome's."""
        stats = outcome.stats
        fields: Dict[str, Any] = dict(
            core_clauses=(
                None if outcome.core_clauses is None else len(outcome.core_clauses)
            ),
            core_vars=None if outcome.core_vars is None else len(outcome.core_vars),
            root_pruned=stats.root_pruned_clauses,
        )
        fields.update(extras)
        return cls(
            k=k,
            status=outcome.status.value,
            num_vars=num_vars,
            num_clauses=num_clauses,
            decisions=stats.decisions,
            propagations=stats.propagations,
            conflicts=stats.conflicts,
            solve_time=stats.solve_time,
            **fields,
        )


@dataclass
class BmcResult:
    """Everything a BMC run produces."""

    status: BmcStatus
    depth_reached: int  # last depth whose SAT instance completed
    per_depth: List[DepthStats] = field(default_factory=list)
    trace: Optional[Trace] = None
    total_time: float = 0.0

    @property
    def total_decisions(self) -> int:
        return sum(d.decisions for d in self.per_depth)

    @property
    def total_propagations(self) -> int:
        return sum(d.propagations for d in self.per_depth)

    @property
    def total_conflicts(self) -> int:
        return sum(d.conflicts for d in self.per_depth)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.status.value} @k={self.depth_reached} "
            f"time={self.total_time:.3f}s decisions={self.total_decisions} "
            f"implications={self.total_propagations}"
        )
