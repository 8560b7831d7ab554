"""Result types for BMC runs: statuses, per-depth statistics, traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sat.stats import SolverStats


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
