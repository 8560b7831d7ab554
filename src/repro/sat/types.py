"""Shared result types for the SAT layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Optional

from repro.sat.stats import SolverStats


class SolveResult(enum.Enum):
    """Outcome of a SAT call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # a resource budget was exhausted


class AnalysisResult(NamedTuple):
    """One conflict analysis, finalized (post-minimization).

    Produced by ``CdclSolver._finish_analysis`` — the Python tail both
    kernels' first-UIP walks (python, or the fused native step) funnel
    through — and consumed by the search loop's conflict block.
    """

    #: The learned clause: asserting literal at position 0; when longer
    #: than one literal, a literal of the backjump level at position 1.
    learned: List[int]
    #: The level the search backjumps to (0 for a unit clause).
    backtrack_level: int
    #: Literal-block-distance of the learned clause: the number of
    #: distinct decision levels among its literals (glue metric).
    lbd: int
    #: Ordered resolvent list — the conflict clause first, then every
    #: reason clause consumed by the resolution walk, minimization
    #: proofs and the level-0 closure (a complete derivation for the
    #: CDG / proof replay).
    antecedents: List[int]


@dataclass
class SolveOutcome:
    """Everything a SAT call produces.

    ``model`` is present iff ``status is SAT``: a list with ``model[var]``
    in {0, 1} for every variable.

    ``core_clauses`` / ``core_vars`` are present iff ``status is UNSAT``
    and CDG recording was enabled: the unsatisfiable core as a set of
    *original* clause indices, and the set of variables appearing in those
    clauses (the paper's ``unsatVars``).

    ``failed_assumptions`` is non-None iff the solve was UNSAT *under
    assumptions* (incremental interface): the subset of assumption
    literals that participated in the refutation.  The core is then
    relative — unsatisfiable together with those assumptions.
    """

    status: SolveResult
    model: Optional[List[int]] = None
    core_clauses: Optional[FrozenSet[int]] = None
    core_vars: Optional[FrozenSet[int]] = None
    failed_assumptions: Optional[FrozenSet[int]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        return self.status is SolveResult.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolveResult.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is SolveResult.UNKNOWN
