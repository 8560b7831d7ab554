"""Counters collected during a SAT solve.

``decisions`` and ``propagations`` are the quantities plotted in the
paper's Fig. 7 ("Number of Decisions" / "Number of Implications").
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Union


@dataclass
class SolverStats:
    """Per-solve counters; cheap plain ints, updated in the hot loops."""

    decisions: int = 0
    propagations: int = 0  # the paper's "implications"
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    cdg_entries: int = 0
    solve_time: float = 0.0
    # Learned-clause length accounting (conflict-analysis quality):
    # literal totals before and after self-subsumption minimization,
    # plus the literals the minimizer deleted.
    learned_literals_before_min: int = 0
    learned_literals: int = 0
    minimized_literals: int = 0
    # Sum of learned-clause LBDs (distinct decision levels per clause,
    # post-minimization); with learned_clauses this gives the mean glue
    # — the conflict-analysis quality metric the kernels must agree on
    # exactly.
    learned_lbd_sum: int = 0
    # Clauses detached by root-level watch pruning during this solve
    # (satisfied forever by a level-0 assignment; see
    # SolverConfig.prune_root_satisfied).
    root_pruned_clauses: int = 0
    # Flat clause-store maintenance: in-place arena compactions run
    # during this solve and the literal words they reclaimed (only
    # possible without CDG recording, which pins deleted clauses for
    # proof export).
    arena_compactions: int = 0
    arena_reclaimed_words: int = 0
    # Portfolio clause sharing: learned clauses short enough to export
    # (SolverConfig.export_learned_max_len) buffered during this solve,
    # and peer clauses installed through the shared-clause import path
    # (between-solve imports are credited to the following solve, like
    # pending load propagations).
    exported_clauses: int = 0
    imported_clauses: int = 0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Every counter by field name, in declaration order.

        This is the single export surface: the metrics publisher, the
        bench harness, and the experiments tables all consume it, so a
        newly added counter flows everywhere at once (a test pins the
        key set to the dataclass fields, so nothing can silently fall
        out of the export).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def mean_learned_length(self) -> float:
        """Mean length of learned clauses as installed (post-minimization)."""
        if not self.learned_clauses:
            return 0.0
        return self.learned_literals / self.learned_clauses

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another solve's counters into this one (used by the
        BMC engine to aggregate over depths)."""
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned_clauses += other.learned_clauses
        self.deleted_clauses += other.deleted_clauses
        self.max_decision_level = max(self.max_decision_level, other.max_decision_level)
        self.cdg_entries += other.cdg_entries
        self.solve_time += other.solve_time
        self.learned_literals_before_min += other.learned_literals_before_min
        self.learned_literals += other.learned_literals
        self.minimized_literals += other.minimized_literals
        self.learned_lbd_sum += other.learned_lbd_sum
        self.root_pruned_clauses += other.root_pruned_clauses
        self.arena_compactions += other.arena_compactions
        self.arena_reclaimed_words += other.arena_reclaimed_words
        self.exported_clauses += other.exported_clauses
        self.imported_clauses += other.imported_clauses
