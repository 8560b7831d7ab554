"""Simplified Conflict Dependency Graph (paper §3.1).

Chaff-style solvers periodically delete conflict clauses, which would break
the resolution bookkeeping needed to rebuild an unsatisfiable core.  The
paper's fix: keep — *separately from the clause database* — only the
dependency relation, with each clause replaced by an integer pseudo-ID.

This module is that structure.  Clause IDs are assigned by the solver:

* IDs ``0 .. num_original - 1`` are the original formula's clauses (their
  CNF-formula indices), which are the CDG's leaves;
* IDs ``>= num_original`` are conflict clauses, each mapped to the tuple of
  antecedent IDs that were resolved to derive it (including the reason
  chains of any eliminated level-0 literals, so every entry is a complete
  resolution derivation).

Deleting a conflict clause from the solver's database leaves its CDG entry
untouched, so the backward traversal from the final conflict always
reconstructs a complete core.

Flat storage (PR 4): the per-entry antecedent tuples now live in one
``array('i')`` — each entry is a length word followed by its antecedent
IDs, addressed by an offset map — mirroring the solver's clause arena.
A Table-1 row records tens of thousands of entries per depth; storing
them as boxed-int tuples cost ~90 bytes per antecedent where the flat
array costs 4.  The paper's "pseudo ID overhead"
(:meth:`memory_footprint`) is now literally the word count of that
array.  The public surface (``antecedents_of`` returning a tuple, the
validation rules) is unchanged.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Optional, Sequence, Tuple


class ConflictDependencyGraph:
    """Maps conflict-clause pseudo-IDs to their antecedent pseudo-IDs."""

    def __init__(self, num_original: int) -> None:
        if num_original < 0:
            raise ValueError("num_original must be non-negative")
        self._num_original = num_original
        self._extra_originals: set = set()
        # Flat antecedent store: entry for clause ``c`` occupies
        # ``_data[_offsets[c] - 1]`` (the antecedent count) followed by
        # that many antecedent IDs starting at ``_data[_offsets[c]]``.
        self._data = array("i")
        self._offsets: Dict[int, int] = {}
        self._final_antecedents: Optional[Tuple[int, ...]] = None

    @property
    def num_original(self) -> int:
        """Number of initially registered original (leaf) clauses."""
        return self._num_original

    @property
    def num_entries(self) -> int:
        """Number of recorded conflict clauses."""
        return len(self._offsets)

    def register_originals(self, first: int, stop: int) -> None:
        """Declare the later-added clauses ``first .. stop - 1`` leaves
        (one install batch of the incremental interface).

        Incremental solving interleaves original and conflict clause IDs;
        leaves added after construction are registered here.
        """
        ids = range(first, stop)
        if not self._offsets.keys().isdisjoint(ids):
            clause_id = next(c for c in ids if c in self._offsets)
            raise ValueError(f"clause id {clause_id} is a recorded conflict clause")
        if ids and first < self._num_original:
            raise ValueError(f"clause id {first} is already original")
        self._extra_originals.update(ids)

    def is_original(self, clause_id: int) -> bool:
        """True if the ID denotes an original clause (a leaf)."""
        return (0 <= clause_id < self._num_original) or clause_id in self._extra_originals

    def add(self, clause_id: int, antecedents: Sequence[int]) -> None:
        """Record a conflict clause's derivation.

        Every antecedent must be either an original clause or a previously
        recorded conflict clause (derivations are acyclic by construction).

        The antecedent list may cite *more* clauses than a strict
        trivial-resolution chain: learned-clause minimization appends
        the reason clauses its removal proofs consumed, and level-0
        elimination appends defining-unit chains.  Extra antecedents
        never hurt — reverse unit propagation only gets stronger with
        more clauses, and core extraction stays a sound over-
        approximation — so they are accepted here and merely deduplicated
        (first occurrence kept) to bound the pseudo-ID overhead.
        """
        if self.is_original(clause_id):
            raise ValueError(f"clause id {clause_id} collides with original clauses")
        offsets = self._offsets
        if clause_id in offsets:
            raise ValueError(f"clause id {clause_id} already recorded")
        antecedents = tuple(dict.fromkeys(antecedents))
        num_original = self._num_original
        extra = self._extra_originals
        for ant in antecedents:
            if (
                not (0 <= ant < num_original)
                and ant not in extra
                and ant not in offsets
            ):
                raise ValueError(
                    f"antecedent {ant} of clause {clause_id} is unknown"
                )
            if ant >= clause_id:
                raise ValueError(
                    f"antecedent {ant} of clause {clause_id} is not older"
                )
        data = self._data
        data.append(len(antecedents))
        offsets[clause_id] = len(data)
        data.extend(antecedents)

    def antecedents_of(self, clause_id: int) -> Tuple[int, ...]:
        """Antecedent tuple of a recorded conflict clause."""
        offset = self._offsets[clause_id]
        return tuple(self._data[offset:offset + self._data[offset - 1]])

    def set_final_conflict(self, antecedents: Sequence[int]) -> None:
        """Record the antecedents of the final (empty-clause) conflict."""
        for ant in antecedents:
            if not self.is_original(ant) and ant not in self._offsets:
                raise ValueError(f"final-conflict antecedent {ant} is unknown")
        self._final_antecedents = tuple(antecedents)

    @property
    def final_antecedents(self) -> Optional[Tuple[int, ...]]:
        return self._final_antecedents

    def unsat_core(self) -> FrozenSet[int]:
        """Original clause IDs reachable backward from the final conflict.

        This is the paper's core extraction: traverse the resolution graph
        from the empty clause toward the leaves; the original clauses
        encountered form an unsatisfiable core (Fig. 2).
        """
        if self._final_antecedents is None:
            raise RuntimeError("no final conflict recorded (formula not proven UNSAT)")
        data = self._data
        offsets = self._offsets
        core = set()
        visited = set()
        stack = list(self._final_antecedents)
        while stack:
            clause_id = stack.pop()
            if clause_id in visited:
                continue
            visited.add(clause_id)
            if self.is_original(clause_id):
                core.add(clause_id)
            else:
                offset = offsets[clause_id]
                stack.extend(data[offset:offset + data[offset - 1]])
        return frozenset(core)

    def reachable_conflict_clauses(self) -> FrozenSet[int]:
        """Conflict-clause IDs used by the final derivation (for proof
        replay and for measuring how much of the learning was relevant)."""
        if self._final_antecedents is None:
            raise RuntimeError("no final conflict recorded")
        data = self._data
        offsets = self._offsets
        used = set()
        visited = set()
        stack = list(self._final_antecedents)
        while stack:
            clause_id = stack.pop()
            if clause_id in visited:
                continue
            visited.add(clause_id)
            if not self.is_original(clause_id):
                used.add(clause_id)
                offset = offsets[clause_id]
                stack.extend(data[offset:offset + data[offset - 1]])
        return frozenset(used)

    def memory_footprint(self) -> int:
        """Approximate entry count (IDs stored), the paper's "pseudo ID
        overhead" — used by the CDG-overhead benchmark.  With the flat
        store this is exactly the antecedent array's word count (one
        length word plus the IDs per entry)."""
        return len(self._data)
