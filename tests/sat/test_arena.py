"""Tests of the flat clause arena (PR 4 tentpole).

Three families:

* unit — block layout, flags, tombstones and in-place compaction of
  :class:`repro.sat.arena.ClauseArena` itself;
* equivalence — the python and native kernels, both aliasing the same
  ``array('i')`` store, drive bit-identical searches and leave
  byte-identical storage;
* solver integration — footprint reporting, literal retention for
  proofs, and compaction during learned-DB reduction without a CDG.
"""

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, ClauseArena, SolverConfig
from repro.sat.arena import (
    HEADER_WORDS,
    INACTIVE,
    LEARNED,
    TOMBSTONE,
    ClauseArenaFullError,
)
from repro.sat.kernel import native_available
from repro.workloads.cnf_families import pigeonhole
from tests.conftest import random_formula

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel cannot be built here"
)


class TestArenaUnit:
    def test_add_and_literals_roundtrip(self):
        arena = ClauseArena()
        cid0 = arena.add((0, 2, 5))
        cid1 = arena.add((4, 7), LEARNED)
        cid2 = arena.add((), INACTIVE)
        assert (cid0, cid1, cid2) == (0, 1, 2)
        assert arena.literals(0) == (0, 2, 5)
        assert arena.literals(1) == (4, 7)
        assert arena.literals(2) == ()
        assert arena.length(0) == 3 and arena.length(2) == 0
        assert not arena.is_learned(0) and arena.is_learned(1)
        assert arena.is_inactive(2)

    def test_header_words_mirror_flags(self):
        arena = ClauseArena()
        cid = arena.add((2, 4, 6))
        base = arena.refs[cid]
        assert arena.data[base - 1] == 3  # length word
        assert arena.data[base - 2] == 0  # flags word
        arena.set_flag(cid, TOMBSTONE)
        assert arena.data[base - 2] & TOMBSTONE
        assert arena.flags[cid] & TOMBSTONE

    def test_tombstone_counts_dead_words_once(self):
        arena = ClauseArena()
        cid = arena.add((0, 2, 4, 6))
        arena.tombstone(cid)
        arena.tombstone(cid)
        assert arena.dead_words == HEADER_WORDS + 4

    def test_compact_slides_live_blocks_and_keeps_ids(self):
        arena = ClauseArena()
        kept_a = arena.add((0, 2))
        doomed = arena.add((4, 6, 8))
        kept_b = arena.add((1, 3, 5, 7))
        arena.tombstone(doomed)
        before = len(arena.data)
        reclaimed = arena.compact()
        assert reclaimed == HEADER_WORDS + 3
        assert len(arena.data) == before - reclaimed
        # IDs are stable; only offsets moved.
        assert arena.literals(kept_a) == (0, 2)
        assert arena.literals(kept_b) == (1, 3, 5, 7)
        assert arena.refs[doomed] == -1
        with pytest.raises(ValueError):
            arena.literals(doomed)
        # Idempotent once clean.
        assert arena.compact() == 0

    def test_footprint_reports_ratio(self):
        arena = ClauseArena()
        arena.add((0, 2, 4))
        arena.add((1, 3))
        arena.tombstone(1)
        fp = arena.footprint()
        assert fp["literal_words"] == 2 * HEADER_WORDS + 5
        assert fp["dead_words"] == HEADER_WORDS + 2
        assert 0 < fp["tombstone_ratio"] < 1
        assert fp["clauses"] == 2
        assert fp["bytes"] > 0


@needs_native
class TestStorageEquivalence:
    """The python and native kernels both mutate the shared arena (long
    clauses' watch positions are swapped in place during BCP); they must
    walk identical searches *and* leave byte-identical clause storage."""

    def _stats(self, formula, kernel):
        solver = CdclSolver(formula, config=SolverConfig(kernel=kernel))
        outcome = solver.solve()
        stats = outcome.stats
        arena = solver._arena
        return (
            outcome.status,
            stats.decisions,
            stats.conflicts,
            stats.propagations,
            stats.learned_literals,
            outcome.core_clauses,
            arena.data.tobytes(),
            arena.refs.tobytes(),
            bytes(arena.flags),
        )

    def test_pigeonhole_identical(self):
        formula = pigeonhole(5)
        assert self._stats(formula, "python") == self._stats(formula, "native")

    def test_random_instances_identical(self, rng):
        for _ in range(25):
            formula = random_formula(rng, rng.randint(3, 10), rng.randint(4, 40))
            assert self._stats(formula, "python") == self._stats(
                formula, "native"
            )


class TestSolverIntegration:
    def test_deleted_clause_literals_retained_with_cdg(self):
        formula = pigeonhole(6)
        # CDG on: literals pinned for proofs.  A low deletion ceiling
        # forces the learned-DB reduction to actually run here.
        solver = CdclSolver(
            formula, config=SolverConfig(reduce_base=20, reduce_growth=1.01)
        )
        solver.solve()
        assert solver.stats.deleted_clauses > 0
        deleted = [
            cid for cid in solver._learned_ids
            if solver._arena.is_tombstone(cid)
        ]
        assert deleted
        for cid in deleted[:10]:
            assert len(solver.clause_literals(cid)) >= 3
        # Pinned blocks mean no compaction ran.
        assert solver.stats.arena_compactions == 0
        assert solver._arena.dead_words > 0

    def test_compaction_reclaims_without_cdg(self):
        formula = pigeonhole(7)
        solver = CdclSolver(
            formula,
            config=SolverConfig(record_cdg=False, max_conflicts=4000),
        )
        solver.solve()
        assert solver.stats.deleted_clauses > 0
        footprint = solver.arena_footprint()
        if solver.stats.arena_compactions:
            assert solver.stats.arena_reclaimed_words > 0
            # Compaction keeps the dead fraction below the trigger.
            assert footprint["tombstone_ratio"] < 0.5 + 1e-9
            live = [
                cid for cid in solver._learned_ids
                if not solver._arena.is_tombstone(cid)
            ]
            for cid in live[:10]:  # live blocks survived the slide
                assert solver.clause_literals(cid)

    def test_footprint_exposed_by_solver(self):
        solver = CdclSolver(pigeonhole(4))
        fp = solver.arena_footprint()
        assert fp["clauses"] == pigeonhole(4).num_clauses
        assert fp["dead_words"] == 0


class TestArenaCapacity:
    """The word-limit ratchet (PR 7 satellite): past ``word_limit``
    words the arena refuses cleanly instead of corrupting 32-bit
    offset arithmetic.  The ceiling is mocked small — constructing a
    2-billion-word store to test the real one is not an option."""

    def test_add_raises_clean_memory_error_at_ceiling(self, monkeypatch):
        monkeypatch.setattr(ClauseArena, "word_limit", 16)
        arena = ClauseArena()
        arena.add((0, 2, 5))        # 5 words
        arena.add((4, 7, 9, 11))    # 11 words
        with pytest.raises(ClauseArenaFullError) as excinfo:
            arena.add((1, 3, 5, 7))  # would be 17 > 16
        message = str(excinfo.value)
        assert "clause arena full" in message
        assert "17 words" in message
        assert "capped at 16" in message
        assert "footprint" in message
        # The refusal is a MemoryError (the advertised contract) and
        # left the store untouched — same clause count, same words,
        # and the arena still works below the ceiling.
        assert isinstance(excinfo.value, MemoryError)
        assert len(arena) == 2
        assert len(arena.data) == 11
        cid = arena.add((8,))  # 14 words: still fits
        assert arena.literals(cid) == (8,)

    def test_solver_bulk_install_hits_ceiling(self, monkeypatch):
        # The constructor's bulk install bypasses arena.add for speed;
        # it must enforce the same ceiling with the same error.
        monkeypatch.setattr(ClauseArena, "word_limit", 12)
        formula = CnfFormula(4)
        formula.add_clause([0, 2, 4])  # 5 words
        formula.add_clause([1, 3, 5])  # 10 words
        formula.add_clause([2, 4, 6])  # would be 15 > 12
        with pytest.raises(ClauseArenaFullError, match="clause arena full"):
            CdclSolver(formula).solve()

    @pytest.mark.parametrize(
        "kernel", ["python", pytest.param("native", marks=needs_native)]
    )
    def test_incremental_add_clause_hits_ceiling(self, kernel, monkeypatch):
        monkeypatch.setattr(ClauseArena, "word_limit", 10)
        solver = CdclSolver(CnfFormula(3), config=SolverConfig(kernel=kernel))
        solver.add_clause([0, 2, 4])  # 5 words
        with pytest.raises(MemoryError, match="clause arena full"):
            solver.add_clause([1, 3, 5, 0])  # would be 11 > 10

    @pytest.mark.parametrize("refusal", ["bad_literal", "word_limit"])
    @pytest.mark.parametrize(
        "kernel", ["python", pytest.param("native", marks=needs_native)]
    )
    def test_refused_batch_leaves_live_solver_untouched(
        self, kernel, refusal, monkeypatch
    ):
        # The batch starts with a unit and a clause that meets a root
        # fact: an install loop that validated clause by clause would
        # already have enqueued, counted and flagged them when the last
        # clause is refused.
        config = SolverConfig(kernel=kernel)

        def live_solver():
            solver = CdclSolver(CnfFormula(4), config=config)
            solver.add_clauses([(0, 2), (1, 4), (6,)])  # 11 words
            assert solver.solve().is_sat
            return solver

        solver = live_solver()

        def snapshot():
            return (
                len(solver._arena),
                len(solver._arena.data),
                list(solver._lit_counts),
                list(solver._trail[:solver._trail_len]),
                len(solver._kernel.mirror.data),
                len(solver._kernel.mirror.refs),
            )

        before = snapshot()
        batch = [(3,), (7, 5), (1, 3, 5, 6)]  # 3 + 4 + 6 words
        if refusal == "bad_literal":
            batch.append((2, 9))  # variable 4 does not exist
            with pytest.raises(ValueError, match="variable 4"):
                solver.add_clauses(batch)
        else:
            monkeypatch.setattr(ClauseArena, "word_limit", 20)
            with pytest.raises(ClauseArenaFullError, match="24 words"):
                solver.add_clauses(batch)
        assert snapshot() == before
        outcome = solver.solve()
        reference = live_solver().solve()
        assert outcome.status is reference.status
        assert outcome.model == reference.model
        assert outcome.stats.decisions == reference.stats.decisions

    def test_real_ceiling_is_int32_max(self):
        from repro.sat.arena import WORD_LIMIT

        assert ClauseArena.word_limit == WORD_LIMIT == 2**31 - 1
