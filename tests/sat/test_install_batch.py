"""The native install loop against the reference loop, word for word.

``CdclSolver._install`` runs the per-clause install loop in C on the
native kernel (``install_batch``, over a clause run's flat words) and
the reference loop in Python on the python kernel
(``CdclSolver._install_tuples``).  These tests install identical batches
on both kernels and compare everything an install writes: the arena
words, refs and flags; the install-order mirror, word for word; the
three per-table watch-ID lists; literal counts; the trail,
levels and reasons; root-pruned clauses; pending load propagations and
the UNSAT flag.  The batches are differential-fuzzer formulas, every
frame prefix of the pinned ``small_suite()`` rows (as template grows
and forks, and as ``add_clauses`` batches into a live solver), and
crafted batches for each case the loop distinguishes.  The crafted
cases also assert their expected outcome on whichever kernels exist, so
hosts without a C compiler still check the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.bmc.incremental import feed_frames
from repro.cnf import CnfFormula, lit_neg
from repro.encode.unroll import Unroller
from repro.sat import CdclSolver, InstallTemplate, SolverConfig
from repro.sat.arena import INACTIVE, ClauseArena, ClauseArenaFullError
from repro.sat.kernel import native_available
from repro.workloads import small_suite
from tests.properties.test_solver_differential import make_instance

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel not buildable here"
)
KERNELS = ["python", pytest.param("native", marks=needs_native)]
AVAILABLE = ["python", "native"] if native_available() else ["python"]


def record_attaches(solver: CdclSolver) -> list:
    """Wrap the solver's live ``attach_all`` to record every batch's
    watch-ID lists (a live solver's installs do not keep them)."""
    calls: list = []
    attach_all = solver._kernel.attach_all

    def recording(bin_ids, tern_ids, long_ids):
        calls.append([list(bin_ids), list(tern_ids), list(long_ids)])
        attach_all(bin_ids, tern_ids, long_ids)

    solver._kernel.attach_all = recording
    return calls


def install_state(solver: CdclSolver, attaches=None) -> dict:
    """Everything an install writes, as plain values."""
    arena = solver._arena
    nv = solver.num_vars
    mirror = solver._kernel.mirror
    watch_ids = solver._watch_ids
    cdg = solver._cdg
    return {
        "arena.data": arena.data.tolist(),
        "arena.refs": arena.refs.tolist(),
        "arena.flags": bytes(arena.flags),
        "mirror": [mirror.entries(cid) for cid in range(len(mirror.refs))],
        "mirror.raw": (mirror.data.tolist(), mirror.refs.tolist(), mirror.dead),
        "watch_ids": (
            [ids.tolist() for ids in watch_ids] if watch_ids is not None
            else attaches
        ),
        "lit_counts": solver._lit_counts[:2 * nv].tolist(),
        "truth": bytes(solver.lit_truth[:2 * nv]),
        "trail": solver._trail[:solver._trail_len].tolist(),
        "levels": solver._levels[:nv].tolist(),
        "reasons": solver._reasons[:nv].tolist(),
        "root_pruned": sorted(solver._root_pruned),
        "pending_root_pruned": solver._pending_root_pruned,
        "pending_props": solver._pending_load_propagations,
        "root_units": dict(solver._root_unit_of),
        "original_literals": solver.num_original_literals(),
        "ok": solver._ok,
        "final": None if cdg is None or solver._ok else list(cdg.final_antecedents),
    }


def assert_same(states: dict, context) -> None:
    reference = states["python"]
    for kernel, state in states.items():
        for key in reference:
            assert state[key] == reference[key], (context, kernel, key)


# -- differential: fuzzer formulas -----------------------------------------


@needs_native
@pytest.mark.parametrize("prune", [True, False])
def test_fuzzer_formulas_as_template_and_fork(prune):
    """Each formula installs as a template over its first half, grown by
    a second template (the fork path) over the whole."""
    for index in range(60):
        formula, _expected = make_instance(index)
        half = CnfFormula(formula.num_vars)
        for i in range(formula.num_clauses // 2):
            half.add_clause(formula.literals(i))
        states = {}
        for kernel in AVAILABLE:
            config = SolverConfig(kernel=kernel, prune_root_satisfied=prune)
            prefix = InstallTemplate(half, config)
            states[kernel] = install_state(
                InstallTemplate(formula, config, prefix)
            )
        assert_same(states, index)


@needs_native
def test_fuzzer_formulas_as_batches_between_solves():
    """Live batches after root facts and learned clauses: each chunk
    is added after solving the previous ones."""
    for index in range(40):
        formula, _expected = make_instance(index)
        clauses = list(formula.iter_literals())
        chunks = [clauses[i:i + 7] for i in range(0, len(clauses), 7)]
        states = {}
        for kernel in AVAILABLE:
            solver = CdclSolver(CnfFormula(formula.num_vars),
                                config=SolverConfig(kernel=kernel))
            attaches = record_attaches(solver)
            for chunk in chunks:
                solver.add_clauses(chunk)
                if solver.solve().is_unsat:
                    break
            states[kernel] = install_state(solver, attaches)
        assert_same(states, index)


def _messy_batch(rng: random.Random, num_vars: int, size: int) -> list:
    """Clauses of 0-7 literals with duplicates and complements."""
    batch = []
    for _ in range(size):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4, 5, 7))
        lits = [rng.randrange(2 * num_vars) for _ in range(width)]
        if rng.random() < 0.3:
            lits.append(lits[0])
        if rng.random() < 0.05:
            lits.append(lits[-1] ^ 1)
        batch.append(lits)
    return batch


@needs_native
@pytest.mark.parametrize("prune", [True, False])
def test_messy_batches_between_solves(prune):
    for seed in range(30):
        rng = random.Random(seed)
        num_vars = rng.randint(6, 14)
        batches = [_messy_batch(rng, num_vars, rng.randint(1, 12))
                   for _ in range(6)]
        assumptions = [2 * rng.randrange(num_vars) for _ in batches]
        states = {}
        for kernel in AVAILABLE:
            solver = CdclSolver(
                CnfFormula(num_vars),
                config=SolverConfig(kernel=kernel, prune_root_satisfied=prune),
            )
            attaches = record_attaches(solver)
            for batch, assumption in zip(batches, assumptions):
                solver.add_clauses(batch)
                solver.solve(assumptions=[assumption])
            states[kernel] = install_state(solver, attaches)
        assert_same(states, seed)


# -- differential: every frame prefix of the pinned rows -------------------


@needs_native
@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("row", small_suite(), ids=lambda row: row.name)
def test_every_frame_prefix_as_template_grow_and_fork(row, prune):
    circuit, prop = row.build()
    unroller = Unroller(circuit, prop)
    templates = {kernel: None for kernel in AVAILABLE}
    for k in range(row.max_depth + 1):
        prefix, _origins = unroller.formula_up_to(k)
        grown, forked = {}, {}
        for kernel in AVAILABLE:
            config = SolverConfig(kernel=kernel, prune_root_satisfied=prune)
            templates[kernel] = InstallTemplate(prefix, config, templates[kernel])
            grown[kernel] = install_state(templates[kernel])
            fork = CdclSolver(unroller.instance(k).formula, config=config,
                              template=templates[kernel])
            forked[kernel] = dict(
                install_state(fork), watch_ids=fork._kernel.watch_snapshot()
            )
        assert_same(grown, (row.name, k, "grow"))
        assert_same(forked, (row.name, k, "fork"))


@needs_native
@pytest.mark.parametrize("row", small_suite(), ids=lambda row: row.name)
def test_every_frame_prefix_as_add_clauses_batches(row):
    """The incremental engine's feed: one batch per frame into a live
    solver that solves each depth under the property assumption."""
    circuit, prop = row.build()
    unroller = Unroller(circuit, prop)
    solvers, attaches, fed = {}, {}, {}
    for kernel in AVAILABLE:
        solvers[kernel] = CdclSolver(config=SolverConfig(kernel=kernel))
        attaches[kernel] = record_attaches(solvers[kernel])
        fed[kernel] = 0
    for k in range(row.max_depth + 1):
        states = {}
        for kernel, solver in solvers.items():
            fed[kernel] = feed_frames(solver, unroller, k, fed[kernel])
            states[kernel] = install_state(solver, attaches[kernel])
            solver.solve(assumptions=[lit_neg(unroller.lit_of(prop, k))])
        assert_same(states, (row.name, k))


# -- crafted batches, asserted on every available kernel -------------------


def _crafted(batch, num_vars=8, prune=True, setup=(), solve_first=False):
    """Install ``batch`` into a live solver on every available kernel
    (after ``setup`` clauses, optionally solved); returns
    ``{kernel: (solver, state)}``, asserting the kernels agree."""
    results, states = {}, {}
    for kernel in AVAILABLE:
        solver = CdclSolver(
            CnfFormula(num_vars),
            config=SolverConfig(kernel=kernel, prune_root_satisfied=prune),
        )
        if setup:
            solver.add_clauses(setup)
        if solve_first:
            solver.solve()
        attaches = record_attaches(solver)
        solver.add_clauses(batch)
        states[kernel] = install_state(solver, attaches)
        results[kernel] = solver
    assert_same(states, batch)
    return results


def _block(solver: CdclSolver, cid: int) -> tuple:
    return solver.clause_literals(cid)


def test_duplicates_are_dropped_in_first_occurrence_order():
    batch = [(2, 2), (4, 6, 4), (4, 4, 4), (8, 10, 8, 12, 10, 14)]
    for solver in _crafted(batch).values():
        assert [_block(solver, cid) for cid in range(4)] == [
            (2,), (4, 6), (4,), (8, 10, 12, 14),
        ]
        assert solver._kernel.mirror.entries(3) == (8, 10, 12, 14)
        # (2, 2) and (4, 4, 4) are units: enqueued, not watched.
        assert solver._trail[:solver._trail_len].tolist() == [2, 4]


def test_tautologies_are_inactive_and_uncounted():
    batch = [(2, 3), (4, 5, 6), (6, 8, 7, 10), (8, 8, 9), (2, 4)]
    for solver in _crafted(batch).values():
        flags = [solver._arena.flags[cid] for cid in range(5)]
        assert flags == [INACTIVE, INACTIVE, INACTIVE, INACTIVE, 0]
        assert solver.num_original_literals() == 2
        assert solver.original_literal_counts()[2] == 1


def test_units_are_enqueued_and_recorded():
    batch = [(3,), (3,), (4, 2)]
    for solver in _crafted(batch).values():
        assert solver._trail[:solver._trail_len].tolist() == [3, 4]
        assert solver._root_unit_of[1] == (3, 0)
        assert solver._reasons[2] == 2  # (4, 3) became effectively unit
        assert solver._ok


@pytest.mark.parametrize("prune", [True, False])
def test_root_satisfied_clauses_follow_the_prune_flag(prune):
    setup = [(2,)]
    batch = [(2, 4), (6, 2, 8), (2, 4, 6, 8), (4, 6)]
    for solver in _crafted(batch, prune=prune, setup=setup).values():
        pruned = set(range(1, 4)) if prune else set()
        assert solver._root_pruned == pruned
        assert solver._pending_root_pruned == len(pruned)


def test_effectively_unit_and_long_clauses_are_reordered():
    setup = [(3,), (5,)]
    # (3 false... ) literals 2 and 4 are false at the root.
    batch = [(2, 4, 6), (2, 8, 4, 10, 12), (2, 4, 10)]
    for solver in _crafted(batch, setup=setup).values():
        first = 2  # the batch's first clause ID
        assert _block(solver, first) == (6, 2, 4)
        assert _block(solver, first + 1) == (8, 10, 2, 4, 12)
        assert _block(solver, first + 2) == (10, 2, 4)
        assert solver._trail[:solver._trail_len].tolist() == [3, 5, 6, 10]
        # The mirror keeps install order.
        assert solver._kernel.mirror.entries(first) == (2, 4, 6)
        assert solver._kernel.mirror.entries(first + 1) == (2, 8, 4, 10, 12)


def test_root_falsified_clause_mid_batch():
    setup = [(3,), (5,)]
    batch = [(6, 8), (2, 4), (10, 12), (14,), (0, 2, 4, 6)]
    for solver in _crafted(batch, setup=setup).values():
        assert not solver._ok
        assert solver.cdg.final_antecedents[0] == 3
        # The rest of the batch is stored, counted, never attached.
        assert solver._trail[:solver._trail_len].tolist() == [3, 5]
        assert solver._arena.literals(6) == (0, 2, 4, 6)
        assert solver.original_literal_counts()[14] == 1


def test_batch_after_unsat_is_only_stored():
    setup = [(2,), (3,)]
    batch = [(4,), (6, 8), (4, 5, 6, 7, 8)]
    for solver in _crafted(batch, setup=setup, solve_first=True).values():
        assert not solver._ok
        assert 4 not in solver._trail[:solver._trail_len].tolist()
        assert 2 not in solver._root_unit_of


def test_imports_do_not_count_literals():
    for kernel in AVAILABLE:
        solver = CdclSolver(CnfFormula(4), config=SolverConfig(kernel=kernel))
        solver.add_shared_clause((2, 4, 6, 2))
        assert solver.num_original_literals() == 0
        assert solver.original_literal_counts() == [0] * 8
        assert solver.clause_literals(0) == (2, 4, 6)


def test_empty_clause_marks_unsat():
    for solver in _crafted([(2, 4), ()]).values():
        assert not solver._ok
        assert list(solver.cdg.final_antecedents) == [1]


def test_clause_runs_from_a_word_log_install_like_tuples():
    formula = CnfFormula(6)
    for lits in [(0,), (2, 4), (5, 7, 9, 11), (6, 6, 8)]:
        formula.add_clause(lits)
    for kernel in AVAILABLE:
        from_tuples = CdclSolver(CnfFormula(6), config=SolverConfig(kernel=kernel))
        from_tuples.add_clauses(list(formula.iter_literals()))
        from_run = CdclSolver(CnfFormula(6), config=SolverConfig(kernel=kernel))
        from_run.add_clauses(formula.clause_run())
        assert install_state(from_run) == install_state(from_tuples)


@pytest.mark.parametrize("refusal", ["bad_literal", "huge_literal", "arena_full"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_refusals_leave_the_solver_unchanged(kernel, refusal, monkeypatch):
    solver = CdclSolver(CnfFormula(5), config=SolverConfig(kernel=kernel))
    attaches = record_attaches(solver)
    solver.add_clauses([(0,), (2, 4), (3, 5, 7)])
    assert solver.solve().is_sat
    before = install_state(solver, attaches)
    trail = solver._trail[:solver._trail_len].tolist()
    batch = [(1, 6), (4, 4, 8), (2, 6, 8, 9)]
    if refusal == "bad_literal":
        with pytest.raises(ValueError, match="variable 5"):
            solver.add_clauses(batch + [(0, 10)])
    elif refusal == "huge_literal":
        with pytest.raises(ValueError, match="num_vars"):
            solver.add_clauses(batch + [(0, 2**40)])
    else:
        monkeypatch.setattr(ClauseArena, "word_limit", len(solver._arena.data) + 8)
        with pytest.raises(ClauseArenaFullError, match="clause arena full"):
            solver.add_clauses(batch)
    assert install_state(solver, attaches) == before
    # Not even backtracked: the model's assignment is still there.
    assert solver._trail[:solver._trail_len].tolist() == trail
