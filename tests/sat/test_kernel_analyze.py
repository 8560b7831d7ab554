"""The conflict-analysis kernel seam: white-box and oracle tests.

Each kernel runs the solver's first-UIP walk inside its
``search_step`` — the native one in the same C call as propagation —
and hands back exactly what the solver's Python tail consumes (raw
learned clause, ordered antecedents, scratch side effects).  Beyond the differential
fuzzer's search-identity legs, these tests pin:

* the install-order mirror (``ClauseLitMirror``), on both kernels:
  every live clause's block is its deduplicated install-order literals
  (originals of every shape, root-reordered ones, learned clauses,
  template forks), and deleted clauses' blocks are freed and compacted
  away;
* the C scratch-buffer re-entry protocol (``RET_NEED_ABUF``): shrunken
  buffers force mid-walk restarts that must not change the search;
* proofs and cores built *through the kernels*: UNSAT answers replay
  through ``check_proof`` and their cores re-prove UNSAT;
* the fused step's cached-FFI-view lifecycle: incremental solves,
  variable growth and clause addition between solves must never trip a
  pinned buffer (cffi raises ``BufferError`` loudly if a cached view
  survives into a resize).
"""

from __future__ import annotations

from array import array

import pytest

from repro.cnf import CnfFormula
from repro.sat import CdclSolver, InstallTemplate, SolverConfig, check_proof
from repro.sat.arena import TOMBSTONE
from repro.sat.kernel import (
    KERNELS, ClauseLitMirror, columns, native_available, resolve_kernel,
)
from repro.sat.types import SolveResult
from repro.workloads.cnf_families import pigeonhole, xor_chain
from tests.conftest import random_formula

#: Every kernel the host can run; python is the reference.
def _kernels():
    return ["python"] + (["native"] if native_available() else [])


def _search_signature(solver, outcome):
    stats = outcome.stats
    return (
        outcome.status,
        stats.decisions,
        stats.propagations,
        stats.conflicts,
        stats.learned_clauses,
        stats.learned_lbd_sum,
        stats.deleted_clauses,
        tuple(outcome.model) if outcome.model else None,
    )


def test_analyze_backends_registry():
    """Each kernel is registered under a ``KERNELS`` name, and one
    kernel object runs both planes."""
    assert KERNELS == ("python", "native")
    assert resolve_kernel(None) == (
        "native" if native_available() else "python"
    )
    assert resolve_kernel("python") == "python"
    with pytest.raises(ValueError):
        resolve_kernel("no-such-kernel")
    for kernel in _kernels():
        solver = CdclSolver(CnfFormula(1), config=SolverConfig(kernel=kernel))
        assert solver._kernel.name == kernel
    solver = CdclSolver(CnfFormula(1))
    assert solver._kernel.name == resolve_kernel(None)


def test_grid_search_identical_with_lbd(rng):
    """Every runnable kernel produces the same search — including the
    LBD tally, which the solver computes in ``_finish_analysis`` from
    the kernel-built learned clause."""
    formulas = [pigeonhole(5), xor_chain(12, False)]
    for _ in range(6):
        formulas.append(random_formula(rng, rng.randint(6, 12), 40))
    for formula in formulas:
        reference = None
        for kernel in _kernels():
            solver = CdclSolver(formula, config=SolverConfig(kernel=kernel))
            sig = _search_signature(solver, solver.solve())
            if reference is None:
                reference = sig
            else:
                assert sig == reference, f"kernel {kernel} diverged"


# ----------------------------------------------------------------------
# The install-order mirror.
# ----------------------------------------------------------------------


def _crafted_formula() -> CnfFormula:
    """``pigeonhole(6)`` (hard enough to learn clauses) plus, on fresh
    variables, one clause of each shape the install distinguishes."""
    php = pigeonhole(6)
    v = php.num_vars

    def lit(k, sign=0):
        return 2 * (v + k) + sign

    formula = CnfFormula(v + 12)
    for lits in php.iter_literals():
        formula.add_clause(lits)
    # Two root units make lit(0) and lit(1) false.
    formula.add_clause((lit(0, 1),))
    formula.add_clause((lit(1, 1),))
    for lits in [
        (lit(0), lit(1), lit(2)),        # effectively unit at the root
        (lit(3), lit(4)),                 # binary
        (lit(3), lit(5), lit(6)),         # ternary
        (lit(4), lit(5), lit(6), lit(7)),  # long
        (lit(7), lit(7), lit(8)),         # deduplicated to a binary
        (lit(8), lit(9), lit(8), lit(10), lit(9), lit(11)),  # deduplicated
        (lit(3), lit(3, 1)),              # tautologies
        (lit(9), lit(10), lit(9, 1), lit(11)),
    ]:
        formula.add_clause(lits)
    return formula


def _install_order(formula: CnfFormula):
    """Each clause's deduplicated literals in the order given."""
    return [tuple(dict.fromkeys(lits)) for lits in formula.iter_literals()]


def _record_learned(solver: CdclSolver) -> dict:
    """Wrap ``_add_learned`` to record each learned clause as the
    analysis tail hands it over, by clause ID."""
    learned_lits: dict = {}
    add_learned = solver._add_learned

    def recording(learned, antecedents):
        lits = tuple(learned)
        cid = add_learned(learned, antecedents)
        learned_lits[cid] = lits
        return cid

    solver._add_learned = recording
    return learned_lits


def _assert_mirror(solver: CdclSolver, expected: dict) -> int:
    """Every live clause's block is its ``expected`` tuple; every
    deleted one's is freed; the dead-word count accounts for exactly
    the words no live block uses.  Returns the live clauses checked."""
    mirror = solver._kernel.mirror
    flags = solver._arena.flags
    assert len(mirror.refs) == len(solver._arena)
    live_words = 0
    for cid in range(len(mirror.refs)):
        if flags[cid] & TOMBSTONE:
            assert mirror.refs[cid] == -1, f"cid {cid}: deleted clause kept"
            assert mirror.entries(cid) == ()
            continue
        assert mirror.entries(cid) == expected[cid], (
            f"cid {cid}: mirror block is not install order"
        )
        live_words += 1 + len(expected[cid])
    assert len(mirror.data) == live_words + mirror.dead
    return sum(1 for cid in range(len(mirror.refs)) if mirror.refs[cid] >= 0)


def test_mirror_matches_install_order():
    """On both kernels, every live clause's mirror block is its
    deduplicated install-order literals: binary, ternary, long,
    deduplicated and tautological originals, a ternary clause the
    install made unit at the root (its arena block is reordered, its
    mirror block is not), and learned clauses — in a solver built from
    the formula and in a fork of an install template."""
    formula = _crafted_formula()
    originals = _install_order(formula)
    unit_cid = formula.num_clauses - 8  # the effectively-unit ternary
    prefix = CnfFormula(formula.num_vars)
    for lits in list(formula.iter_literals())[:40]:
        prefix.add_clause(lits)
    for kernel in _kernels():
        config = SolverConfig(kernel=kernel)
        template = InstallTemplate(prefix, config)
        for solver in (
            CdclSolver(formula, config=config),
            CdclSolver(formula, config=config, template=template),
        ):
            learned = _record_learned(solver)
            assert solver._arena.literals(unit_cid) != originals[unit_cid]
            assert solver._kernel.mirror.entries(unit_cid) == originals[unit_cid]
            assert solver.solve().status is SolveResult.UNSAT
            assert learned and max(map(len, learned.values())) >= 4
            expected = dict(enumerate(originals))
            expected.update(learned)
            assert _assert_mirror(solver, expected) == len(expected)


def test_mirror_frees_deleted_clauses(monkeypatch):
    """On both kernels, learned-DB reduction frees the deleted clauses'
    blocks and compaction reclaims the dead words; every surviving
    clause keeps its install-order block, at its new offset."""
    monkeypatch.setattr(columns, "_MIRROR_COMPACT_MIN_DEAD", 64)
    compactions = []
    compact = ClauseLitMirror.compact

    def counting(mirror):
        reclaimed = compact(mirror)
        compactions.append(reclaimed)
        return reclaimed

    monkeypatch.setattr(ClauseLitMirror, "compact", counting)
    formula = pigeonhole(7)
    for kernel in _kernels():
        del compactions[:]
        config = SolverConfig(kernel=kernel, record_cdg=False)
        solver = CdclSolver(formula, config=config)
        learned = _record_learned(solver)
        outcome = solver.solve()
        assert outcome.stats.deleted_clauses > 0
        assert compactions and min(compactions) > 0
        expected = dict(enumerate(_install_order(formula)))
        expected.update(learned)
        live = _assert_mirror(solver, expected)
        assert live == len(expected) - outcome.stats.deleted_clauses


# ----------------------------------------------------------------------
# Scratch-buffer re-entry (RET_NEED_ABUF).
# ----------------------------------------------------------------------


@pytest.mark.skipif(not native_available(), reason="needs the native kernel")
def test_need_abuf_reentry_is_search_identical():
    """Tiny analysis scratch buffers force the C walk to bail out and
    restart (seen-marks unwound) several times per conflict; the search
    must be byte-identical to the python kernel anyway."""
    formula = pigeonhole(6)
    python = CdclSolver(formula, config=SolverConfig(kernel="python"))
    reference = _search_signature(python, python.solve())

    config = SolverConfig(kernel="native")
    solver = CdclSolver(formula, config=config)
    kernel = solver._kernel
    # Minimum viable capacities (doubling still reaches any size).
    kernel._learned_buf = array("i", bytes(4 * 2))
    kernel._ants_buf = array("i", bytes(4 * 2))
    kernel._touched_buf = array("i", bytes(4 * 2))
    kernel._zero_buf = array("i", bytes(4 * 2))
    assert _search_signature(solver, solver.solve()) == reference
    # The buffers actually grew — the re-entry path ran.
    assert len(kernel._learned_buf) > 2
    assert len(kernel._touched_buf) > 2


# ----------------------------------------------------------------------
# Proofs and cores through the kernel-built learned clauses.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel",
    [
        "python",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_available(), reason="native kernel not buildable here"
            ),
        ),
    ],
)
def test_kernel_proofs_replay_and_cores_reprove(rng, kernel):
    """UNSAT verdicts whose learned clauses were built by an analysis
    kernel must export a replayable resolution proof, and the extracted
    core must itself be UNSAT."""
    formulas = [pigeonhole(4), xor_chain(9, False)]
    unsat_seen = 0
    for _ in range(12):
        formulas.append(random_formula(rng, rng.randint(5, 10), 44))
    for formula in formulas:
        config = SolverConfig(kernel=kernel)
        solver = CdclSolver(formula, config=config)
        outcome = solver.solve()
        if outcome.status is not SolveResult.UNSAT:
            continue
        unsat_seen += 1
        check_proof(formula, solver.export_proof())
        core = formula.subformula(outcome.core_clauses)
        recheck = CdclSolver(core, config=config).solve()
        assert recheck.status is SolveResult.UNSAT, "core does not re-prove"
    assert unsat_seen >= 2, "workload produced too few UNSAT instances"


# ----------------------------------------------------------------------
# The fused step's cached-view lifecycle.
# ----------------------------------------------------------------------


@pytest.mark.skipif(not native_available(), reason="needs the native kernel")
def test_view_cache_released_between_solves():
    """The fused step caches ``ffi.from_buffer`` views across calls;
    ``solve()`` teardown must release them so between-solve resizes
    (variable growth, clause addition) find unpinned arrays."""
    formula = pigeonhole(5)
    config = SolverConfig(kernel="native")
    solver = CdclSolver(formula, config=config)
    solver.solve()
    assert solver._kernel._views is None, "cached views leaked past solve()"
    # These resize kernel-viewed arrays; a leaked view => BufferError.
    solver.ensure_num_vars(solver.num_vars + 3)
    solver.add_clause([2 * (solver.num_vars - 1), 2 * (solver.num_vars - 2)])
    solver.solve()
    assert solver._kernel._views is None


@pytest.mark.skipif(not native_available(), reason="needs the native kernel")
def test_incremental_fused_sequence_matches_python(rng):
    """Interleaved solve / grow / add_clause sequences under the fused
    native step match the python kernel verdict-for-verdict and
    counter-for-counter (and never trip a pinned cached view)."""
    import random

    for trial in range(8):
        base_vars = rng.randint(6, 12)
        formula = random_formula(rng, base_vars, 3 * base_vars)
        script_seed = rng.randint(0, 10**9)
        signatures = []
        for kernel in ("python", "native"):
            solver = CdclSolver(formula, config=SolverConfig(kernel=kernel))
            script = random.Random(script_seed)
            trace = []
            for _ in range(4):
                outcome = solver.solve()
                trace.append(
                    (
                        outcome.status,
                        outcome.stats.decisions,
                        outcome.stats.conflicts,
                        outcome.stats.learned_clauses,
                    )
                )
                if outcome.status is SolveResult.UNSAT:
                    break
                solver.ensure_num_vars(solver.num_vars + script.randint(1, 3))
                for _ in range(4):
                    chosen = script.sample(range(solver.num_vars), 3)
                    solver.add_clause(
                        [2 * v + script.randint(0, 1) for v in chosen]
                    )
            signatures.append(tuple(trace))
        assert signatures[0] == signatures[1], f"trial {trial} diverged"
