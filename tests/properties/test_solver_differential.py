"""Differential fuzzing of the CDCL solver.

Every configuration cell — (strategy x phase_mode x minimize_learned) —
is exercised on a stream of seeded random instances drawn from three
families (random k-CNF near the phase transition, pigeonhole, and
implication/xor chains), and each result is cross-checked three ways:

* SAT answers must carry a model that satisfies the formula;
* UNSAT answers must agree with a brute-force reference (bit-parallel
  evaluation of all ``2^n`` assignments, ``n <= 14``) or with the
  family's constructed verdict, and must export a resolution proof
  that replays through ``repro.sat.proof.check_proof``;
* the production heap strategies must return the same verdict as the
  scan-order oracle strategies (``tests/sat/scan_order.py``) under the
  same solver configuration;
* the native kernel must run *search-identical* solves to the python
  reference kernel: same verdict, same decisions/propagations/
  conflicts/learned counts, same model;
* a solver forked from an install template over a seeded random prefix
  of the clause list must run the same search as the bulk install:
  same verdict, same statistics, same model or unsat core.

Seed derivation (documented in ``benchmarks/solver_bench.py``): the
instance with index ``i`` is generated from
``random.Random(FUZZ_SEED + i)``, where ``FUZZ_SEED`` defaults to
20040607 (the DAC 2004 conference date).  Failures report ``i`` so any
counterexample can be regenerated in isolation.  The environment knobs:

``FUZZ_INSTANCES``
    Total instance count (default 2000; the CI ``fuzz-smoke`` job runs
    200, a prefix of the local run).
``FUZZ_SEED``
    Base seed (default 20040607).
``FUZZ_BACKENDS``
    Comma-separated kernels to leg against the python reference kernel
    every instance is first solved with (default ``native``; naming
    ``python`` adds nothing).  Each named kernel re-runs every instance
    under ``SolverConfig(kernel=...)`` and must be *search-identical* —
    same verdict, same decisions/propagations/conflicts/learned counts,
    same model.  The ``native`` leg runs the fused propagate-then-
    analyze step, one FFI crossing per conflict.  It is silently
    dropped on hosts where the compiled kernel cannot be built (no
    cffi / no C compiler); set ``FUZZ_BACKENDS=""`` to trim the run.
``FUZZ_TRACE``
    Set to ``1`` to add the replay-oracle leg (default off): each
    instance is re-solved with in-memory trace telemetry
    (a ``TraceRecorder`` observer), and the captured trace is replayed
    into a fresh solver via ``repro.sat.replay.replay_trace`` — the
    replay must reproduce the original verdict, final trail, and event
    stream byte-for-byte.
``FUZZ_METRICS``
    Set to ``1`` to add the observability leg (default off):
    each instance is re-solved with the full observability plane on — a
    live ``MetricsRegistry`` plus per-structure access profiling
    (``SolverConfig.profile_access``) — and the instrumented search
    must be byte-identical (verdict, decisions/propagations/conflicts/
    learned counts, model), with the published ``solver_*_total``
    counters equal to the solve's ``SolverStats`` export and the
    ``solver_access_total`` series equal to the raw profile's derived
    per-structure counts.

The total instance count is printed at the end of the run ("count
logged" — run with ``-s`` to see it live).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.cnf import CnfFormula
from repro.sat import (
    BerkMinStrategy,
    CdclSolver,
    InstallTemplate,
    MINIMIZE_MODES,
    PHASE_MODES,
    RankedStrategy,
    SolverConfig,
    VsidsStrategy,
    check_proof,
)
from repro.sat.kernel import native_available
from repro.sat.replay import replay_trace
from repro.sat.trace import TraceRecorder
from repro.sat.types import SolveResult
from tests.sat.scan_order import ScanOrderRankedStrategy, ScanOrderVsidsStrategy

FUZZ_INSTANCES = int(os.environ.get("FUZZ_INSTANCES", "2000"))
FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "20040607"))

#: Kernels legged against the python reference kernel on every
#: instance (``native`` is dropped, not failed, when it cannot be built
#: here; ``python`` is the reference itself).
FUZZ_BACKENDS = tuple(
    backend
    for backend in (
        name.strip()
        for name in os.environ.get("FUZZ_BACKENDS", "native").split(",")
    )
    if backend
    and backend != "python"
    and (backend != "native" or native_available())
)

#: ``FUZZ_TRACE=1`` adds the replay-oracle leg (PR 8): every instance is
#: re-solved with in-memory tracing and the trace is replayed through
#: ``repro.sat.replay.replay_trace``, which must reproduce the verdict,
#: the final trail, and the entire event stream.
FUZZ_TRACE = os.environ.get("FUZZ_TRACE", "") == "1"

#: ``FUZZ_METRICS=1`` adds the observability leg (PR 10): every
#: instance is re-solved with a live registry + access profiling, the
#: search must be byte-identical, and the exported counters must equal
#: the solve's ``SolverStats``.
FUZZ_METRICS = os.environ.get("FUZZ_METRICS", "") == "1"

#: How many chunks the run is split into (separate pytest cases, so a
#: failure localises to a ~FUZZ_INSTANCES/CHUNKS window of indices).
CHUNKS = 8

#: Largest variable count the brute-force reference accepts.
BRUTE_FORCE_MAX_VARS = 14

_count_log = {"instances": 0}


# ----------------------------------------------------------------------
# Bit-parallel brute force: evaluate all 2^n assignments at once.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _var_masks(num_vars: int):
    """``masks[v]`` has bit ``a`` set iff assignment ``a`` sets var ``v``
    (assignment index bits are variable values)."""
    size = 1 << num_vars
    masks = []
    for v in range(num_vars):
        period = 1 << (v + 1)
        half = 1 << v
        block = ((1 << half) - 1) << half
        mask = 0
        for start in range(0, size, period):
            mask |= block << start
        masks.append(mask)
    return tuple(masks)


def brute_force_is_sat(formula: CnfFormula) -> bool:
    """True iff some assignment satisfies the formula (n <= 14)."""
    n = formula.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_VARS} vars")
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    remaining = full
    for clause in formula.clauses:
        clause_mask = 0
        for lit in clause.literals:
            var_mask = masks[lit >> 1]
            clause_mask |= (full ^ var_mask) if (lit & 1) else var_mask
        remaining &= clause_mask
        if not remaining:
            return False
    return True


def test_brute_force_oracle_matches_exhaustive_reference(rng):
    from tests.conftest import brute_force_sat, random_formula

    for _ in range(60):
        formula = random_formula(rng, rng.randint(1, 8), rng.randint(1, 24))
        assert brute_force_is_sat(formula) == (brute_force_sat(formula) is not None)


# ----------------------------------------------------------------------
# Instance families.
# ----------------------------------------------------------------------


def _random_kcnf(rng: random.Random) -> CnfFormula:
    num_vars = rng.randint(4, 12)
    # Around the 3-CNF phase transition so SAT and UNSAT both occur;
    # the occasional short clause exercises the unit/binary paths.
    num_clauses = max(2, int(num_vars * rng.uniform(2.8, 4.8)))
    formula = CnfFormula(num_vars)
    for _ in range(num_clauses):
        width = 3 if rng.random() < 0.85 else rng.randint(1, 2)
        chosen = rng.sample(range(num_vars), min(width, num_vars))
        formula.add_clause(2 * v + rng.randint(0, 1) for v in chosen)
    return formula


def _pigeonhole(rng: random.Random):
    from repro.workloads.cnf_families import pigeonhole

    return pigeonhole(rng.randint(2, 4)), False  # always UNSAT


def _chain(rng: random.Random):
    from repro.workloads.cnf_families import xor_chain

    final_phase = rng.random() < 0.5
    length = rng.randint(2, 24)
    # xor_chain forces x_0 true and x_k = (k even): SAT iff the forced
    # final phase matches the chain parity.
    return xor_chain(length, final_phase), final_phase == (length % 2 == 0)


def make_instance(index: int):
    """(formula, expected_sat_or_None) for instance ``index``.

    ``expected`` is the constructed verdict for the structured families
    and ``None`` (unknown — use brute force) for random ones.
    """
    rng = random.Random(FUZZ_SEED + index)
    kind = index % 10
    if kind == 8:
        return _pigeonhole(rng)
    if kind == 9:
        return _chain(rng)
    return _random_kcnf(rng), None


# ----------------------------------------------------------------------
# Configuration cells.
# ----------------------------------------------------------------------


def _strategy_pairs(rng: random.Random, num_vars: int, kind: int):
    """(production strategy, scan-order reference strategy)."""
    if kind == 0:
        return VsidsStrategy(), ScanOrderVsidsStrategy()
    if kind == 1:
        # BerkMin has no scan twin; the reference is scan VSIDS (verdict
        # comparison only — any complete strategy must agree).
        return BerkMinStrategy(), ScanOrderVsidsStrategy()
    rank = {v: float(rng.randint(0, 4)) for v in range(num_vars)}
    dynamic = kind == 3
    return (
        RankedStrategy(rank, dynamic=dynamic),
        ScanOrderRankedStrategy(rank, dynamic=dynamic),
    )


#: All (strategy kind, phase_mode, minimize_learned) cells.
CELLS = list(itertools.product(range(4), PHASE_MODES, MINIMIZE_MODES))


def run_one(index: int):
    formula, expected = make_instance(index)
    strategy_kind, phase_mode, minimize = CELLS[index % len(CELLS)]
    rng = random.Random(FUZZ_SEED + index + 1_000_000)
    production, reference = _strategy_pairs(rng, formula.num_vars, strategy_kind)
    config = SolverConfig(
        phase_mode=phase_mode, minimize_learned=minimize, kernel="python"
    )

    solver = CdclSolver(formula, strategy=production, config=config)
    outcome = solver.solve()
    ctx = (
        f"instance {index} (kind {index % 10}, cell "
        f"{(production.name, phase_mode, minimize)})"
    )

    # Kernel legs: every enabled kernel must run the exact same search
    # as the python reference — a kernel is a data-plane swap, never a
    # heuristic change.
    for backend in FUZZ_BACKENDS:
        rng_kernel = random.Random(FUZZ_SEED + index + 1_000_000)
        production_kernel, _ = _strategy_pairs(
            rng_kernel, formula.num_vars, strategy_kind
        )
        kernel_outcome = CdclSolver(
            formula,
            strategy=production_kernel,
            config=replace(config, kernel=backend),
        ).solve()
        assert kernel_outcome.status is outcome.status, (
            f"{ctx}: {backend} kernel verdict differs"
        )
        assert (
            kernel_outcome.stats.decisions,
            kernel_outcome.stats.propagations,
            kernel_outcome.stats.conflicts,
            kernel_outcome.stats.learned_clauses,
        ) == (
            outcome.stats.decisions,
            outcome.stats.propagations,
            outcome.stats.conflicts,
            outcome.stats.learned_clauses,
        ), f"{ctx}: {backend} kernel search diverged from python"
        if outcome.status is SolveResult.SAT:
            assert kernel_outcome.model == outcome.model, (
                f"{ctx}: {backend} kernel model differs"
            )

    # Fork leg: the same solve on a fork of an install template that
    # holds a seeded random prefix of the clause list.  A fork is a bulk
    # install by construction, so everything but the clock must match.
    split = random.Random(FUZZ_SEED + index + 2_000_000).randint(
        0, formula.num_clauses
    )
    template = InstallTemplate(formula.subformula(range(split)), config)
    production_fork, _ = _strategy_pairs(
        random.Random(FUZZ_SEED + index + 1_000_000),
        formula.num_vars, strategy_kind,
    )
    fork_outcome = CdclSolver(
        formula, strategy=production_fork, config=config, template=template
    ).solve()
    fork_stats = dict(fork_outcome.stats.as_dict(), solve_time=None)
    assert fork_outcome.status is outcome.status, f"{ctx}: fork verdict differs"
    assert fork_stats == dict(outcome.stats.as_dict(), solve_time=None), (
        f"{ctx}: fork at clause {split} diverged from the bulk install"
    )
    assert fork_outcome.model == outcome.model, f"{ctx}: fork model differs"
    assert fork_outcome.core_clauses == outcome.core_clauses, (
        f"{ctx}: fork core differs"
    )

    # Replay-oracle leg (PR 8, FUZZ_TRACE=1): re-run the instance with
    # in-memory tracing, replay the trace into a fresh solver, and
    # require the replay to reproduce the verdict, the final trail and
    # the entire event stream (repro.sat.replay's three-way oracle).
    if FUZZ_TRACE:
        rng_trace = random.Random(FUZZ_SEED + index + 1_000_000)
        production_trace, _ = _strategy_pairs(
            rng_trace, formula.num_vars, strategy_kind
        )
        events = []
        traced_solver = CdclSolver(
            formula,
            strategy=production_trace,
            config=replace(config, observer=TraceRecorder(events)),
        )
        traced_outcome = traced_solver.solve()
        assert traced_outcome.status is outcome.status, (
            f"{ctx}: tracing changed the verdict"
        )
        report = replay_trace(formula, events, config=config)
        assert report.matches, f"{ctx}: trace replay diverged: {report.mismatch}"
        assert report.status == traced_outcome.status.value.upper(), (
            f"{ctx}: replay verdict {report.status} != "
            f"{traced_outcome.status.value.upper()}"
        )
        assert report.final_trail == list(
            traced_solver._trail[: traced_solver._trail_len]
        ), f"{ctx}: replay final trail differs from the traced run"

    # Observability leg (PR 10, FUZZ_METRICS=1): the full observability
    # plane — live registry + per-structure access profiling — must be
    # write-only instrumentation: byte-identical search, and the
    # published counters must equal the solve's own stats export.
    if FUZZ_METRICS:
        from repro.metrics import MetricsRegistry
        from repro.sat.profile import structure_counts

        rng_metrics = random.Random(FUZZ_SEED + index + 1_000_000)
        production_metrics, _ = _strategy_pairs(
            rng_metrics, formula.num_vars, strategy_kind
        )
        registry = MetricsRegistry()
        metrics_solver = CdclSolver(
            formula,
            strategy=production_metrics,
            config=replace(config, metrics=registry, profile_access=True),
        )
        metrics_outcome = metrics_solver.solve()
        assert metrics_outcome.status is outcome.status, (
            f"{ctx}: observability plane changed the verdict"
        )
        assert (
            metrics_outcome.stats.decisions,
            metrics_outcome.stats.propagations,
            metrics_outcome.stats.conflicts,
            metrics_outcome.stats.learned_clauses,
        ) == (
            outcome.stats.decisions,
            outcome.stats.propagations,
            outcome.stats.conflicts,
            outcome.stats.learned_clauses,
        ), f"{ctx}: observability plane diverged the search"
        if outcome.status is SolveResult.SAT:
            assert metrics_outcome.model == outcome.model, (
                f"{ctx}: observability plane changed the model"
            )
        stats_dict = metrics_outcome.stats.as_dict()
        for name in (
            "decisions",
            "propagations",
            "conflicts",
            "restarts",
            "learned_clauses",
        ):
            published = registry.value(f"solver_{name}_total")
            assert published == stats_dict[name], (
                f"{ctx}: solver_{name}_total={published} != "
                f"stats.{name}={stats_dict[name]}"
            )
        for structure, count in structure_counts(
            metrics_solver._profile
        ).items():
            published = registry.value(
                "solver_access_total", {"structure": structure}
            )
            assert published == count, (
                f"{ctx}: solver_access_total[{structure}]={published} "
                f"!= profile count {count}"
            )

    if outcome.status is SolveResult.SAT:
        assert formula.evaluate(outcome.model), f"{ctx}: model does not satisfy"
        is_sat = True
    else:
        assert outcome.status is SolveResult.UNSAT, f"{ctx}: unexpected {outcome.status}"
        is_sat = False
        # Every UNSAT answer must export a replayable refutation.
        check_proof(formula, solver.export_proof())

    if expected is not None:
        assert is_sat == expected, f"{ctx}: family verdict mismatch"
    elif formula.num_vars <= BRUTE_FORCE_MAX_VARS:
        assert is_sat == brute_force_is_sat(formula), (
            f"{ctx}: brute-force mismatch"
        )

    # Differential leg: seed scan-order machinery, same configuration.
    ref_outcome = CdclSolver(formula, strategy=reference, config=config).solve()
    assert (ref_outcome.status is SolveResult.SAT) == is_sat, (
        f"{ctx}: heap vs scan-order verdict mismatch "
        f"({outcome.status} vs {ref_outcome.status})"
    )
    return is_sat


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_differential_fuzz(chunk):
    start = chunk * FUZZ_INSTANCES // CHUNKS
    stop = (chunk + 1) * FUZZ_INSTANCES // CHUNKS
    sat = unsat = 0
    for index in range(start, stop):
        if run_one(index):
            sat += 1
        else:
            unsat += 1
    _count_log["instances"] += sat + unsat
    print(
        f"differential fuzzer chunk {chunk}: instances {start}..{stop - 1}, "
        f"{sat} SAT / {unsat} UNSAT, cumulative {_count_log['instances']}"
    )
    assert sat + unsat == stop - start


def test_differential_fuzz_count_logged():
    """Runs after the chunks (file order): the advertised instance count
    was actually executed."""
    assert _count_log["instances"] == FUZZ_INSTANCES
    print(f"differential fuzzer: {_count_log['instances']} instances total")


# ----------------------------------------------------------------------
# Incremental multi-call legs (PR 4): interleave add_clause batches with
# solve(assumptions=...) calls — the IncrementalBmcEngine pattern — and
# cross-check every call against a fresh solver over the accumulated
# formula.
# ----------------------------------------------------------------------

#: Incremental sequences run alongside the one-shot stream (each
#: sequence is several solves, so a 1/10 ratio keeps runtime similar).
INCREMENTAL_SEQUENCES = max(10, FUZZ_INSTANCES // 20)


def _random_batch(rng: random.Random, num_vars: int, size: int):
    batch = []
    for _ in range(size):
        width = 3 if rng.random() < 0.7 else rng.randint(1, 2)
        chosen = rng.sample(range(num_vars), min(width, num_vars))
        batch.append([2 * v + rng.randint(0, 1) for v in chosen])
    return batch


def _accumulated_formula(num_vars: int, clauses) -> CnfFormula:
    formula = CnfFormula(num_vars)
    for clause in clauses:
        formula.add_clause(clause)
    return formula


def run_one_incremental(index: int) -> None:
    """One incremental sequence: grow variables, add clause batches,
    solve under random assumptions, and compare each call against a
    fresh-solver reference over the accumulated formula.

    Checks per call: verdict equality (learned clauses from earlier
    depths may change the *search*, never the answer); SAT models
    satisfy the accumulated formula and every assumption; UNSAT
    failed-assumption sets are a subset of the assumptions and are
    genuinely contradictory (a fresh solve under exactly the failed
    subset is still UNSAT).
    """
    rng = random.Random(FUZZ_SEED + 5_000_000 + index)
    _strategy_kind, phase_mode, minimize = CELLS[index % len(CELLS)]
    config = SolverConfig(
        phase_mode=phase_mode, minimize_learned=minimize, kernel="python"
    )
    num_vars = rng.randint(4, 10)
    incremental = CdclSolver(CnfFormula(num_vars), config=config)
    # Kernel twins driven through the identical call sequence: this is
    # the leg that exercises kernel grow() (ensure_num_vars between
    # solves) and incremental attach on a warm watch layout.
    kernel_twins = {
        backend: CdclSolver(
            CnfFormula(num_vars),
            config=replace(config, kernel=backend),
        )
        for backend in FUZZ_BACKENDS
    }
    accumulated: list = []
    for step in range(rng.randint(2, 4)):
        grow = rng.randint(0, 2)
        if grow:
            num_vars += grow
            incremental.ensure_num_vars(num_vars)
            for twin in kernel_twins.values():
                twin.ensure_num_vars(num_vars)
        batch = _random_batch(rng, num_vars, rng.randint(1, num_vars))
        for clause in batch:
            incremental.add_clause(clause)
            accumulated.append(clause)
        ctx = f"incremental sequence {index}, step {step}"
        # The twins take the batch in one add_clauses call (the native
        # kernel appends it to its warm columns in one pass); their
        # watch tables must equal the clause-by-clause reference's.
        expected_watches = incremental._kernel.watch_snapshot()
        for backend, twin in kernel_twins.items():
            twin.add_clauses(batch)
            assert twin._kernel.watch_snapshot() == expected_watches, (
                f"{ctx}: {backend} kernel twin's batch-installed watches "
                f"differ from the clause-by-clause reference"
            )
        max_assumed = rng.randint(0, min(3, num_vars))
        assumptions = [
            2 * v + rng.randint(0, 1)
            for v in rng.sample(range(num_vars), max_assumed)
        ]
        outcome = incremental.solve(
            assumptions=assumptions, strategy=VsidsStrategy()
        )
        for backend, twin in kernel_twins.items():
            twin_outcome = twin.solve(
                assumptions=assumptions, strategy=VsidsStrategy()
            )
            assert twin_outcome.status is outcome.status, (
                f"{ctx}: {backend} kernel twin verdict differs"
            )
            assert (
                twin_outcome.stats.decisions,
                twin_outcome.stats.propagations,
                twin_outcome.stats.conflicts,
                twin_outcome.stats.learned_clauses,
            ) == (
                outcome.stats.decisions,
                outcome.stats.propagations,
                outcome.stats.conflicts,
                outcome.stats.learned_clauses,
            ), f"{ctx}: {backend} kernel twin search diverged"
            if outcome.status is SolveResult.SAT:
                assert twin_outcome.model == outcome.model, (
                    f"{ctx}: {backend} kernel twin model differs"
                )
            else:
                assert (twin_outcome.status is SolveResult.UNSAT) and (
                    (twin.failed_assumptions or frozenset())
                    == (incremental.failed_assumptions or frozenset())
                ), f"{ctx}: {backend} kernel twin failed-assumption set differs"
        formula = _accumulated_formula(num_vars, accumulated)
        reference = CdclSolver(formula, config=config).solve(
            assumptions=assumptions
        )
        assert outcome.status is reference.status, (
            f"{ctx}: incremental {outcome.status} vs fresh {reference.status}"
        )
        if outcome.status is SolveResult.SAT:
            assert formula.evaluate(outcome.model), (
                f"{ctx}: model violates accumulated formula"
            )
            for lit in assumptions:
                assert outcome.model[lit >> 1] ^ (lit & 1), (
                    f"{ctx}: model violates assumption {lit}"
                )
        else:
            assert outcome.status is SolveResult.UNSAT, f"{ctx}: {outcome.status}"
            # failed_assumptions is None on a *global* UNSAT (the
            # formula alone is contradictory) — that counts as the
            # empty subset here.
            for solver in (incremental, reference):
                failed = solver.failed_assumptions or frozenset()
                assert failed <= set(assumptions), (
                    f"{ctx}: failed assumptions {failed} not a subset"
                )
            # The reported failed subset must itself be contradictory:
            # re-solve the accumulated formula under exactly that subset.
            recheck = CdclSolver(formula, config=config).solve(
                assumptions=sorted(incremental.failed_assumptions or ())
            )
            assert recheck.status is SolveResult.UNSAT, (
                f"{ctx}: failed-assumption subset is not contradictory"
            )


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_incremental_differential_fuzz(chunk):
    start = chunk * INCREMENTAL_SEQUENCES // CHUNKS
    stop = (chunk + 1) * INCREMENTAL_SEQUENCES // CHUNKS
    for index in range(start, stop):
        run_one_incremental(index)
