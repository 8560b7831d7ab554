"""White-box watch-table equivalence across kernels and install paths.

Watch-list order is part of search behaviour, so every watch mutation
— install attach, in-propagation watch moves, swap-with-last detach
(learned-DB reduction), order-preserving bulk drop (root-satisfied
pruning) — must evolve the packed ``array('i')`` columns identically
whichever kernel runs the search and whichever path installed the
clauses.  The reference twin is a python-kernel solver fed clause by
clause through ``add_clause`` (the generic ``kernel.attach`` path); the
twin under test is built by the constructor's bulk install, whose
binary/ternary appends are inlined, on the kernel under test (and, in
:class:`TestBatchAppend`, then fed ``add_clauses`` batches that append
to its live columns).  Both are driven through the same script and the
raw tables compared entry for entry, not just search statistics.
"""

import os

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig
from repro.sat.elimination import eliminate_variables
from repro.sat.kernel import native_available, native_unavailable_reason
from repro.sat.simplify import simplify
from repro.workloads.cnf_families import pigeonhole, xor_chain
from tests.conftest import random_formula

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="native kernel not buildable here"
        ),
    ),
]


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="only enforced where a C toolchain is guaranteed (CI kernel-smoke)",
)
def test_native_kernel_builds_in_ci():
    """Everywhere else the native kernel degrades to a skip; the CI
    kernel-smoke job installs cffi + cc precisely to exercise it, so
    there a failed build must FAIL (not silently skip every native
    leg)."""
    assert native_available(), native_unavailable_reason()


def _assert_watches_match(reference_solver, kernel_solver, ctx):
    expected = reference_solver._kernel.watch_snapshot()
    actual = kernel_solver._kernel.watch_snapshot()
    for table in ("long", "bin", "tern"):
        assert len(actual[table]) == len(expected[table])
        for lit, (want, got) in enumerate(
            zip(expected[table], actual[table])
        ):
            assert got == want, (
                f"{ctx}: {table} watches of literal {lit} diverged: "
                f"bulk-installed {got} vs add_clause reference {want}"
            )


def _twins(formula, backend, **config_kw):
    """(python kernel fed through add_clause, ``backend`` kernel built
    by the constructor's bulk install) over the same formula."""
    reference = CdclSolver(
        CnfFormula(formula.num_vars),
        config=SolverConfig(kernel="python", **config_kw),
    )
    for clause in formula.clauses:
        reference.add_clause(clause.literals)
    kernel = CdclSolver(
        formula, config=SolverConfig(kernel=backend, **config_kw)
    )
    return reference, kernel


def _mixed_formula():
    """Units, binaries (incl. duplicate-literal collapse), ternaries
    (incl. tautology), long clauses with duplicates — every install
    normalization path."""
    formula = CnfFormula(8)
    formula.add_clause([mk_lit(0)])                      # unit
    formula.add_clause([mk_lit(1), mk_lit(2, True)])     # binary
    formula.add_clause([mk_lit(3), mk_lit(3)])           # dup -> unit
    formula.add_clause([mk_lit(4), mk_lit(4, True), mk_lit(5)])  # taut
    formula.add_clause([mk_lit(2), mk_lit(5), mk_lit(6, True)])  # ternary
    formula.add_clause([mk_lit(1), mk_lit(5), mk_lit(5), mk_lit(7)])  # ->tern
    formula.add_clause(
        [mk_lit(2, True), mk_lit(4), mk_lit(6), mk_lit(7, True)]
    )  # long
    return formula


class TestWatchTableEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_install_time_tables_match(self, backend):
        legacy, kernel = _twins(_mixed_formula(), backend)
        _assert_watches_match(legacy, kernel, "install")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_after_search_and_reduction(self, backend):
        # PHP(4) under a tight learned-DB budget: thousands of watch
        # moves, learned attaches and swap-with-last detaches.
        legacy, kernel = _twins(
            pigeonhole(4),
            backend,
            reduce_base=20,
            reduce_growth=1.1,
        )
        assert legacy.solve().status is kernel.solve().status
        _assert_watches_match(legacy, kernel, "post-search")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_after_root_pruning(self, backend):
        # Root units satisfy clauses at level 0: the pruning pass drops
        # their watches through kernel.drop_clauses.
        from repro.sat.solver import _PRUNE_MIN_NEW_FACTS

        num_units = _PRUNE_MIN_NEW_FACTS + 4
        base = 12
        formula = CnfFormula(base + num_units + 2)
        for clause in pigeonhole(3).clauses:
            formula.add_clause(clause.literals)
        spare_a, spare_b = base + num_units, base + num_units + 1
        for i in range(num_units):
            formula.add_clause([mk_lit(base + i)])
            formula.add_clause(
                [mk_lit(base + i), mk_lit(spare_a, True), mk_lit(spare_b, True)]
            )
        legacy, kernel = _twins(formula, backend, prune_root_satisfied=True)
        legacy_outcome, kernel_outcome = legacy.solve(), kernel.solve()
        assert legacy_outcome.status is kernel_outcome.status
        assert legacy_outcome.stats.root_pruned_clauses > 0
        assert (
            kernel_outcome.stats.root_pruned_clauses
            == legacy_outcome.stats.root_pruned_clauses
        )
        _assert_watches_match(legacy, kernel, "post-pruning")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_on_simplified_and_eliminated_formulas(self, backend):
        rng = __import__("random").Random(20040607)
        for trial in range(20):
            original = random_formula(rng, rng.randint(4, 10), rng.randint(6, 30))
            for name, derived in (
                ("simplify", simplify(original).formula),
                ("eliminate", eliminate_variables(original).formula),
            ):
                legacy, kernel = _twins(derived, backend)
                _assert_watches_match(
                    legacy, kernel, f"trial {trial} install after {name}"
                )
                assert legacy.solve().status is kernel.solve().status
                _assert_watches_match(
                    legacy, kernel, f"trial {trial} solve after {name}"
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_through_incremental_growth(self, backend):
        # ensure_num_vars between solves exercises kernel.grow(): the
        # columns gain literal slots while keeping every live entry.
        legacy, kernel = _twins(xor_chain(6, True), backend)
        assert legacy.solve().status is kernel.solve().status
        _assert_watches_match(legacy, kernel, "incremental step 0")
        num_vars = legacy.num_vars
        rng = __import__("random").Random(7)
        for step in range(1, 4):
            num_vars += 2
            legacy.ensure_num_vars(num_vars)
            kernel.ensure_num_vars(num_vars)
            for _ in range(4):
                width = rng.randint(1, 4)
                chosen = rng.sample(range(num_vars), width)
                clause = [2 * v + rng.randint(0, 1) for v in chosen]
                legacy.add_clause(clause)
                kernel.add_clause(clause)
            assumptions = [2 * rng.randrange(num_vars) + rng.randint(0, 1)]
            assert (
                legacy.solve(assumptions=assumptions).status
                is kernel.solve(assumptions=assumptions).status
            )
            _assert_watches_match(legacy, kernel, f"incremental step {step}")


def _search_counters(outcome):
    stats = outcome.stats.as_dict()
    del stats["solve_time"]
    return outcome.status, stats


class TestBatchAppend:
    """``add_clauses`` batches appended to live columns — one C call on
    the native kernel, whatever the batch size, the per-clause appends
    on the python kernel — against a python solver fed the same clauses
    one ``add_clause`` at a time."""

    @staticmethod
    def _append(reference, kernel, batch):
        for clause in batch:
            reference.add_clause(clause)
        kernel.add_clauses(batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_that_exhausts_the_pool(self, backend):
        # The constructor sizes each pool exactly, so the first batch
        # that moves a block to the tail has to grow it: the native
        # kernel reports the words it needs and is called again.
        reference, kernel = _twins(xor_chain(12, True), backend)
        pools = {
            name: getattr(kernel._kernel, name) for name in ("bin", "tern", "long")
        }
        before = {name: len(cols.data) for name, cols in pools.items()}
        exact = backend == "native"  # the python appends leave headroom
        if exact:
            assert all(cols.used == len(cols.data) for cols in pools.values())
        num_vars = kernel.num_vars
        batch = []
        for v in range(num_vars - 1):
            batch.append([mk_lit(v), mk_lit(v + 1, True)])
            batch.append([mk_lit(v, True), mk_lit(v + 1), mk_lit((v + 2) % num_vars)])
            batch.append([mk_lit(v), mk_lit((v + 3) % num_vars),
                          mk_lit((v + 5) % num_vars, True), mk_lit((v + 7) % num_vars)])
        self._append(reference, kernel, batch)
        for name, cols in pools.items():
            assert cols.used <= len(cols.data)
            if exact:
                assert len(cols.data) > before[name], f"{name} pool did not grow"
        _assert_watches_match(reference, kernel, "pool-exhausting batch")
        assert _search_counters(reference.solve()) == _search_counters(
            kernel.solve()
        )
        _assert_watches_match(reference, kernel, "solve after the batch")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_batch_overfilling_one_literal(self, backend, chunk):
        # One literal gains far more entries than its block holds: in
        # one batch it moves once, to a block of at least double its
        # old capacity and at least its new size.  With a chunk size
        # the same clauses arrive as many small batches (a chunk of one
        # through add_shared_clause, the import path), moving the block
        # as it fills.
        formula = pigeonhole(3)
        reference, kernel = _twins(formula, backend)
        hot = formula.clauses[0].literals[0]
        num_vars = kernel.num_vars
        others = [lit for lit in range(2 * num_vars) if lit >> 1 != hot >> 1]
        cols = kernel._kernel.bin
        old_size, old_cap = cols.size[hot], cols.caps[hot]
        batch = [[hot, other] for other in others[:20]]
        batch += [[hot, a, b] for a, b in zip(others[::2], others[1::2])]
        for start in range(0, len(batch), chunk or len(batch)):
            part = batch[start:start + (chunk or len(batch))]
            if chunk == 1:
                reference.add_shared_clause(part[0])
                kernel.add_shared_clause(part[0])
            else:
                self._append(reference, kernel, part)
            _assert_watches_match(reference, kernel, f"batch at {start}")
        assert cols.size[hot] == old_size + 20
        assert cols.caps[hot] >= max(2 * old_cap, cols.size[hot])
        _assert_watches_match(reference, kernel, "overfilled literal")
        assert _search_counters(reference.solve()) == _search_counters(
            kernel.solve()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_after_search_with_moves_and_pruning(self, backend):
        # A first solve learns clauses, moves long watches and prunes
        # root-satisfied clauses; a batch (fresh variables, every clause
        # width, more root units) then lands on that warm layout, and a
        # second solve must search exactly as the reference does.
        from repro.sat.solver import _PRUNE_MIN_NEW_FACTS

        rng = __import__("random").Random(10)
        num_units = _PRUNE_MIN_NEW_FACTS + 4
        base = 60
        formula = CnfFormula(base + num_units + 2)
        for _ in range(250):
            chosen = rng.sample(range(base), rng.choice((3, 3, 3, 3, 4)))
            formula.add_clause([2 * v + rng.randint(0, 1) for v in chosen])
        spare_a, spare_b = base + num_units, base + num_units + 1
        for i in range(num_units):
            formula.add_clause([mk_lit(base + i)])
            formula.add_clause(
                [mk_lit(base + i), mk_lit(spare_a, True), mk_lit(spare_b, True)]
            )
        reference, kernel = _twins(
            formula, backend, prune_root_satisfied=True,
            reduce_base=20, reduce_growth=1.1,
        )
        assumptions = [mk_lit(spare_a)]
        first = reference.solve(assumptions=assumptions)
        assert _search_counters(first) == _search_counters(
            kernel.solve(assumptions=assumptions)
        )
        assert first.stats.learned_clauses > 0
        assert first.stats.root_pruned_clauses > 0
        _assert_watches_match(reference, kernel, "after the first solve")

        old_vars = reference.num_vars
        num_vars = old_vars + 2 * _PRUNE_MIN_NEW_FACTS
        reference.ensure_num_vars(num_vars)
        kernel.ensure_num_vars(num_vars)
        batch = [[mk_lit(v)] for v in range(old_vars, old_vars + _PRUNE_MIN_NEW_FACTS)]
        for _ in range(60):
            width = rng.choice((2, 3, 4, 5))
            chosen = rng.sample(range(num_vars), width)
            batch.append([2 * v + rng.randint(0, 1) for v in chosen])
        self._append(reference, kernel, batch)
        _assert_watches_match(reference, kernel, "batch on the warm layout")
        second = reference.solve()
        assert _search_counters(second) == _search_counters(kernel.solve())
        assert second.stats.root_pruned_clauses > 0
        _assert_watches_match(reference, kernel, "after the second solve")
