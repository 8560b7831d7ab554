"""White-box watch-table equivalence across kernels and install paths.

Watch-list order is part of search behaviour, so every watch mutation
— install attach, in-propagation watch moves, swap-with-last detach
(learned-DB reduction), order-preserving bulk drop (root-satisfied
pruning) — must evolve the packed ``array('i')`` columns identically
whichever kernel runs the search and whichever path installed the
clauses.  The reference twin is a python-kernel solver fed clause by
clause through ``add_clause`` (the generic ``kernel.attach`` path); the
twin under test is built by the constructor's bulk install, whose
binary/ternary appends are inlined, on the kernel under test.  Both are
driven through the same script and the raw tables compared entry for
entry, not just search statistics.
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
