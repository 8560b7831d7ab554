"""Install templates and forks: a fork is a bulk install, byte for byte.

A BMC run installs each encoded clause once into a growing
:class:`~repro.sat.solver.InstallTemplate` and forks every depth's solver
from it.  That is only sound if the fork is indistinguishable from
``CdclSolver(instance.formula)``: the same arena blocks, literal
counts, root facts, per-literal watch order and install-order mirror.  These tests pin that on every depth of every ``small_suite()``
row, on both kernels, with root-satisfied pruning on and off.
"""

from __future__ import annotations

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.encode.unroll import Unroller
from repro.sat import CdclSolver, InstallTemplate, SolverConfig
from repro.sat.kernel import native_available
from repro.sat.types import SolveResult
from repro.workloads import small_suite

KERNELS = ["python", pytest.param("native", marks=pytest.mark.skipif(
    not native_available(), reason="native kernel not buildable here"
))]


def install_state(solver: CdclSolver) -> dict:
    """Everything an install produces that search can observe."""
    arena = solver._arena
    mirror = solver._kernel.mirror
    nv = solver.num_vars
    return {
        "data": bytes(arena.data),
        "refs": bytes(arena.refs),
        "flags": bytes(arena.flags),
        "lit_counts": list(solver._lit_counts[:2 * nv]),
        "truth": bytes(solver.lit_truth[:2 * nv]),
        "trail": list(solver._trail[:solver._trail_len]),
        "watches": solver._kernel.watch_snapshot(),
        "root_pruned": solver.root_pruned_clauses,
        "mirror": (mirror.data.tolist(), mirror.refs.tolist()),
        "pending_props": solver._pending_load_propagations,
        "ok": solver._ok,
    }


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("row", small_suite(), ids=lambda row: row.name)
def test_every_depth_fork_equals_bulk_install(row, kernel, prune):
    circuit, prop = row.build()
    unroller = Unroller(circuit, prop)
    config = SolverConfig(kernel=kernel, prune_root_satisfied=prune)
    template = None
    for k in range(row.max_depth + 1):
        formula = unroller.instance(k).formula
        prefix, _origins = unroller.formula_up_to(k)
        template = InstallTemplate(prefix, config, template)
        fork = CdclSolver(formula, config=config, template=template)
        bulk = CdclSolver(formula, config=config)
        fork_state = install_state(fork)
        bulk_state = install_state(bulk)
        for key in bulk_state:
            assert fork_state[key] == bulk_state[key], (row.name, k, key)


def _root_unsat_formula() -> CnfFormula:
    formula = CnfFormula(3)
    formula.add_clause([mk_lit(0), mk_lit(1)])
    formula.add_clause([mk_lit(2)])
    formula.add_clause([mk_lit(2, True), mk_lit(0)])
    formula.add_clause([mk_lit(0, True)])  # falsified at the root
    formula.add_clause([mk_lit(1), mk_lit(2)])
    formula.add_clause([mk_lit(1, True), mk_lit(2, True), mk_lit(0)])
    return formula


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("split", [4, 5, 6])
def test_root_unsat_template_gives_bulk_status_and_core(kernel, split):
    formula = _root_unsat_formula()
    config = SolverConfig(kernel=kernel)
    template = InstallTemplate(formula.subformula(range(split)), config)
    assert not template._ok
    fork = CdclSolver(formula, config=config, template=template)
    bulk = CdclSolver(formula, config=config)
    assert install_state(fork) == install_state(bulk)
    fork_outcome = fork.solve()
    bulk_outcome = bulk.solve()
    assert fork_outcome.status is bulk_outcome.status is SolveResult.UNSAT
    assert fork_outcome.core_clauses == bulk_outcome.core_clauses == {1, 2, 3}


def test_template_grows_without_changing_the_old_one():
    formula = _root_unsat_formula()
    first = InstallTemplate(formula.subformula(range(2)))
    before = install_state(first)
    InstallTemplate(formula.subformula(range(5)), template=first)
    assert install_state(first) == before


@pytest.mark.parametrize(
    "field, value",
    [("prune_root_satisfied", False), ("profile_access", True)],
)
def test_fork_with_other_install_config_is_refused(field, value):
    formula = _root_unsat_formula()
    template = InstallTemplate(formula.subformula(range(3)))
    config = SolverConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        CdclSolver(formula, config=config, template=template)


@pytest.mark.skipif(not native_available(), reason="needs both kernels")
def test_fork_on_another_kernel_is_refused():
    formula = _root_unsat_formula()
    template = InstallTemplate(formula, SolverConfig(kernel="native"))
    with pytest.raises(ValueError, match="kernel"):
        CdclSolver(formula, config=SolverConfig(kernel="python"), template=template)


def test_capture_and_search_config_may_differ():
    formula = _root_unsat_formula()
    template = InstallTemplate(formula.subformula(range(3)))
    config = SolverConfig(phase_mode="inverted", record_cdg=False, max_conflicts=5)
    assert CdclSolver(formula, config=config, template=template).solve().is_unsat


def test_template_must_be_a_prefix():
    formula = _root_unsat_formula()
    other = CnfFormula(3)
    other.add_clause([mk_lit(1)])
    template = InstallTemplate(other)
    with pytest.raises(ValueError, match="prefix"):
        CdclSolver(formula, template=template)


def test_template_is_never_solved_or_extended():
    template = InstallTemplate(_root_unsat_formula())
    for call in (
        template.solve,
        lambda: template.add_clause([mk_lit(0)]),
        lambda: template.add_clauses([[mk_lit(0)]]),
        lambda: template.add_shared_clause([mk_lit(0)]),
    ):
        with pytest.raises(TypeError, match="install template"):
            call()
