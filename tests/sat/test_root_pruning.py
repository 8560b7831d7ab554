"""Root-level watch-pruning regression tests (PR 3).

The dangerous scenario: a clause satisfied at decision level 0 is
detached from the watch lists; a later restart (or a later ``solve``
call with assumptions that try to flip the clause's satisfying
"blocker" literal) must behave exactly as if the clause were still
attached.  Every test here runs the same script against a pruning-off
twin and demands identical verdicts.
"""

import random

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig, check_proof
from repro.sat.solver import _PRUNE_MIN_NEW_FACTS
from repro.sat.types import SolveResult
from tests.conftest import brute_force_sat, random_formula


def _kernel_with_roots(num_units=None):
    """PHP(3) conflict kernel + a block of root units + clauses that the
    units satisfy (the pruning targets).  Returns (formula, base) where
    ``base`` is the first unit variable."""
    from repro.workloads.cnf_families import pigeonhole

    if num_units is None:
        num_units = _PRUNE_MIN_NEW_FACTS + 4
    kernel = pigeonhole(3)  # 12 vars, UNSAT
    base = kernel.num_vars
    formula = CnfFormula(base + num_units + 2)
    for clause in kernel.clauses:
        formula.add_clause(clause.literals)
    spare_a = base + num_units
    spare_b = base + num_units + 1
    for i in range(num_units):
        formula.add_clause([mk_lit(base + i)])  # root fact
        # Satisfied at level 0 by the unit; watched on other literals.
        formula.add_clause(
            [mk_lit(base + i), mk_lit(spare_a, True), mk_lit(spare_b, True)]
        )
    return formula, base, spare_a, spare_b


def _twin_configs(**kw):
    on = SolverConfig(prune_root_satisfied=True, **kw)
    off = SolverConfig(prune_root_satisfied=False, **kw)
    return on, off


class TestPrunedClauseStaysSound:
    def test_install_time_prune_records_and_detaches(self):
        formula, base, spare_a, spare_b = _kernel_with_roots()
        solver = CdclSolver(formula, config=SolverConfig())
        # The satisfied clauses are pruned at install: recorded, and
        # absent from every watch list.
        assert solver.root_pruned_clauses > 0
        installed = solver.root_pruned_clauses
        # Install-time prunes are credited to the next solve's stats
        # (like pending load propagations).
        outcome = solver.solve()
        assert outcome.stats.root_pruned_clauses >= installed
        pruned = solver._root_pruned
        for cid in pruned:
            lits = solver.clause_literals(cid)
            assert lits  # literal list retained
            for table in solver._kernel.watch_snapshot().values():
                for watch_list in table:
                    assert all(entry[0] != cid for entry in watch_list)

    def test_unsat_verdict_and_proof_with_pruning(self):
        formula, *_ = _kernel_with_roots()
        for config in _twin_configs():
            solver = CdclSolver(formula, config=config)
            outcome = solver.solve()
            assert outcome.status is SolveResult.UNSAT
            check_proof(formula, solver.export_proof())

    def test_assumptions_flipping_a_blocker_after_restarts(self):
        """Solve, restart (restart_base=1 forces many), then re-solve
        with assumptions attacking a level-0-satisfied clause: the
        assumption against the root unit must fail identically with
        pruning on and off, and assumptions on the clause's other
        (unwatched-after-prune) literals must propagate identically."""
        formula, base, spare_a, spare_b = _kernel_with_roots()
        results = []
        for config in _twin_configs(restart_base=1, max_conflicts=200):
            solver = CdclSolver(formula, config=config)
            first = solver.solve()
            # Flip the blocker: assume the negation of a root unit.
            against_unit = solver.solve([mk_lit(base, True)])
            # Attack the pruned clause's remaining literals: it must
            # stay satisfied (by the root unit) — SAT-compatible.
            against_spares = solver.solve([mk_lit(spare_a), mk_lit(spare_b)])
            results.append(
                (
                    first.status,
                    against_unit.status,
                    frozenset(against_unit.failed_assumptions or ()),
                    against_spares.status,
                )
            )
        assert results[0] == results[1]
        # The whole formula is UNSAT (PHP kernel), regardless of
        # assumptions; the important part is identical attribution.
        assert results[0][0] is SolveResult.UNSAT

    def test_sat_kernel_restart_assumption_roundtrip(self):
        """SAT variant: restarts + pruning sweeps, then assumption
        re-solves — models must satisfy, verdicts must match the twin."""
        rng = random.Random(11)
        for trial in range(25):
            kernel = random_formula(rng, 8, 28)
            num_units = _PRUNE_MIN_NEW_FACTS + 2
            base = kernel.num_vars
            formula = CnfFormula(base + num_units + 1)
            for clause in kernel.clauses:
                formula.add_clause(clause.literals)
            spare = base + num_units
            for i in range(num_units):
                formula.add_clause([mk_lit(base + i)])
                formula.add_clause([mk_lit(base + i), mk_lit(spare, True)])
            expected = brute_force_sat(kernel) is not None
            verdicts = []
            for config in _twin_configs(restart_base=1):
                solver = CdclSolver(formula, config=config)
                outcome = solver.solve()
                if outcome.status is SolveResult.SAT:
                    assert formula.evaluate(outcome.model)
                # Assumption pass attacking the spare literal.
                second = solver.solve([mk_lit(spare)])
                if second.status is SolveResult.SAT:
                    assert formula.evaluate(second.model)
                verdicts.append((outcome.status, second.status))
            assert verdicts[0] == verdicts[1], f"trial {trial}"
            assert (verdicts[0][0] is SolveResult.SAT) == expected

    def test_restart_sweep_fires_and_counts(self):
        """Root facts accumulated between solves get swept at the first
        restart of the next search; the per-solve stats counter records
        exactly the batch."""
        from repro.workloads.cnf_families import pigeonhole

        formula = CnfFormula(1)
        formula.add_clause([mk_lit(0)])
        solver = CdclSolver(formula, config=SolverConfig(restart_base=1))
        assert solver.solve().status is SolveResult.SAT

        num_units = _PRUNE_MIN_NEW_FACTS + 4
        spare_a = solver.new_var()
        spare_b = solver.new_var()
        unit_vars = [solver.new_var() for _ in range(num_units)]
        # Targets first (attached: not yet satisfied), then the units
        # that will satisfy them as pending level-0 facts.
        for u in unit_vars:
            solver.add_clause(
                [mk_lit(u), mk_lit(spare_a, True), mk_lit(spare_b, True)]
            )
        for u in unit_vars:
            solver.add_clause([mk_lit(u)])
        # A conflictful kernel so the next solve actually restarts.
        kernel = pigeonhole(3)
        offset = solver.num_vars
        solver.ensure_num_vars(offset + kernel.num_vars)
        for clause in kernel.clauses:
            solver.add_clause([lit + 2 * offset for lit in clause.literals])

        outcome = solver.solve()
        assert outcome.status is SolveResult.UNSAT  # PHP(3) kernel
        assert outcome.stats.root_pruned_clauses >= num_units
        assert solver.root_pruned_clauses >= num_units


class TestIncrementalWithPruning:
    def test_clauses_added_after_prune_behave(self):
        """add_clause after pruning: new clauses satisfied by existing
        root facts are pruned at install; unsatisfied ones propagate."""
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(0)])
        solver = CdclSolver(formula, config=SolverConfig())
        assert solver.solve().status is SolveResult.SAT
        before = solver.root_pruned_clauses
        solver.add_clause([mk_lit(0), mk_lit(1)])  # satisfied by root x0
        assert solver.root_pruned_clauses == before + 1
        solver.add_clause([mk_lit(0, True), mk_lit(2)])  # forces x2
        outcome = solver.solve()
        assert outcome.status is SolveResult.SAT
        assert outcome.model[0] == 1 and outcome.model[2] == 1

    def test_deletion_skips_already_detached_clauses(self):
        """Learned clauses that were root-pruned are skipped by the
        reduce pass without touching watch lists (no crash, no
        double-detach)."""
        rng = random.Random(3)
        for _ in range(10):
            formula = random_formula(rng, 12, 50)
            config = SolverConfig(restart_base=1, reduce_base=1, reduce_growth=1.0)
            solver = CdclSolver(formula, config=config)
            outcome = solver.solve()
            assert outcome.status in (SolveResult.SAT, SolveResult.UNSAT)
