"""Decision-strategy tests: the Chaff score rule, ordering semantics,
and the dynamic fallback."""

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import (
    CdclSolver,
    FixedOrderStrategy,
    RankedStrategy,
    VsidsStrategy,
)
from repro.sat.heuristics import DEFAULT_UPDATE_PERIOD
from tests.conftest import random_formula
from tests.sat.scan_order import ChaffScores


class TestChaffScores:
    """The scan-order oracle's score rule (``tests/sat/scan_order.py``)."""

    def test_initial_scores_are_literal_counts(self):
        scores = ChaffScores(2, [3, 0, 1, 2])
        assert scores.score == [3.0, 0.0, 1.0, 2.0]

    def test_rejects_wrong_count_length(self):
        with pytest.raises(ValueError):
            ChaffScores(2, [1, 2, 3])

    def test_learned_clause_bumps_new_counts(self):
        scores = ChaffScores(2, [0, 0, 0, 0])
        scores.on_learned_clause([0, 3])
        scores.on_learned_clause([0])
        assert scores.new_counts == [2, 0, 0, 1]

    def test_periodic_update_rule(self):
        # The paper's exact rule: cha_score = cha_score/2 + new_lit_counts.
        scores = ChaffScores(1, [8, 4])
        scores.on_learned_clause([0])
        scores.on_learned_clause([0])
        scores.on_learned_clause([1])
        scores.periodic_update()
        assert scores.score == [8 / 2 + 2, 4 / 2 + 1]
        assert scores.new_counts == [0, 0]

    def test_update_is_repeatable(self):
        scores = ChaffScores(1, [8, 0])
        scores.periodic_update()
        scores.periodic_update()
        assert scores.score[0] == 2.0


def _formula_with_counts():
    """x2 appears most often; x0 least."""
    formula = CnfFormula(3)
    formula.add_clause([mk_lit(2), mk_lit(1)])
    formula.add_clause([mk_lit(2), mk_lit(1, True)])
    formula.add_clause([mk_lit(2), mk_lit(0)])
    return formula


class TestVsidsOrdering:
    def test_first_decision_is_highest_count_literal(self):
        formula = _formula_with_counts()
        strategy = VsidsStrategy()
        solver = CdclSolver(formula, strategy=strategy)
        strategy_order = strategy  # attach happens inside solve
        outcome = solver.solve()
        assert outcome.is_sat
        # x2 positive has count 3 — the model should set it true via decision.
        assert outcome.model[2] == 1

    def test_decide_returns_minus_one_when_all_assigned(self):
        formula = CnfFormula(1)
        formula.add_clause([mk_lit(0)])
        strategy = VsidsStrategy()
        solver = CdclSolver(formula, strategy=strategy)
        solver.solve()


class TestRankedOrdering:
    def test_rank_overrides_counts(self):
        # x0 has the lowest literal count but the highest bmc rank:
        # it must be decided first.
        formula = _formula_with_counts()
        strategy = RankedStrategy({0: 100.0})
        solver = CdclSolver(formula, strategy=strategy)
        solver.solve()
        # Decision on x0 happens before anything else; the positive phase
        # (tiebreak by cha_score: count(x0)=1 vs count(~x0)=0) is chosen.
        assert solver.assigns[0] == 1

    def test_cha_score_breaks_ties(self):
        # Two vars with equal rank; x2 has higher literal count.
        formula = _formula_with_counts()
        strategy = RankedStrategy({0: 1.0, 2: 1.0})
        solver = CdclSolver(formula, strategy=strategy)
        solver.solve()
        assert solver.assigns[2] == 1

    def test_invalid_switch_divisor(self):
        with pytest.raises(ValueError):
            RankedStrategy({}, switch_divisor=0)

    def test_static_never_switches(self, rng):
        formula = random_formula(rng, 9, 36)
        strategy = RankedStrategy({0: 5.0}, dynamic=False)
        CdclSolver(formula, strategy=strategy).solve()
        assert not strategy.switched

    def test_dynamic_switches_on_hard_instance(self):
        # PHP with a useless ranking: the estimate is bad, decisions blow
        # past 1/64 of literals, so the strategy must fall back to VSIDS.
        from tests.sat.test_solver_hard import pigeonhole

        formula = pigeonhole(5)
        strategy = RankedStrategy(
            {0: 10.0}, dynamic=True, switch_divisor=64
        )
        solver = CdclSolver(formula, strategy=strategy)
        assert solver.solve().is_unsat
        assert strategy.switched

    def test_dynamic_does_not_switch_on_easy_instance(self):
        # Enough literals that the 1/64 threshold exceeds the decision
        # count of an easy SAT instance (BMC instances are like this:
        # huge formulas, few decisions when the estimate is good).
        formula = CnfFormula(2)
        for _ in range(64):
            formula.add_clause([mk_lit(0), mk_lit(1)])
        strategy = RankedStrategy({0: 1.0}, dynamic=True)
        CdclSolver(formula, strategy=strategy).solve()
        assert not strategy.switched

    def test_dynamic_switch_threshold_is_literals_over_64(self):
        # A degenerate tiny formula has threshold 0: the second decision
        # triggers the fallback (faithful to the paper's rule).
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(0), mk_lit(1), mk_lit(2)])
        strategy = RankedStrategy({0: 1.0}, dynamic=True)
        CdclSolver(formula, strategy=strategy).solve()
        assert strategy.switched

    def test_names(self):
        assert RankedStrategy({}).name == "ranked-static"
        assert RankedStrategy({}, dynamic=True).name == "ranked-dynamic"
        assert VsidsStrategy().name == "vsids"


class TestFixedOrder:
    def test_follows_given_order(self):
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(0), mk_lit(1), mk_lit(2)])
        strategy = FixedOrderStrategy([mk_lit(1, True), mk_lit(0)])
        solver = CdclSolver(formula, strategy=strategy)
        outcome = solver.solve()
        assert outcome.is_sat
        assert outcome.model[1] == 0  # first fixed decision was ~x1

    def test_falls_back_to_remaining_vars(self):
        formula = CnfFormula(2)
        formula.add_clause([mk_lit(0), mk_lit(1)])
        strategy = FixedOrderStrategy([])
        outcome = CdclSolver(formula, strategy=strategy).solve()
        assert outcome.is_sat


class TestUpdatePeriod:
    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            VsidsStrategy(update_period=0)

    def test_small_period_still_correct(self, rng):
        for _ in range(30):
            formula = random_formula(rng, 8, 30)
            from tests.conftest import brute_force_sat

            expected = brute_force_sat(formula) is not None
            outcome = CdclSolver(formula, strategy=VsidsStrategy(update_period=2)).solve()
            assert outcome.is_sat == expected

    def test_default_period(self):
        assert DEFAULT_UPDATE_PERIOD == 256
