"""k-induction and recurrence-diameter tests."""

import pytest

from repro.bmc import (
    InductionStatus,
    KInductionEngine,
    recurrence_diameter_at_least,
)
from repro.circuit import Circuit, words
from repro.sat import SolverConfig
from repro.workloads import (
    counter_tripwire,
    pipeline_lockstep,
    token_ring,
    traffic_controller,
)

SMALL = dict(distractor_words=1, distractor_width=3)


class TestProofs:
    def test_token_ring_mutual_exclusion_proved(self):
        circuit, prop = token_ring(num_nodes=4, **SMALL)
        result = KInductionEngine(circuit, prop, max_k=6).run()
        assert result.status is InductionStatus.PROVED
        assert result.trace is None

    def test_traffic_light_proved(self):
        circuit, prop = traffic_controller(**SMALL)
        result = KInductionEngine(circuit, prop, max_k=6).run()
        assert result.status is InductionStatus.PROVED

    def test_pipeline_needs_k_greater_than_zero(self):
        """Lockstep equality is not 0-inductive: earlier stages may
        disagree.  Induction must climb to k = stages - 1."""
        circuit, prop = pipeline_lockstep(stages=3, width=2, buggy=False, **SMALL)
        result = KInductionEngine(circuit, prop, max_k=8).run()
        assert result.status is InductionStatus.PROVED
        assert result.k == 2
        sat_steps = [s for s in result.step_stats if s.status == "sat"]
        assert len(sat_steps) == 2  # k = 0, 1 step cases fail first

    def test_proof_stats_recorded(self):
        circuit, prop = token_ring(num_nodes=4, **SMALL)
        result = KInductionEngine(circuit, prop, max_k=6).run()
        assert result.base_stats
        assert result.step_stats
        assert "proved" in result.summary()


class TestRefutations:
    def test_buggy_counter_refuted_with_trace(self):
        circuit, prop = counter_tripwire(counter_width=3, target=4, **SMALL)
        result = KInductionEngine(circuit, prop, max_k=8).run()
        assert result.status is InductionStatus.FAILED
        assert result.k == 4
        frames = circuit.simulate(
            result.trace.inputs, initial_state=result.trace.initial_state
        )
        assert frames[result.trace.depth][prop] == 0

    def test_bound_exhaustion_reports_unknown(self):
        # The bug sits beyond max_k: neither proof nor refutation.
        circuit, prop = counter_tripwire(counter_width=4, target=12, **SMALL)
        result = KInductionEngine(circuit, prop, max_k=3).run()
        assert result.status is InductionStatus.UNKNOWN

    def test_budget_exhaustion_reports_unknown(self):
        circuit, prop = counter_tripwire(
            counter_width=5, target=31, distractor_words=3, distractor_width=6
        )
        result = KInductionEngine(
            circuit, prop, max_k=10,
            solver_config=SolverConfig(max_decisions=5),
        ).run()
        assert result.status is InductionStatus.UNKNOWN


class TestUniqueStates:
    def test_unique_states_never_delays_convergence(self):
        """Simple-path constraints only remove step-case models, so the
        proof depth with them is never larger than without."""
        circuit2, prop2 = pipeline_lockstep(stages=4, width=2, buggy=False, **SMALL)
        with_unique = KInductionEngine(circuit2, prop2, max_k=10, unique_states=True).run()
        assert with_unique.status is InductionStatus.PROVED
        circuit3, prop3 = pipeline_lockstep(stages=4, width=2, buggy=False, **SMALL)
        without = KInductionEngine(circuit3, prop3, max_k=10, unique_states=False).run()
        assert without.status is InductionStatus.PROVED
        assert with_unique.k <= without.k

    def test_unique_states_required_for_convergence(self):
        """The classic divergence case: a stallable even counter
        (0 -> 2 -> 0 ...) with the true invariant ``G (cnt != 1)``.

        State 1 is unreachable, but the unreachable state 3 satisfies P,
        can self-loop via the stall input, and steps to 1 — so without
        simple-path constraints every step case is SAT and plain
        k-induction never converges.  With unique states the 3-self-loop
        is banned and the proof closes at small k."""

        def build():
            circuit = Circuit("even_counter")
            stall = circuit.add_input("stall")
            bits = words.word_latches(circuit, 2, "b", init=0)
            plus_two = words.word_add(
                circuit, bits, words.word_const(circuit, 2, 2)
            )
            nxt = words.word_mux(circuit, stall, bits, plus_two)
            words.connect_register(circuit, bits, nxt)
            bad = words.word_eq_const(circuit, bits, 1)
            prop = circuit.g_not(bad, name="prop")
            return circuit, prop

        circuit, prop = build()
        without = KInductionEngine(circuit, prop, max_k=5, unique_states=False).run()
        assert without.status is InductionStatus.UNKNOWN

        circuit2, prop2 = build()
        with_unique = KInductionEngine(circuit2, prop2, max_k=5, unique_states=True).run()
        assert with_unique.status is InductionStatus.PROVED
        assert with_unique.k <= 3

    def test_invalid_max_k(self):
        circuit, prop = token_ring(num_nodes=3, **SMALL)
        with pytest.raises(ValueError):
            KInductionEngine(circuit, prop, max_k=-1)


class TestRecurrenceDiameter:
    def make_free_counter(self, width):
        circuit = Circuit(f"free{width}")
        bits = words.word_latches(circuit, width, "b", init=0)
        words.connect_register(circuit, bits, words.word_increment(circuit, bits))
        prop = circuit.g_or(*bits)
        return circuit, prop

    def test_exact_boundary(self):
        # A free-running 2-bit counter has exactly 4 distinct states:
        # simple paths of length 3 exist, length 4 do not.
        circuit, prop = self.make_free_counter(2)
        assert recurrence_diameter_at_least(circuit, prop, 3) is True
        assert recurrence_diameter_at_least(circuit, prop, 4) is False

    def test_gated_counter_same_diameter(self):
        # Gating (stuttering) does not create new states; simple paths
        # max out at the same length.
        circuit, prop = counter_tripwire(
            counter_width=2, target=3, distractor_words=0, distractor_width=3
        )
        assert recurrence_diameter_at_least(circuit, prop, 3) is True
        assert recurrence_diameter_at_least(circuit, prop, 4) is False

    def test_budget_returns_none(self):
        # Needs an input-bearing circuit: a deterministic one is fully
        # assigned by load-time propagation and never consults budgets.
        circuit, prop = counter_tripwire(
            counter_width=3, target=7, distractor_words=1, distractor_width=3
        )
        result = recurrence_diameter_at_least(
            circuit, prop, 5, solver_config=SolverConfig(max_propagations=1)
        )
        assert result is None


class TestBaseCaseEncoding:
    def test_base_cases_encoded_and_installed_once_per_run(self, monkeypatch):
        """The base cases are the depths of one BMC run: one unroller
        and one growing install template serve every k, so each base
        frame is encoded once and each base clause installed once (plus
        one property clause per depth).  The step cases keep their own
        unroller."""
        from repro.encode.unroll import Unroller
        from repro.sat import CdclSolver
        from repro.workloads import instance_by_name

        unrollers, frames, installed = [], [], []
        in_step = []
        init, build_frame = Unroller.__init__, Unroller._build_frame
        install, step_case = CdclSolver._install, KInductionEngine._step_case_holds

        def counting_init(unroller, *args, **kwargs):
            unrollers.append(1)
            init(unroller, *args, **kwargs)

        def counting_build_frame(unroller, frame):
            frames.append(frame)
            build_frame(unroller, frame)

        def counting_install(solver, clauses, *args, **kwargs):
            batch = list(clauses)
            if not in_step:
                installed.append(len(batch))
            return install(solver, batch, *args, **kwargs)

        def flagged_step_case(engine, *args, **kwargs):
            in_step.append(1)
            try:
                return step_case(engine, *args, **kwargs)
            finally:
                in_step.pop()

        monkeypatch.setattr(Unroller, "__init__", counting_init)
        monkeypatch.setattr(Unroller, "_build_frame", counting_build_frame)
        monkeypatch.setattr(CdclSolver, "_install", counting_install)
        monkeypatch.setattr(KInductionEngine, "_step_case_holds", flagged_step_case)
        circuit, prop = instance_by_name("02_1_b2").build()
        result = KInductionEngine(circuit, prop, max_k=10).run()
        assert [d.k for d in result.base_stats] == list(range(11))
        assert len(unrollers) == 2  # one base, one step unroller
        assert len(frames) == 11 + 12  # base frames 0..10, step 0..11
        assert sum(installed) == 15174
