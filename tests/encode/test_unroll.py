"""Unroller tests: Eq. 1 semantics, prefix stability, provenance, COI."""

import itertools

import pytest

from repro.circuit import Circuit, GateOp, words
from repro.cnf import CnfFormula
from repro.encode import Unroller
from repro.encode.unroll import ClauseOrigin
from repro.sat import CdclSolver
from repro.workloads import instance_by_name
from tests.conftest import brute_force_sat


def toggle_circuit():
    """q toggles when en; property: q is never 1 at the same time as en=...
    simply G !bad where bad = q AND en."""
    c = Circuit("toggle")
    en = c.add_input("en")
    q = c.add_latch("q", init=0)
    c.set_next(q, c.g_xor(q, en))
    bad = c.g_and(q, en)
    prop = c.g_not(bad, name="prop")
    return c, en, q, prop


class TestBasicSemantics:
    def test_depth0_checks_initial_state(self):
        c, en, q, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(0)
        # at frame 0, q=0 so bad requires en... bad = 0&en = 0: UNSAT? No:
        # bad = q & en = 0 at frame 0 regardless -> prop holds -> UNSAT.
        outcome = CdclSolver(instance.formula).solve()
        assert outcome.is_unsat

    def test_depth1_finds_violation(self):
        c, en, q, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(1)
        outcome = CdclSolver(instance.formula).solve()
        # en=1 at frame 0 makes q=1 at frame 1; en=1 at frame 1 -> bad.
        assert outcome.is_sat
        assert instance.value_of(outcome.model, q, 1) == 1
        assert instance.value_of(outcome.model, en, 1) == 1

    def test_property_clause_is_last(self):
        c, _, _, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(2)
        assert instance.property_clause_index == instance.formula.num_clauses - 1
        origin = instance.origin_of(instance.property_clause_index)
        assert origin.kind == "property"
        assert origin.frame == 2
        assert origin.net == prop

    def test_init_clauses_present(self):
        c, _, q, prop = toggle_circuit()
        instance = Unroller(c, prop).instance(0)
        init_origins = [o for o in instance.origins if o.kind == "init"]
        assert len(init_origins) == 1
        assert init_origins[0].net == q

    def test_unconstrained_latch_has_no_init_clause(self):
        c = Circuit()
        q = c.add_latch("q", init=None)
        c.set_next(q, q)
        prop = c.g_not(q)
        instance = Unroller(c, prop).instance(0)
        assert not any(o.kind == "init" for o in instance.origins)
        # Depth 0 is SAT: the latch may start at 1 (violating !q... prop=!q
        # so violation needs q=1 at frame 0).
        outcome = CdclSolver(instance.formula).solve()
        assert outcome.is_sat
        assert instance.unroller.decode_initial_state(outcome.model)[q] == 1


class TestPrefixStability:
    def test_lits_stable_across_instances(self):
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        early = u.instance(2)
        late = u.instance(6)
        for net in range(c.num_nets):
            for frame in range(3):
                assert early.lit_of(net, frame) == late.lit_of(net, frame)

    def test_clause_prefix_stable(self):
        c, _, _, prop = toggle_circuit()
        u = Unroller(c, prop)
        i2 = u.instance(2)
        i4 = u.instance(4)
        shared = i2.formula.num_clauses - 1  # all but the property clause
        for index in range(shared):
            assert tuple(i2.formula.clause(index)) == tuple(i4.formula.clause(index))

    def test_instances_identical_regardless_of_build_order(self):
        c, _, _, prop = toggle_circuit()
        u1 = Unroller(c, prop)
        u1.instance(6)  # build deep first
        downward = u1.instance(3)
        u2 = Unroller(c, prop)
        upward = u2.instance(3)
        assert downward.formula.num_vars == upward.formula.num_vars
        assert [tuple(x) for x in downward.formula.clauses] == [
            tuple(x) for x in upward.formula.clauses
        ]

    def test_latch_variable_sharing(self):
        # lit(latch, f+1) must literally be lit(next_net, f).
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        instance = u.instance(3)
        next_net = c.next_of(q)
        for frame in range(3):
            assert instance.lit_of(q, frame + 1) == instance.lit_of(next_net, frame)

    def test_not_gates_are_free(self):
        c = Circuit()
        a = c.add_input("a")
        n = c.g_not(a)
        u = Unroller(c, n)
        instance = u.instance(0)
        assert instance.lit_of(n, 0) == instance.lit_of(a, 0) ^ 1


class TestAgainstBruteForce:
    def test_bmc_equals_exhaustive_simulation(self, rng):
        """For random small circuits, SAT at depth k iff some input
        sequence violates the property at frame k."""
        for trial in range(12):
            c = Circuit("rnd")
            ins = [c.add_input(f"i{j}") for j in range(2)]
            latches = [c.add_latch(f"l{j}", init=rng.randint(0, 1)) for j in range(2)]
            pool = list(ins) + latches
            for _ in range(8):
                op = rng.choice(["g_and", "g_or", "g_xor", "g_not"])
                if op == "g_not":
                    pool.append(c.g_not(rng.choice(pool)))
                else:
                    pool.append(getattr(c, op)(rng.choice(pool), rng.choice(pool)))
            for latch in latches:
                c.set_next(latch, rng.choice(pool))
            prop = rng.choice(pool)
            u = Unroller(c, prop)
            for k in range(3):
                outcome = CdclSolver(u.instance(k).formula).solve()
                found = False
                for seq in itertools.product(range(4), repeat=k + 1):
                    vectors = [{ins[0]: s & 1, ins[1]: (s >> 1) & 1} for s in seq]
                    frames = c.simulate(vectors)
                    if frames[k][prop] == 0:
                        found = True
                        break
                assert found == outcome.is_sat, f"trial {trial} depth {k}"


class TestConeOfInfluence:
    def make_two_cone(self):
        c = Circuit()
        ia, ib = c.add_input("ia"), c.add_input("ib")
        a = c.add_latch("a", init=0)
        b = c.add_latch("b", init=0)
        c.set_next(a, c.g_xor(a, ia))
        c.set_next(b, c.g_xor(b, ib))
        prop = c.g_not(a, name="prop")
        return c, a, b, prop

    def test_coi_prunes_unrelated_logic(self):
        c, a, b, prop = self.make_two_cone()
        full = Unroller(c, prop, use_coi=False).instance(3)
        pruned = Unroller(c, prop, use_coi=True).instance(3)
        assert pruned.formula.num_vars < full.formula.num_vars
        assert pruned.formula.num_clauses < full.formula.num_clauses

    def test_coi_excluded_nets_unencoded(self):
        c, a, b, prop = self.make_two_cone()
        pruned = Unroller(c, prop, use_coi=True)
        pruned.instance(1)
        with pytest.raises(KeyError):
            pruned.lit_of(b, 0)

    def test_coi_preserves_answers(self):
        c, a, b, prop = self.make_two_cone()
        for k in range(4):
            full = CdclSolver(Unroller(c, prop, use_coi=False).instance(k).formula).solve()
            pruned = CdclSolver(Unroller(c, prop, use_coi=True).instance(k).formula).solve()
            assert full.is_sat == pruned.is_sat


class TestVarFrames:
    def test_var_frames_recorded(self):
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        instance = u.instance(2)
        assert u.var_frame(0) == -1  # the constant
        for frame in range(3):
            lit = instance.lit_of(en, frame)
            assert u.var_frame(lit >> 1) == frame

    def test_negative_depth_rejected(self):
        c, _, _, prop = toggle_circuit()
        with pytest.raises(ValueError):
            Unroller(c, prop).instance(-1)

    def test_bad_property_net_rejected(self):
        c, _, _, _ = toggle_circuit()
        with pytest.raises(ValueError):
            Unroller(c, 10**6)

    def test_frame_out_of_range_rejected(self):
        c, en, _, prop = toggle_circuit()
        instance = Unroller(c, prop).instance(1)
        with pytest.raises(ValueError):
            instance.lit_of(en, 5)


def _copied(cold: Unroller, k: int):
    """The copy path instances used to take: a fresh formula filled one
    validated clause at a time from an unroller that has encoded exactly
    frames ``0..k``, the property clause appended last, and a plain list
    of origins."""
    cold.ensure_frames(k)
    assert cold.clause_watermark(k) == cold.num_encoded_clauses
    formula = CnfFormula(cold.var_watermark(k))
    origins = []
    for clause, origin in cold.clauses_since(0):
        formula.add_clause(list(clause.literals))
        origins.append(origin)
    prop_lit = cold.lit_of(cold.property_net, k)
    prop_index = formula.add_clause([prop_lit ^ 1])
    origins.append(ClauseOrigin("property", cold.property_net, k))
    return formula, origins, prop_index


def _literal_lists(formula):
    return [tuple(c.literals) for c in formula.clauses]


def _blocks(words, lo, hi):
    """The clauses of the ``[n, lit …]`` word blocks ``words[lo:hi]``."""
    clauses = []
    while lo < hi:
        n = words[lo]
        clauses.append(tuple(words[lo + 1:lo + 1 + n]))
        lo += 1 + n
    assert lo == hi
    return clauses


class TestInstanceViews:
    """Depth instances are O(1) views over the unroller's append-only
    clause log; they must equal the copy path clause for clause, even on
    a shared unroller that has already encoded frames beyond ``k``."""

    MAX_DEPTH = 7

    @pytest.fixture(params=[False, True], ids=["full", "coi"])
    def circuit_and_prop(self, request):
        circuit, prop = instance_by_name("01_b").build()
        return circuit, prop, request.param

    def _shared(self, circuit, prop, coi):
        shared = Unroller(circuit, prop, use_coi=coi, memoize_instances=True)
        shared.ensure_frames(self.MAX_DEPTH)
        return shared

    def test_instance_equals_copy_path_at_every_depth(self, circuit_and_prop):
        circuit, prop, coi = circuit_and_prop
        shared = self._shared(circuit, prop, coi)
        for k in range(self.MAX_DEPTH + 1):
            view = shared.instance(k)
            formula, origins, prop_index = _copied(
                Unroller(circuit, prop, use_coi=coi), k
            )
            assert view.formula.num_vars == formula.num_vars
            assert view.formula.num_clauses == formula.num_clauses
            assert _literal_lists(view.formula) == _literal_lists(formula)
            assert [
                view.formula.clause(i) for i in range(formula.num_clauses)
            ] == list(formula.clauses)
            assert view.property_clause_index == prop_index
            assert view.formula.num_literals() == formula.num_literals()
            assert list(view.origins) == origins
            assert view.origins == origins
            assert [
                view.origin_of(i) for i in range(formula.num_clauses)
            ] == origins
            assert view.origins[-1] == origins[-1]
            assert view.origins[2:5] == origins[2:5]

    def test_formula_up_to_and_clauses_since_equal_copy_path(
        self, circuit_and_prop
    ):
        circuit, prop, coi = circuit_and_prop
        shared = self._shared(circuit, prop, coi)
        for k in range(self.MAX_DEPTH + 1):
            formula, origins, _ = _copied(Unroller(circuit, prop, use_coi=coi), k)
            up_to, up_to_origins = shared.formula_up_to(k)
            assert up_to.num_vars == formula.num_vars
            assert _literal_lists(up_to) == _literal_lists(formula)[:-1]
            assert list(up_to_origins) == origins[:-1]
            stop = shared.clause_watermark(k)
            start = shared.clause_watermark(k - 1) if k else 0
            delta = shared.clauses_since(start, stop)
            expected = [
                (formula.clause(i), origins[i]) for i in range(start, stop)
            ]
            assert list(delta) == expected
            assert delta == expected
            assert list(delta.literals()) == [c.literals for c, _ in expected]
            assert [
                shared.origin_of_clause(i) for i in range(stop)
            ] == origins[:-1]

    def test_word_log_is_the_tuple_log_flattened(self, circuit_and_prop):
        """At every frame watermark the flat word log holds exactly the
        tuple log's clauses as ``[n, lit …]`` blocks: one length word
        per clause and nothing else."""
        circuit, prop, coi = circuit_and_prop
        unroller = Unroller(circuit, prop, use_coi=coi)
        for k in range(self.MAX_DEPTH + 1):
            prefix, _ = unroller.formula_up_to(k)
            run = prefix.clause_run(0)
            clauses = _literal_lists(prefix)
            # The view's run is the log itself, not a flattened copy.
            assert run.words is unroller.clauses_since(0).word_range()[0]
            assert (run.lo, run.hi) == (0, len(run.words))
            assert run.hi == len(clauses) + sum(map(len, clauses))
            assert _blocks(run.words, run.lo, run.hi) == clauses

    def test_word_ranges_address_the_tuple_indices(self, circuit_and_prop):
        """Views and slices of a shared unroller that already holds
        deeper frames address the same clauses by word range as by
        tuple index."""
        circuit, prop, coi = circuit_and_prop
        shared = self._shared(circuit, prop, coi)
        for k in range(self.MAX_DEPTH + 1):
            stop = shared.clause_watermark(k)
            start = shared.clause_watermark(k - 1) if k else 0
            instance = shared.instance(k).formula
            clauses = _literal_lists(instance)
            for first in (0, start, stop):
                run = instance.clause_run(first)
                assert list(run) == clauses[first:]
                assert _blocks(run.words, run.lo, run.hi) == clauses[first:]
            delta = shared.clauses_since(start, stop)
            words, lo, hi = delta.word_range()
            assert _blocks(words, lo, hi) == [c.literals for c, _ in delta]
            run = delta.literals()
            assert _blocks(run.words, run.lo, run.hi) == list(run)
            # An index inside a frame has no recorded offset: it is
            # derived from the tuples and must agree too.
            middle = (start + stop) // 2
            words, lo, hi = shared.clauses_since(middle, stop).word_range()
            assert _blocks(words, lo, hi) == clauses[middle:stop]

    def test_clauses_since_is_fixed_at_call_time(self):
        circuit, prop = instance_by_name("01_b").build()
        unroller = Unroller(circuit, prop)
        unroller.ensure_frames(1)
        delta = unroller.clauses_since(0)
        size = len(delta)
        unroller.ensure_frames(3)
        assert len(delta) == size
        assert len(list(delta.literals())) == size
        assert len(unroller.clauses_since(0)) > size

    def test_views_never_write_into_the_shared_log(self):
        circuit, prop = instance_by_name("01_b").build()
        shared = Unroller(circuit, prop)
        shared.ensure_frames(self.MAX_DEPTH)
        encoded = shared.num_encoded_clauses
        before = _literal_lists(shared.instance(2).formula)
        instance = shared.instance(2)
        dup = instance.formula.copy()
        up_to, _ = shared.formula_up_to(2)
        for formula in (instance.formula, dup, up_to):
            formula.add_clause([2])
            formula.add_clause([formula.new_var() * 2])
        assert shared.num_encoded_clauses == encoded
        assert _literal_lists(shared.instance(2).formula) == before
        assert shared.formula_up_to(2)[0].num_clauses == len(before) - 1
        assert instance.formula.num_clauses == len(before) + 2
        assert dup.num_clauses == len(before) + 2
        # the copy and the original no longer see each other's tails
        instance.formula.add_clause([3])
        assert dup.num_clauses == len(before) + 2
        assert instance.formula.literals(-1) == (3,)
