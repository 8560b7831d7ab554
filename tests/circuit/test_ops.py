"""Structural-analysis tests: cones of influence, levels, statistics."""

from repro.circuit import (
    Circuit,
    circuit_stats,
    cone_of_influence,
    transitive_fanin,
)
from repro.circuit.ops import logic_levels


def two_cone_circuit():
    """Two independent cones: a property cone (latch a) and a distractor
    cone (latch b)."""
    c = Circuit()
    ia = c.add_input("ia")
    ib = c.add_input("ib")
    a = c.add_latch("a", init=0)
    b = c.add_latch("b", init=0)
    ga = c.g_xor(a, ia)
    gb = c.g_and(b, ib)
    c.set_next(a, ga)
    c.set_next(b, gb)
    prop = c.g_not(a, name="prop")
    c.set_output("prop", prop)
    return c, {"ia": ia, "ib": ib, "a": a, "b": b, "ga": ga, "gb": gb, "prop": prop}


class TestTransitiveFanin:
    def test_stops_at_latches(self):
        c, nets = two_cone_circuit()
        cone = transitive_fanin(c, [nets["prop"]])
        assert nets["a"] in cone
        assert nets["ga"] not in cone  # behind the latch boundary

    def test_includes_roots(self):
        c, nets = two_cone_circuit()
        cone = transitive_fanin(c, [nets["prop"]])
        assert nets["prop"] in cone


class TestConeOfInfluence:
    def test_crosses_latches(self):
        c, nets = two_cone_circuit()
        cone = cone_of_influence(c, [nets["prop"]])
        assert nets["ga"] in cone
        assert nets["ia"] in cone

    def test_excludes_unrelated_cone(self):
        c, nets = two_cone_circuit()
        cone = cone_of_influence(c, [nets["prop"]])
        assert nets["b"] not in cone
        assert nets["gb"] not in cone
        assert nets["ib"] not in cone

    def test_self_loop_terminates(self):
        c = Circuit()
        q = c.add_latch("q")
        c.set_next(q, q)
        cone = cone_of_influence(c, [q])
        assert cone == frozenset({q})


class TestLevels:
    def test_sources_are_level_zero(self):
        c, nets = two_cone_circuit()
        levels = logic_levels(c)
        assert levels[nets["ia"]] == 0
        assert levels[nets["a"]] == 0

    def test_gates_increment_levels(self):
        c = Circuit()
        a = c.add_input()
        n1 = c.g_not(a)
        n2 = c.g_and(n1, a)
        levels = logic_levels(c)
        assert levels[n1] == 1
        assert levels[n2] == 2


class TestStats:
    def test_summary(self):
        c, _ = two_cone_circuit()
        stats = circuit_stats(c)
        assert stats.num_inputs == 2
        assert stats.num_latches == 2
        assert stats.num_gates == 3
        assert stats.max_level >= 1
        assert "gates=3" in str(stats)

    def test_empty_circuit(self):
        stats = circuit_stats(Circuit())
        assert stats.num_gates == 0
        assert stats.max_level == 0
