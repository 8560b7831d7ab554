"""BLIF parser/writer tests."""

import pytest

from repro.circuit import Circuit
from repro.circuit.blif import blif_str, parse_blif
from repro.circuit.blif import BlifError


COUNTER_BLIF = """\
# 2-bit counter
.model counter
.inputs en
.outputs prop
.latch n0 b0 0
.latch n1 b1 0
.names en b0 n0
01 1
10 1
.names en b0 b1 n1
0-1 1
101 1
110 1
.names b0 b1 prop
11 0
.end
"""


class TestParse:
    def test_counter_structure(self):
        c = parse_blif(COUNTER_BLIF)
        assert c.name == "counter"
        assert len(c.inputs) == 1
        assert len(c.latches) == 2
        assert "prop" in c.outputs

    def test_counter_behaviour(self):
        c = parse_blif(COUNTER_BLIF)
        en = c.find("en")
        b0, b1 = c.find("b0"), c.find("b1")
        frames = c.simulate([{en: 1}] * 4)
        counts = [f[b0] + 2 * f[b1] for f in frames]
        assert counts == [0, 1, 2, 3]

    def test_prop_is_nand(self):
        c = parse_blif(COUNTER_BLIF)
        en = c.find("en")
        prop = c.outputs["prop"]
        frames = c.simulate([{en: 1}] * 4)
        # prop = not (b0 and b1): false only at count 3.
        assert [f[prop] for f in frames] == [1, 1, 1, 0]

    def test_constant_covers(self):
        text = ".model k\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
        c = parse_blif(text)
        frames = c.simulate([{}])
        assert frames[0][c.outputs["one"]] == 1
        assert frames[0][c.outputs["zero"]] == 0

    def test_latch_init_dont_care(self):
        text = ".model m\n.inputs i\n.outputs o\n.latch i o 3\n.end\n"
        c = parse_blif(text)
        assert c.init_of(c.find("o")) is None

    def test_latch_with_type_and_control(self):
        text = ".model m\n.inputs i\n.outputs o\n.latch i o re clk 1\n.end\n"
        c = parse_blif(text)
        assert c.init_of(c.find("o")) == 1

    def test_line_continuation(self):
        text = ".model m\n.inputs a \\\nb\n.outputs o\n.names a b o\n11 1\n.end\n"
        c = parse_blif(text)
        assert len(c.inputs) == 2

    def test_out_of_order_names_resolved(self):
        text = (
            ".model m\n.inputs a\n.outputs o\n"
            ".names t o\n1 1\n"  # o defined from t before t exists
            ".names a t\n0 1\n"
            ".end\n"
        )
        c = parse_blif(text)
        a = c.find("a")
        frames = c.simulate([{a: 0}])
        assert frames[0][c.outputs["o"]] == 1

    def test_undefined_signal_rejected(self):
        text = ".model m\n.outputs o\n.names ghost o\n1 1\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_mixed_onset_offset_rejected(self):
        text = ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n0 0\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_bad_cube_char_rejected(self):
        text = ".model m\n.inputs a\n.outputs o\n.names a o\nz 1\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_arity_mismatch_rejected(self):
        text = ".model m\n.inputs a b\n.outputs o\n.names a b o\n1 1\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_unknown_construct_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.gate nand2 a=x b=y o=z\n.end\n")

    def test_bad_latch_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.latch only_one\n.end\n")


class TestRoundtrip:
    def _equivalent(self, c1, c2, input_names, cycles=6):
        """Compare named outputs under an exhaustive-ish input schedule."""
        import itertools

        for pattern in itertools.product((0, 1), repeat=min(len(input_names), 3)):
            vec1 = [
                {c1.find(n): pattern[i % len(pattern)] for i, n in enumerate(input_names)}
            ] * cycles
            vec2 = [
                {c2.find(n): pattern[i % len(pattern)] for i, n in enumerate(input_names)}
            ] * cycles
            f1 = c1.simulate(vec1)
            f2 = c2.simulate(vec2)
            for name in c1.outputs:
                o1 = [f[c1.outputs[name]] for f in f1]
                o2 = [f[c2.outputs[name]] for f in f2]
                assert o1 == o2, f"output {name} diverges"

    def test_counter_roundtrip(self):
        c1 = parse_blif(COUNTER_BLIF)
        c2 = parse_blif(blif_str(c1))
        self._equivalent(c1, c2, ["en"])

    def test_builder_circuit_roundtrip(self):
        c1 = Circuit("rt")
        a = c1.add_input("a")
        b = c1.add_input("b")
        q = c1.add_latch("q", init=1)
        c1.set_next(q, c1.g_mux(a, q, c1.g_xor(a, b)))
        c1.set_output("o", c1.g_nor(q, c1.g_nand(a, b)))
        c2 = parse_blif(blif_str(c1))
        self._equivalent(c1, c2, ["a", "b"])

    def test_constants_roundtrip(self):
        c1 = Circuit("k")
        c1.set_output("t", c1.const(1))
        c1.set_output("f", c1.const(0))
        c2 = parse_blif(blif_str(c1))
        frames = c2.simulate([{}])
        assert frames[0][c2.outputs["t"]] == 1
        assert frames[0][c2.outputs["f"]] == 0
