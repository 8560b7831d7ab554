"""VCD writer tests."""

import io

from repro.bmc import BmcEngine, BmcStatus
from repro.circuit import Circuit, trace_to_vcd
from repro.circuit.vcd import vcd_str
from repro.circuit.vcd import _identifier
from repro.workloads import counter_tripwire


def toggler():
    circuit = Circuit("toggle")
    en = circuit.add_input("en")
    q = circuit.add_latch("q", init=0)
    circuit.set_next(q, circuit.g_xor(q, en))
    return circuit, en, q


class TestIdentifiers:
    def test_first_codes_unique_and_printable(self):
        codes = [_identifier(i) for i in range(500)]
        assert len(set(codes)) == 500
        assert all(all(33 <= ord(ch) <= 126 for ch in code) for code in codes)

    def test_short_codes_first(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2


class TestWriteVcd:
    def test_header_and_vars(self):
        circuit, en, q = toggler()
        frames = circuit.simulate([{en: 1}, {en: 0}])
        text = vcd_str(circuit, frames)
        assert "$timescale 1 ns $end" in text
        assert "$scope module toggle $end" in text
        assert " en $end" in text
        assert " q $end" in text
        assert "$dumpvars" in text

    def test_only_changes_are_dumped(self):
        circuit, en, q = toggler()
        frames = circuit.simulate([{en: 0}] * 4)  # q never changes
        text = vcd_str(circuit, frames)
        # Initial dump at #0 and final timestamp; no q toggles in between.
        assert text.count("#") >= 2
        body = text.split("$enddefinitions $end")[1]
        q_code = None
        for line in text.splitlines():
            if line.endswith(" q $end"):
                q_code = line.split()[3]
        assert body.count(f"1{q_code}") == 0  # q stays 0

    def test_value_changes_tracked(self):
        circuit, en, q = toggler()
        frames = circuit.simulate([{en: 1}] * 3)
        assert [f[q] for f in frames] == [0, 1, 0]
        text = vcd_str(circuit, frames)
        body = text.split("$enddefinitions $end")[1]
        q_code = None
        for line in text.splitlines():
            if line.endswith(" q $end"):
                q_code = line.split()[3]
        assert f"1{q_code}" in body
        assert body.count(f"0{q_code}") >= 1

    def test_net_restriction(self):
        circuit, en, q = toggler()
        frames = circuit.simulate([{en: 1}])
        text = vcd_str(circuit, frames, nets=[q])
        assert " q $end" in text
        assert " en $end" not in text


class TestTraceToVcd:
    def test_counterexample_dump(self):
        circuit, prop = counter_tripwire(
            counter_width=3, target=5, distractor_words=1, distractor_width=3
        )
        result = BmcEngine(circuit, prop, max_depth=6).run()
        assert result.status is BmcStatus.FAILED
        buffer = io.StringIO()
        trace_to_vcd(circuit, result.trace, buffer)
        text = buffer.getvalue()
        assert " prop $end" in text
        # The violation is visible: prop drops to 0 somewhere.
        body = text.split("$enddefinitions $end")[1]
        prop_code = None
        for line in text.splitlines():
            if line.endswith(" prop $end"):
                prop_code = line.split()[3]
        assert f"0{prop_code}" in body
