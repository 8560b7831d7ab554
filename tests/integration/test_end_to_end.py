"""End-to-end integration: file formats -> BMC -> traces -> proofs."""

import io

from repro.bmc import BmcEngine, BmcStatus, RefineOrderBmc
from repro.circuit.aiger import aiger_str, parse_aiger
from repro.circuit.blif import blif_str, parse_blif
from repro.cnf import parse_dimacs
from repro.cnf.dimacs import dimacs_str
from repro.encode import Unroller
from repro.sat import CdclSolver, check_proof
from repro.workloads import counter_tripwire, token_ring


class TestBlifPipeline:
    def test_blif_roundtrip_preserves_bmc_verdicts(self):
        circuit, prop = counter_tripwire(
            counter_width=3, target=5, distractor_words=1, distractor_width=3
        )
        reparsed = parse_blif(blif_str(circuit))
        prop2 = reparsed.outputs["prop"]
        original = BmcEngine(circuit, prop, max_depth=7).run()
        roundtripped = BmcEngine(reparsed, prop2, max_depth=7).run()
        assert original.status == roundtripped.status is BmcStatus.FAILED
        assert original.depth_reached == roundtripped.depth_reached == 5


class TestAigerPipeline:
    def test_aiger_roundtrip_preserves_bmc_verdicts(self):
        circuit, prop = token_ring(
            num_nodes=4, buggy_arm_depth=3, distractor_words=1, distractor_width=3
        )
        circuit.set_output("prop", prop) if "prop" not in circuit.outputs else None
        reparsed = parse_aiger(aiger_str(circuit))
        index = list(circuit.outputs).index("prop")
        prop2 = reparsed.outputs[f"o{index}"]
        original = BmcEngine(circuit, prop, max_depth=6).run()
        roundtripped = BmcEngine(reparsed, prop2, max_depth=6).run()
        assert original.status == roundtripped.status is BmcStatus.FAILED
        assert original.depth_reached == roundtripped.depth_reached == 4


class TestDimacsPipeline:
    def test_bmc_instance_through_dimacs_and_proof(self):
        circuit, prop = counter_tripwire(
            counter_width=3, target=7, distractor_words=1, distractor_width=3
        )
        instance = Unroller(circuit, prop).instance(4)
        text = dimacs_str(instance.formula, comment="bmc k=4")
        formula = parse_dimacs(text)
        solver = CdclSolver(formula)
        outcome = solver.solve()
        assert outcome.is_unsat
        assert check_proof(formula, solver.export_proof())


class TestRefinementAcrossLayers:
    def test_full_stack_refinement_run(self):
        """Generator -> unroller -> solver -> cores -> ranking -> faster
        search, with every layer's invariants checked en route."""
        circuit, prop = counter_tripwire(
            counter_width=4, target=15, distractor_words=4, distractor_width=6
        )
        engine = RefineOrderBmc(circuit, prop, max_depth=8, mode="static")
        result = engine.run()
        assert result.status is BmcStatus.PASSED_BOUNDED
        # Ranks were learned and cores stayed small relative to formulas.
        assert engine.var_rank
        for depth in result.per_depth:
            assert depth.core_clauses < depth.num_clauses / 2

    def test_proofs_for_every_bmc_depth(self):
        circuit, prop = counter_tripwire(
            counter_width=3, target=7, distractor_words=1, distractor_width=3
        )
        unroller = Unroller(circuit, prop)
        for k in range(5):
            instance = unroller.instance(k)
            solver = CdclSolver(instance.formula)
            outcome = solver.solve()
            assert outcome.is_unsat
            assert check_proof(instance.formula, solver.export_proof())
