"""Sequential circuit substrate: netlists, word-level builders, structural
analyses, and BLIF/AIGER interchange."""

from repro.circuit.netlist import Circuit, CircuitError, GateOp
from repro.circuit.ops import (
    CircuitStats,
    circuit_stats,
    cone_of_influence,
    transitive_fanin,
)
from repro.circuit.blif import BlifError, parse_blif_file, write_blif
from repro.circuit.aiger import AigerError, parse_aiger_file, write_aiger
from repro.circuit.random_sim import RandomSimResult, random_screen
from repro.circuit.vcd import trace_to_vcd
from repro.circuit import words

__all__ = [
    "trace_to_vcd",
    "random_screen",
    "RandomSimResult",
    "Circuit",
    "CircuitError",
    "GateOp",
    "CircuitStats",
    "circuit_stats",
    "cone_of_influence",
    "transitive_fanin",
    "parse_blif_file",
    "write_blif",
    "BlifError",
    "parse_aiger_file",
    "write_aiger",
    "AigerError",
    "words",
]
