"""BLIF reader/writer (the netlist format of VIS/SIS flows).

Supported subset: ``.model``, ``.inputs``, ``.outputs``, ``.latch`` (with
optional type/control fields and init value) and ``.names`` sum-of-products
covers, plus ``.end``, comments (``#``) and line continuations (``\\``).
Covers are translated structurally into AND/OR/NOT trees.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.circuit.netlist import Circuit, CircuitError, GateOp


class BlifError(ValueError):
    """Raised on malformed BLIF input."""


def _logical_lines(stream: TextIO) -> List[Tuple[int, str]]:
    lines: List[Tuple[int, str]] = []
    pending = ""
    pending_start = 0
    for line_no, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].rstrip()
        if not pending:
            pending_start = line_no
        if text.endswith("\\"):
            pending += text[:-1] + " "
            continue
        pending += text
        if pending.strip():
            lines.append((pending_start, pending.strip()))
        pending = ""
    if pending.strip():
        lines.append((pending_start, pending.strip()))
    return lines


def parse_blif(source: Union[str, TextIO]) -> Circuit:
    """Parse BLIF text (or a stream) into a :class:`Circuit`."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    lines = _logical_lines(stream)

    model_name = "blif"
    input_names: List[str] = []
    output_names: List[str] = []
    latch_specs: List[Tuple[str, str, Optional[int]]] = []  # (input, output, init)
    covers: List[Tuple[List[str], str, List[Tuple[str, str]]]] = []

    index = 0
    while index < len(lines):
        line_no, line = lines[index]
        index += 1
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".model":
            model_name = tokens[1] if len(tokens) > 1 else model_name
        elif keyword == ".inputs":
            input_names.extend(tokens[1:])
        elif keyword == ".outputs":
            output_names.extend(tokens[1:])
        elif keyword == ".latch":
            fields = tokens[1:]
            if len(fields) < 2:
                raise BlifError(f"line {line_no}: .latch needs input and output")
            data_in, data_out = fields[0], fields[1]
            init: Optional[int] = 0
            # Optional trailing init value; optional type+control before it.
            if len(fields) in (3, 5):
                init_token = fields[-1]
                if init_token in ("0", "1"):
                    init = int(init_token)
                elif init_token in ("2", "3"):
                    init = None  # don't-care / unknown
                else:
                    raise BlifError(f"line {line_no}: bad latch init {init_token!r}")
            latch_specs.append((data_in, data_out, init))
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifError(f"line {line_no}: .names needs at least an output")
            cubes: List[Tuple[str, str]] = []
            while index < len(lines) and not lines[index][1].startswith("."):
                cube_line = lines[index][1].split()
                index += 1
                if len(cube_line) == 1:
                    cubes.append(("", cube_line[0]))
                elif len(cube_line) == 2:
                    cubes.append((cube_line[0], cube_line[1]))
                else:
                    raise BlifError(f"bad cover line {cube_line!r}")
            covers.append((signals[:-1], signals[-1], cubes))
        elif keyword == ".end":
            break
        elif keyword in (".exdc", ".wire_load_slope", ".default_input_arrival"):
            continue  # tolerated and ignored
        else:
            raise BlifError(f"line {line_no}: unsupported construct {keyword!r}")

    circuit = Circuit(model_name)
    net_of: Dict[str, int] = {}
    for name in input_names:
        if name in net_of:
            raise BlifError(f"input {name!r} declared twice")
        net_of[name] = circuit.add_input(name)
    for _, data_out, init in latch_specs:
        if data_out in net_of:
            raise BlifError(f"latch output {data_out!r} already defined")
        net_of[data_out] = circuit.add_latch(data_out, init=init)

    # Covers may reference signals defined by later covers; resolve in
    # dependency order with a simple worklist.
    pending = list(covers)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for in_names, out_name, cubes in pending:
            if all(name in net_of for name in in_names):
                net_of[out_name] = _build_cover(circuit, net_of, in_names, cubes, out_name)
                progress = True
            else:
                remaining.append((in_names, out_name, cubes))
        pending = remaining
    if pending:
        missing = sorted(
            {name for in_names, _, _ in pending for name in in_names if name not in net_of}
        )
        raise BlifError(f"undefined signals (or combinational cycle): {missing}")

    for data_in, data_out, _ in latch_specs:
        if data_in not in net_of:
            raise BlifError(f"latch input {data_in!r} is undefined")
        circuit.set_next(net_of[data_out], net_of[data_in])
    for name in output_names:
        if name not in net_of:
            raise BlifError(f"output {name!r} is undefined")
        circuit.set_output(name, net_of[name])
    circuit.validate()
    return circuit


def _build_cover(
    circuit: Circuit,
    net_of: Dict[str, int],
    in_names: List[str],
    cubes: List[Tuple[str, str]],
    out_name: str,
) -> int:
    """Translate one ``.names`` SOP cover into gates; returns the net."""
    if not in_names:
        # Constant: a single "1" line means const1, empty cover means const0.
        value = 1 if any(out_value == "1" for _, out_value in cubes) else 0
        net = circuit.const(value)
        _maybe_name(circuit, net, out_name)
        return net
    if not cubes:
        net = circuit.const(0)
        _maybe_name(circuit, net, out_name)
        return net

    out_values = {out_value for _, out_value in cubes}
    if len(out_values) != 1:
        raise BlifError(f"cover for {out_name!r} mixes on-set and off-set lines")
    on_set = out_values == {"1"}

    cube_nets: List[int] = []
    for pattern, _ in cubes:
        if len(pattern) != len(in_names):
            raise BlifError(
                f"cube {pattern!r} arity mismatch for {out_name!r}"
            )
        literals = []
        for char, name in zip(pattern, in_names):
            if char == "1":
                literals.append(net_of[name])
            elif char == "0":
                literals.append(circuit.g_not(net_of[name]))
            elif char != "-":
                raise BlifError(f"bad cube character {char!r}")
        if not literals:
            cube_nets.append(circuit.const(1))
        elif len(literals) == 1:
            cube_nets.append(literals[0])
        else:
            cube_nets.append(circuit.g_and(*literals))
    if len(cube_nets) == 1:
        result = cube_nets[0]
    else:
        result = circuit.g_or(*cube_nets)
    if not on_set:
        result = circuit.g_not(result)
    _maybe_name(circuit, result, out_name)
    return result


def _maybe_name(circuit: Circuit, net: int, name: str) -> None:
    try:
        circuit.set_name(net, name)
    except CircuitError:
        pass  # net already named (e.g. shared constant); keep the first name


def parse_blif_file(path: str) -> Circuit:
    """Parse a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_blif(handle)


_COVER_FOR_OP = {
    GateOp.BUF: (["1"], "1"),
    GateOp.NOT: (["0"], "1"),
    GateOp.XOR: (["01", "10"], "1"),
    GateOp.XNOR: (["00", "11"], "1"),
    GateOp.MUX: (["11-", "0-1"], "1"),
}


def write_blif(circuit: Circuit, sink: TextIO) -> None:
    """Write a circuit as BLIF.  Every net gets a stable signal name."""
    circuit.validate()

    def signal(net: int) -> str:
        return circuit.name_of(net)

    sink.write(f".model {circuit.name}\n")
    if circuit.inputs:
        sink.write(".inputs " + " ".join(signal(n) for n in circuit.inputs) + "\n")
    if circuit.outputs:
        sink.write(".outputs " + " ".join(circuit.outputs) + "\n")
    for latch in circuit.latches:
        init = circuit.init_of(latch)
        init_token = "3" if init is None else str(init)
        sink.write(
            f".latch {signal(circuit.next_of(latch))} {signal(latch)} {init_token}\n"
        )
    for name, net in circuit.outputs.items():
        if name != signal(net):
            sink.write(f".names {signal(net)} {name}\n1 1\n")
    for net in circuit.gates():
        op = circuit.op_of(net)
        fanins = circuit.fanins_of(net)
        fanin_names = " ".join(signal(f) for f in fanins)
        sink.write(f".names {fanin_names} {signal(net)}\n")
        if op is GateOp.AND:
            sink.write("1" * len(fanins) + " 1\n")
        elif op is GateOp.NAND:
            sink.write("1" * len(fanins) + " 0\n")
        elif op is GateOp.OR:
            for i in range(len(fanins)):
                sink.write("-" * i + "1" + "-" * (len(fanins) - i - 1) + " 1\n")
        elif op is GateOp.NOR:
            sink.write("0" * len(fanins) + " 1\n")
        elif op in _COVER_FOR_OP:
            patterns, value = _COVER_FOR_OP[op]
            for pattern in patterns:
                sink.write(f"{pattern} {value}\n")
        else:
            raise BlifError(f"cannot write op {op}")
    for op_net in circuit._const_nets.values():  # noqa: SLF001 - writer needs raw table
        sink.write(f".names {signal(op_net)}\n")
        if circuit.op_of(op_net) is GateOp.CONST1:
            sink.write("1\n")
    sink.write(".end\n")


def blif_str(circuit: Circuit) -> str:
    """The BLIF text of a circuit, as a string."""
    buffer = io.StringIO()
    write_blif(circuit, buffer)
    return buffer.getvalue()
