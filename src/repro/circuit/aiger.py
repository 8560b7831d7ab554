"""ASCII AIGER (``aag``) reader/writer.

Reading maps AND-inverter graphs onto the netlist (AND gates + memoized
NOT gates).  Writing performs on-the-fly AIG decomposition: OR/XOR/MUX and
friends are expanded into ANDs with inverted literals, using AIGER's
literal arithmetic (``2*var``, LSB = inversion).
"""

from __future__ import annotations

import io
from typing import Dict, List, TextIO, Tuple, Union

from repro.circuit.netlist import Circuit, GateOp


class AigerError(ValueError):
    """Raised on malformed AIGER input."""


def _literals(line: str, count: int) -> List[int]:
    """The first ``count`` integer fields of a body line (fewer when the
    line is shorter); a non-integer field is an :class:`AigerError`."""
    try:
        return [int(field) for field in line.split()[:count]]
    except ValueError as exc:
        raise AigerError(f"bad literal in line {line!r}") from exc


def parse_aiger(source: Union[str, TextIO]) -> Circuit:
    """Parse an ASCII AIGER (``aag``) description into a :class:`Circuit`."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    lines = [line.strip() for line in stream]
    if not lines or not lines[0].startswith("aag"):
        raise AigerError("expected 'aag' header")
    header = lines[0].split()
    if len(header) < 6:
        raise AigerError(f"bad header {lines[0]!r}")
    try:
        max_var, num_inputs, num_latches, num_outputs, num_ands = map(int, header[1:6])
    except ValueError as exc:
        raise AigerError(f"bad header {lines[0]!r}") from exc

    body = [line for line in lines[1:] if line and not line.startswith("c")]
    expected = num_inputs + num_latches + num_outputs + num_ands
    if len(body) < expected:
        raise AigerError(
            f"expected {expected} body lines, found {len(body)}"
        )

    circuit = Circuit("aiger")
    net_of_var: Dict[int, int] = {}
    not_cache: Dict[int, int] = {}

    def define(literal: int, net: int) -> None:
        var = literal >> 1
        if var in net_of_var:
            raise AigerError(f"variable {var} is defined twice")
        net_of_var[var] = net

    def net_of_literal(literal: int) -> int:
        if literal < 0 or literal > 2 * max_var + 1:
            raise AigerError(f"literal {literal} out of range")
        if literal == 0:
            return circuit.const(0)
        if literal == 1:
            return circuit.const(1)
        var = literal >> 1
        if var not in net_of_var:
            raise AigerError(f"literal {literal} references undefined variable {var}")
        net = net_of_var[var]
        if literal & 1:
            if literal not in not_cache:
                not_cache[literal] = circuit.g_not(net)
            return not_cache[literal]
        return net

    cursor = 0
    input_literals = []
    for i in range(num_inputs):
        (literal,) = _literals(body[cursor], 1)
        cursor += 1
        if literal & 1 or literal <= 0:
            raise AigerError(f"input literal {literal} must be positive and even")
        define(literal, circuit.add_input(f"i{i}"))
        input_literals.append(literal)

    latch_rows: List[Tuple[int, int, int]] = []
    for i in range(num_latches):
        fields = _literals(body[cursor], 3)
        cursor += 1
        if len(fields) < 2:
            raise AigerError(f"bad latch line {body[cursor - 1]!r}")
        literal, next_literal = fields[0], fields[1]
        init = fields[2] if len(fields) > 2 else 0
        if literal & 1 or literal <= 0:
            raise AigerError(f"latch literal {literal} must be positive and even")
        init_value = None if init == literal else init
        if init_value not in (0, 1, None):
            raise AigerError(f"bad latch init {init}")
        define(literal, circuit.add_latch(f"l{i}", init=init_value))
        latch_rows.append((literal, next_literal, i))

    output_literals = []
    for _ in range(num_outputs):
        output_literals.extend(_literals(body[cursor], 1))
        cursor += 1

    and_rows: List[Tuple[int, int, int]] = []
    for _ in range(num_ands):
        fields = _literals(body[cursor], 4)
        cursor += 1
        if len(fields) != 3:
            raise AigerError(f"bad and line {body[cursor - 1]!r}")
        lhs, rhs0, rhs1 = fields
        if lhs & 1 or lhs <= 0:
            raise AigerError(f"and output literal {lhs} must be positive and even")
        and_rows.append((lhs, rhs0, rhs1))

    # AND definitions may be in any order in valid files they are
    # topologically sorted, but tolerate forward refs with a worklist.
    pending = list(and_rows)
    while pending:
        remaining = []
        progress = False
        for lhs, rhs0, rhs1 in pending:
            defined0 = rhs0 < 2 or (rhs0 >> 1) in net_of_var
            defined1 = rhs1 < 2 or (rhs1 >> 1) in net_of_var
            if defined0 and defined1:
                define(lhs, circuit.g_and(
                    net_of_literal(rhs0), net_of_literal(rhs1)
                ))
                progress = True
            else:
                remaining.append((lhs, rhs0, rhs1))
        if not progress:
            raise AigerError("cyclic or dangling AND definitions")
        pending = remaining

    for literal, next_literal, _ in latch_rows:
        circuit.set_next(net_of_var[literal >> 1], net_of_literal(next_literal))
    for i, literal in enumerate(output_literals):
        circuit.set_output(f"o{i}", net_of_literal(literal))
    circuit.validate()
    return circuit


def parse_aiger_file(path: str) -> Circuit:
    """Parse an ASCII AIGER file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_aiger(handle)


def write_aiger(circuit: Circuit, sink: TextIO) -> None:
    """Write a circuit as ASCII AIGER, decomposing non-AND gates."""
    circuit.validate()
    next_var = 1
    literal_of: Dict[int, int] = {}
    and_lines: List[Tuple[int, int, int]] = []

    def fresh_and(rhs0: int, rhs1: int) -> int:
        nonlocal next_var
        lhs = 2 * next_var
        next_var += 1
        and_lines.append((lhs, rhs0, rhs1))
        return lhs

    def and_chain(literals: List[int]) -> int:
        if not literals:
            return 1
        acc = literals[0]
        for literal in literals[1:]:
            acc = fresh_and(acc, literal)
        return acc

    input_literal: Dict[int, int] = {}
    for net in circuit.inputs:
        literal_of[net] = input_literal[net] = 2 * next_var
        next_var += 1
    latch_literal: Dict[int, int] = {}
    for net in circuit.latches:
        literal_of[net] = latch_literal[net] = 2 * next_var
        next_var += 1

    for net in circuit.topological_order():
        if net in literal_of:
            continue
        op = circuit.op_of(net)
        fanin_literals = [literal_of[f] for f in circuit.fanins_of(net)]
        if op is GateOp.CONST0:
            literal_of[net] = 0
        elif op is GateOp.CONST1:
            literal_of[net] = 1
        elif op is GateOp.BUF:
            literal_of[net] = fanin_literals[0]
        elif op is GateOp.NOT:
            literal_of[net] = fanin_literals[0] ^ 1
        elif op is GateOp.AND:
            literal_of[net] = and_chain(fanin_literals)
        elif op is GateOp.NAND:
            literal_of[net] = and_chain(fanin_literals) ^ 1
        elif op is GateOp.OR:
            literal_of[net] = and_chain([l ^ 1 for l in fanin_literals]) ^ 1
        elif op is GateOp.NOR:
            literal_of[net] = and_chain([l ^ 1 for l in fanin_literals])
        elif op in (GateOp.XOR, GateOp.XNOR):
            a, b = fanin_literals
            both = fresh_and(a, b)
            neither = fresh_and(a ^ 1, b ^ 1)
            xnor = fresh_and(both ^ 1, neither ^ 1) ^ 1
            literal_of[net] = xnor if op is GateOp.XNOR else xnor ^ 1
        elif op is GateOp.MUX:
            sel, a, b = fanin_literals
            take_a = fresh_and(sel, a)
            take_b = fresh_and(sel ^ 1, b)
            literal_of[net] = fresh_and(take_a ^ 1, take_b ^ 1) ^ 1
        else:
            raise AigerError(f"cannot write op {op}")

    outputs = list(circuit.outputs.items())
    sink.write(
        f"aag {next_var - 1} {len(circuit.inputs)} {len(circuit.latches)} "
        f"{len(outputs)} {len(and_lines)}\n"
    )
    for net in circuit.inputs:
        sink.write(f"{input_literal[net]}\n")
    for net in circuit.latches:
        init = circuit.init_of(net)
        init_token = latch_literal[net] if init is None else init
        sink.write(
            f"{latch_literal[net]} {literal_of[circuit.next_of(net)]} {init_token}\n"
        )
    for _, net in outputs:
        sink.write(f"{literal_of[net]}\n")
    for lhs, rhs0, rhs1 in and_lines:
        sink.write(f"{lhs} {rhs0} {rhs1}\n")


def aiger_str(circuit: Circuit) -> str:
    """The ASCII AIGER text of a circuit, as a string."""
    buffer = io.StringIO()
    write_aiger(circuit, buffer)
    return buffer.getvalue()
