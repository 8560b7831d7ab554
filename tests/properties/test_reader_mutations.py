"""Seeded byte-mutation robustness of the three text readers.

Each reader — ``parse_dimacs``, ``parse_aiger``, ``parse_blif`` — is fed
a bounded number of mutants of a small valid document: one to four
byte substitutions, insertions or deletions, drawn mostly from the
format's own alphabet (digits, signs, separators, keywords' letters)
so the mutants reach past the header into the body grammar.  Every
mutant must either parse or raise that module's typed error
(``DimacsError``, ``AigerError``, ``BlifError``); a bare
``ValueError`` from ``int()`` or a netlist ``CircuitError`` escaping a
reader is a failure.  The seed is fixed, so a failure reproduces.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit import aiger_str, blif_str, parse_aiger, parse_blif
from repro.circuit.aiger import AigerError
from repro.circuit.blif import BlifError
from repro.cnf.dimacs import DimacsError, parse_dimacs
from tests.circuit.test_blif import COUNTER_BLIF

MUTANTS = 4000
SEED = 20040607

#: Bytes a mutation draws from four times in five; the rest are
#: arbitrary bytes.
ALPHABET = b"0123456789 -\n\t.#\\cpxaln"

DIMACS = "c three clauses\np cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n"

READERS = {
    "dimacs": (parse_dimacs, DimacsError, DIMACS),
    "aiger": (parse_aiger, AigerError, aiger_str(parse_blif(COUNTER_BLIF))),
    "blif": (parse_blif, BlifError, blif_str(parse_blif(COUNTER_BLIF))),
}


def mutate(rng: random.Random, document: bytes) -> str:
    data = bytearray(document)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(data) + 1)
        byte = rng.choice(ALPHABET) if rng.random() < 0.8 else rng.randrange(256)
        if op == 0 and pos < len(data):
            data[pos] = byte
        elif op == 1:
            data.insert(pos, byte)
        elif pos < len(data):
            del data[pos]
    return data.decode("latin-1")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_mutant_parses_or_raises_the_typed_error(reader):
    parse, error, document = READERS[reader]
    parse(document)  # the unmutated document is valid
    rng = random.Random(f"{SEED}:{reader}")
    encoded = document.encode()
    leaks = []
    for index in range(MUTANTS):
        text = mutate(rng, encoded)
        try:
            parse(text)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - the leak under test
            leaks.append((index, type(exc).__name__, str(exc), text))
    assert not leaks, (
        f"{len(leaks)} of {MUTANTS} mutants escaped {error.__name__}; "
        f"first: {leaks[0]!r}"
    )


@pytest.mark.parametrize(
    "text",
    [
        "aag 3 1 1 1 1\n2\nx 6\n6\n6 2 4\n",  # latch line
        "aag 3 1 1 1 1\n2x\n4 6\n6\n6 2 4\n",  # input line
        "aag 3 1 1 1 1\n2\n4 6\n6y\n6 2 4\n",  # output line
        "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 z\n",  # AND line
    ],
)
def test_aiger_non_integer_fields_are_typed(text):
    with pytest.raises(AigerError, match="bad literal"):
        parse_aiger(text)


def test_aiger_redefined_variable_is_typed():
    # The second AND redefines the latch's variable.
    with pytest.raises(AigerError, match="defined twice"):
        parse_aiger("aag 3 1 1 1 2\n2\n4 6\n6\n6 2 4\n4 2 2\n")


def test_blif_duplicate_input_is_typed():
    with pytest.raises(BlifError, match="declared twice"):
        parse_blif(".model m\n.inputs a a\n.outputs a\n.end\n")
