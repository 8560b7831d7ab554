"""Seeded byte-mutation robustness of the three text readers and the
two binary decoders.

Each reader — ``parse_dimacs``, ``parse_aiger``, ``parse_blif`` — is fed
a bounded number of mutants of a small valid document: one to four
byte substitutions, insertions or deletions, drawn mostly from the
format's own alphabet (digits, signs, separators, keywords' letters)
so the mutants reach past the header into the body grammar.  Every
mutant must either parse or raise that module's typed error
(``DimacsError``, ``AigerError``, ``BlifError``); a bare
``ValueError`` from ``int()`` or a netlist ``CircuitError`` escaping a
reader is a failure.  The binary decoders — ``decode_trace`` (``.rtrc``)
and the ``.racc`` access-stream reader — get the same treatment with
bytes drawn mostly from varint-significant values, plus every prefix of
a valid capture, and must raise ``TraceError`` / ``AccessStreamError``
(never a bare ``IndexError``).  The seed is fixed, so a failure
reproduces.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.circuit.aiger import AigerError, aiger_str, parse_aiger
from repro.circuit.blif import BlifError, blif_str, parse_blif
from repro.cnf.dimacs import DimacsError, parse_dimacs
from repro.metrics.access import (
    SID_ARENA,
    SID_CLAUSE,
    SID_TRAIL,
    AccessStreamError,
    AccessStreamWriter,
    read_access_stream,
    stream_sample_every,
)
from repro.sat import CdclSolver, SolverConfig
from repro.sat.trace import TraceError, TraceRecorder, decode_trace, encode_events
from repro.workloads.cnf_families import pigeonhole
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


#: The binary decoders' alphabet: varint terminators, continuations
#: and small tags.
VARINT_BYTES = bytes((0x00, 0x01, 0x02, 0x07, 0x7F, 0x80, 0x81, 0xFF))


def mutate_bytes(
    rng: random.Random, document: bytes, alphabet: bytes = ALPHABET
) -> bytes:
    data = bytearray(document)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(data) + 1)
        byte = rng.choice(alphabet) if rng.random() < 0.8 else rng.randrange(256)
        if op == 0 and pos < len(data):
            data[pos] = byte
        elif op == 1:
            data.insert(pos, byte)
        elif pos < len(data):
            del data[pos]
    return bytes(data)


def mutate(rng: random.Random, document: bytes) -> str:
    return mutate_bytes(rng, document).decode("latin-1")


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


def _rtrc_document() -> bytes:
    events = []
    formula = pigeonhole(3)
    CdclSolver(formula, config=SolverConfig(observer=TraceRecorder(events))).solve()
    return encode_events(events, formula.num_vars)


def _racc_document() -> bytes:
    sink = io.BytesIO()
    writer = AccessStreamWriter(sink, sample_every=300)
    writer.open()
    for sid, offset in [(SID_CLAUSE, 5), (SID_CLAUSE, 3), (SID_ARENA, 1000),
                        (SID_TRAIL, 17), (SID_CLAUSE, 1 << 30), (SID_ARENA, 2)]:
        writer.record(sid, offset)
    writer.flush()
    return sink.getvalue()


def _read_racc(data: bytes) -> None:
    stream_sample_every(io.BytesIO(data))
    list(read_access_stream(io.BytesIO(data)))


DECODERS = {
    "rtrc": (decode_trace, TraceError, _rtrc_document),
    "racc": (_read_racc, AccessStreamError, _racc_document),
}


def _leaks(decode, error, inputs):
    leaks = []
    for index, data in enumerate(inputs):
        try:
            decode(data)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - the leak under test
            leaks.append((index, type(exc).__name__, str(exc), data))
    return leaks


@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_every_binary_mutant_decodes_or_raises_the_typed_error(decoder):
    decode, error, build = DECODERS[decoder]
    document = build()
    decode(document)  # the unmutated capture is valid
    rng = random.Random(f"{SEED}:{decoder}")
    mutants = [mutate_bytes(rng, document, VARINT_BYTES) for _ in range(MUTANTS)]
    leaks = _leaks(decode, error, mutants)
    assert not leaks, (
        f"{len(leaks)} of {MUTANTS} mutants escaped {error.__name__}; "
        f"first: {leaks[0]!r}"
    )


@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_every_truncation_decodes_or_raises_the_typed_error(decoder):
    decode, error, build = DECODERS[decoder]
    document = build()
    leaks = _leaks(decode, error, [document[:n] for n in range(len(document))])
    assert not leaks, f"a prefix escaped {error.__name__}: {leaks[0]!r}"


@pytest.mark.parametrize(
    "data",
    [b"", b"RAC", b"RACC", b"RACC\x01", b"RACC\x01\x85", b"RACC\x02\x01",
     b"NOPE\x01\x01"],
)
def test_racc_bad_or_truncated_header_is_typed(data):
    with pytest.raises(AccessStreamError):
        list(read_access_stream(io.BytesIO(data)))
    with pytest.raises(AccessStreamError):
        stream_sample_every(io.BytesIO(data))


def test_racc_truncated_event_is_typed():
    data = b"RACC\x01\x01\x85"  # the last event's varint never ends
    assert stream_sample_every(io.BytesIO(data)) == 1
    with pytest.raises(AccessStreamError, match="truncated"):
        list(read_access_stream(io.BytesIO(data)))
