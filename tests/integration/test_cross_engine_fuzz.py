"""Cross-engine fuzzing on random circuits: every engine family must
agree with exhaustive simulation and with each other on arbitrary small
sequential circuits (not just the curated workloads).

The single-property engines (one-shot, refined, Shtrichman, incremental,
per-depth portfolio) and a one-property multi-property run must report
the oracle's first violation depth with a counterexample that
re-simulates, or pass the bound when there is none.  k-induction must
refute at the oracle's depth, and never refute when the oracle finds no
violation (it may then prove the property or give up).

Seeds 0-11 all violate at depth 0 or 1.  The deeper seeds reach the
other exits of the depth loop: a first violation at depth 2 (found
after two UNSAT depths), and no violation within ``MAX_DEPTH`` at all —
every engine's bounded pass, and a k-induction proof.  With two latches
no seed of this generator first violates at depth 3 (none in the first
4000).
"""

import itertools
import random

import pytest

from repro.bmc import (
    BmcEngine,
    BmcStatus,
    IncrementalBmcEngine,
    InductionStatus,
    KInductionEngine,
    MultiPropertyBmc,
    PortfolioBmcEngine,
    RefineOrderBmc,
    ShtrichmanBmc,
)
from repro.circuit import Circuit


def random_circuit(rng, num_inputs=2, num_latches=2, num_gates=8):
    circuit = Circuit("fuzz")
    inputs = [circuit.add_input(f"i{j}") for j in range(num_inputs)]
    latches = [
        circuit.add_latch(f"l{j}", init=rng.randint(0, 1))
        for j in range(num_latches)
    ]
    pool = inputs + latches
    for _ in range(num_gates):
        op = rng.choice(["g_and", "g_or", "g_xor", "g_not", "g_mux"])
        if op == "g_not":
            pool.append(circuit.g_not(rng.choice(pool)))
        elif op == "g_mux":
            pool.append(
                circuit.g_mux(rng.choice(pool), rng.choice(pool), rng.choice(pool))
            )
        else:
            pool.append(getattr(circuit, op)(rng.choice(pool), rng.choice(pool)))
    for latch in latches:
        circuit.set_next(latch, rng.choice(pool))
    prop = rng.choice(pool)
    return circuit, inputs, prop


def exhaustive_first_violation(circuit, inputs, prop, max_depth):
    """Oracle: earliest depth with a violating input sequence, or None."""
    for depth in range(max_depth + 1):
        for sequence in itertools.product(
            range(1 << len(inputs)), repeat=depth + 1
        ):
            vectors = [
                {net: (word >> index) & 1 for index, net in enumerate(inputs)}
                for word in sequence
            ]
            frames = circuit.simulate(vectors)
            if frames[depth][prop] == 0:
                return depth
    return None


MAX_DEPTH = 3

#: The oracle's answer on the deeper seeds (see the module docstring),
#: pinned so the coverage cannot drift away with the generator.
DEEP_SEEDS = {
    12: 2, 441: 2, 469: 2, 477: 2,
    26: None, 32: None, 37: None, 44: None,
}


@pytest.mark.parametrize("seed", list(range(12)) + list(DEEP_SEEDS))
def test_all_engines_match_exhaustive_oracle(seed):
    rng = random.Random(1000 + seed)
    circuit, inputs, prop = random_circuit(rng)
    oracle = exhaustive_first_violation(circuit, inputs, prop, MAX_DEPTH)
    if seed in DEEP_SEEDS:
        assert oracle == DEEP_SEEDS[seed], seed

    engines = [
        ("plain", lambda c, p: BmcEngine(c, p, max_depth=MAX_DEPTH)),
        ("static", lambda c, p: RefineOrderBmc(c, p, MAX_DEPTH, mode="static")),
        ("dynamic", lambda c, p: RefineOrderBmc(c, p, MAX_DEPTH, mode="dynamic")),
        ("shtrichman", lambda c, p: ShtrichmanBmc(c, p, MAX_DEPTH)),
        ("incr-vsids", lambda c, p: IncrementalBmcEngine(c, p, MAX_DEPTH, mode="vsids")),
        ("incr-static", lambda c, p: IncrementalBmcEngine(c, p, MAX_DEPTH, mode="static")),
        ("incr", lambda c, p: IncrementalBmcEngine(c, p, MAX_DEPTH, mode="dynamic")),
        ("portfolio", lambda c, p: PortfolioBmcEngine(
            c, p, MAX_DEPTH, deterministic=True, race_min_clauses=0)),
    ]
    for label, make in engines:
        result = make(circuit, prop).run()
        _check_verdict(
            circuit, prop, oracle, (label, seed),
            result.status, result.depth_reached, result.trace,
        )

    multi = MultiPropertyBmc(circuit, [prop], MAX_DEPTH).run()[prop]
    _check_verdict(
        circuit, prop, oracle, ("multi", seed),
        multi.status, multi.depth_reached, multi.trace,
    )

    induction = KInductionEngine(circuit, prop, max_k=MAX_DEPTH).run()
    if oracle is None:
        assert induction.status is not InductionStatus.FAILED, seed
        if seed in DEEP_SEEDS:
            # k-induction proves these four within MAX_DEPTH.
            assert induction.status is InductionStatus.PROVED, seed
    else:
        assert induction.status is InductionStatus.FAILED, seed
        assert induction.k == induction.trace.depth == oracle, seed
        _check_trace(circuit, prop, oracle, induction.trace, ("induction", seed))


def _check_verdict(circuit, prop, oracle, label, status, depth_reached, trace):
    if oracle is None:
        assert status is BmcStatus.PASSED_BOUNDED, label
    else:
        assert status is BmcStatus.FAILED, label
        # Engines check exact-length instances from depth 0 upward,
        # so they must find the *earliest* violating depth.
        assert depth_reached == oracle, label
        _check_trace(circuit, prop, oracle, trace, label)


def _check_trace(circuit, prop, oracle, trace, label):
    frames = circuit.simulate(trace.inputs, initial_state=trace.initial_state)
    assert frames[oracle][prop] == 0, label
