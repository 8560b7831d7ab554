"""The ``solver_bench.py --smoke`` gate: the exact work-counter check
fails on any counter drift, and the rate check keeps its threshold.

The measurements are stubbed with canned samples, so these tests price
the gate's logic, not the host.
"""

import json

import pytest

from benchmarks import solver_bench

BASELINE = {
    solver_bench.SMOKE_CALIBRATION: {"propagations_per_sec": 1000.0},
    "random_3cnf": {
        "propagations_per_sec": 500.0,
        "decisions": 1646,
        "conflicts": 1009,
        "propagations": 49634,
        "learned_clauses": 1009,
    },
    "kernel_bcp": {
        "propagations_per_sec": 800.0,
        "decisions": 0,
        "propagations": 60001,
    },
}


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """Run the gate against ``BASELINE`` with fresh samples derived from
    it by ``edit(name, sample)``; returns the exit code."""
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"after": BASELINE}))
    monkeypatch.setattr(
        solver_bench,
        "SMOKE_WORKLOADS",
        (("random_3cnf", "propagations_per_sec"),
         ("kernel_bcp", "propagations_per_sec")),
    )
    monkeypatch.setattr(
        solver_bench, "measure_workload", lambda name, repeat: dict(BASELINE[name])
    )

    def run(edit=lambda name, sample: None, threshold=0.20):
        def measure(name, repeat):
            sample = dict(BASELINE[name])
            edit(name, sample)
            return sample

        monkeypatch.setattr(solver_bench, "measure", measure)
        return solver_bench.run_smoke(str(path), threshold, 1)

    return run


def test_unchanged_counters_and_rates_pass(smoke, capsys):
    assert smoke() == 0
    assert "smoke passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "counter", ["decisions", "conflicts", "propagations", "learned_clauses"]
)
def test_a_changed_counter_fails_the_gate(smoke, capsys, counter):
    def edit(name, sample):
        if name == "random_3cnf":
            sample[counter] += 1

    assert smoke(edit) == 1
    out = capsys.readouterr().out
    assert f"random_3cnf.{counter}" in out
    assert "work counters differ" in out


def test_counter_missing_from_the_sample_fails_the_gate(smoke):
    def edit(name, sample):
        if name == "kernel_bcp":
            del sample["decisions"]

    assert smoke(edit) == 1


def test_counters_the_baseline_does_not_record_are_not_compared(smoke):
    def edit(name, sample):
        if name == "kernel_bcp":
            sample["conflicts"] = 7  # not in the kernel_bcp baseline row

    assert smoke(edit) == 0


def test_rate_gate_keeps_its_threshold(smoke):
    def slower(factor):
        def edit(name, sample):
            if name == "random_3cnf":
                sample["propagations_per_sec"] *= factor
        return edit

    assert smoke(slower(0.85)) == 0
    assert smoke(slower(0.75)) == 1
