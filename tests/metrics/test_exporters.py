"""Exporter goldens: the exact JSON and Prometheus text for a small
deterministic registry.  Pinning the full text keeps the exposition
format stable for anything that scrapes or diffs it."""

from __future__ import annotations

import json

from repro.metrics import MetricsRegistry, render_json, render_prometheus


def _make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("solver_conflicts_total", help="conflicts seen").inc(42)
    reg.gauge("bmc_depth", help="current unrolling depth").set(7)
    reg.counter(
        "solver_access_total", help="structure accesses",
        labels={"structure": "arena"},
    ).inc(100)
    reg.counter(
        "solver_access_total", labels={"structure": "watch"},
    ).inc(50)
    h = reg.histogram("learned_len", help="learned clause lengths",
                      buckets=(1, 2, 4))
    for v in (1, 3, 3, 9):
        h.observe(v)
    return reg


PROMETHEUS_GOLDEN = """\
# HELP bmc_depth current unrolling depth
# TYPE bmc_depth gauge
bmc_depth 7
# HELP learned_len learned clause lengths
# TYPE learned_len histogram
learned_len_bucket{le="1"} 1
learned_len_bucket{le="2"} 1
learned_len_bucket{le="4"} 3
learned_len_bucket{le="+Inf"} 4
learned_len_sum 16
learned_len_count 4
# HELP solver_access_total structure accesses
# TYPE solver_access_total counter
solver_access_total{structure="arena"} 100
solver_access_total{structure="watch"} 50
# HELP solver_conflicts_total conflicts seen
# TYPE solver_conflicts_total counter
solver_conflicts_total 42
"""


def test_prometheus_golden():
    assert render_prometheus(_make_registry()) == PROMETHEUS_GOLDEN


def test_prometheus_is_deterministic():
    assert render_prometheus(_make_registry()) == render_prometheus(
        _make_registry()
    )


def test_json_golden():
    doc = json.loads(render_json(_make_registry()))
    assert doc == {
        "bmc_depth": {
            "type": "gauge",
            "help": "current unrolling depth",
            "samples": [{"labels": {}, "value": 7}],
        },
        "learned_len": {
            "type": "histogram",
            "help": "learned clause lengths",
            "samples": [
                {
                    "labels": {},
                    "buckets": [[1, 1], [2, 1], [4, 3], ["+Inf", 4]],
                    "sum": 16,
                    "count": 4,
                }
            ],
        },
        "solver_access_total": {
            "type": "counter",
            "help": "structure accesses",
            "samples": [
                {"labels": {"structure": "arena"}, "value": 100},
                {"labels": {"structure": "watch"}, "value": 50},
            ],
        },
        "solver_conflicts_total": {
            "type": "counter",
            "help": "conflicts seen",
            "samples": [{"labels": {}, "value": 42}],
        },
    }


def test_json_indent_round_trips():
    reg = _make_registry()
    assert json.loads(render_json(reg, indent=2)) == json.loads(
        render_json(reg)
    )


#: The collector series one two-depth BMC run publishes at its depth
#: boundaries, from scripted ``gc.get_stats()`` counts: run start, then
#: one read per depth.  Deltas only — generation 2 ran once and freed
#: nothing.
GC_COUNTS = [
    [(100, 4000), (9, 50), (1, 0)],
    [(130, 4000), (11, 58), (1, 0)],
    [(131, 4002), (11, 58), (2, 0)],
]

GC_PROMETHEUS_GOLDEN = """\
# HELP python_gc_collected_total Objects the cyclic garbage collector freed, per generation.
# TYPE python_gc_collected_total counter
python_gc_collected_total{generation="0",row="toy"} 2
python_gc_collected_total{generation="1",row="toy"} 8
python_gc_collected_total{generation="2",row="toy"} 0
# HELP python_gc_collections_total Cyclic garbage collector runs, per generation.
# TYPE python_gc_collections_total counter
python_gc_collections_total{generation="0",row="toy"} 31
python_gc_collections_total{generation="1",row="toy"} 2
python_gc_collections_total{generation="2",row="toy"} 1
"""


def _gc_series(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if "python_gc_" in line
    )


def test_depth_boundary_collector_golden(monkeypatch):
    from repro.bmc import engine as engine_module
    from repro.bmc.engine import BmcEngine
    from repro.circuit import Circuit
    from repro.sat import SolverConfig

    circuit = Circuit("toggle")
    en = circuit.add_input("en")
    q = circuit.add_latch("q", init=0)
    circuit.set_next(q, circuit.g_xor(q, en))
    prop = circuit.g_not(circuit.g_and(q, en), name="prop")

    scripted = iter(GC_COUNTS)
    monkeypatch.setattr(engine_module, "_gc_counts", lambda: next(scripted))
    reg = MetricsRegistry()
    config = SolverConfig(metrics=reg, metrics_labels={"row": "toy"})
    result = BmcEngine(circuit, prop, max_depth=1, solver_config=config).run()
    assert [d.status for d in result.per_depth] == ["unsat", "sat"]
    assert next(scripted, None) is None  # one read per boundary, no more
    assert _gc_series(render_prometheus(reg)) == GC_PROMETHEUS_GOLDEN
    doc = json.loads(render_json(reg))
    assert doc["python_gc_collections_total"]["samples"] == [
        {"labels": {"generation": "0", "row": "toy"}, "value": 31},
        {"labels": {"generation": "1", "row": "toy"}, "value": 2},
        {"labels": {"generation": "2", "row": "toy"}, "value": 1},
    ]
