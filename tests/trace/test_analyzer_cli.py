"""Tests for the trace analyzer CLI (``python -m repro.trace``, PR 8)."""

from __future__ import annotations

import json

import pytest

from repro.sat import CdclSolver, SolverConfig, TraceWriter, VsidsStrategy
from repro.trace import analyze_trace, render_report
from repro.trace.__main__ import main
from repro.workloads.cnf_families import pigeonhole


@pytest.fixture
def php_trace(tmp_path):
    """A freshly captured pigeonhole trace (UNSAT, plenty of events)."""
    path = tmp_path / "php5.rtrc"
    formula = pigeonhole(5)
    config = SolverConfig(observer=TraceWriter(str(path)))
    outcome = CdclSolver(formula, strategy=VsidsStrategy(), config=config).solve()
    return path, formula, outcome


def test_analyze_trace_report_contents(php_trace):
    path, formula, outcome = php_trace
    report = analyze_trace(str(path))
    assert report["version"] == 1
    assert report["num_vars"] == formula.num_vars
    assert report["status"] == "UNSAT"
    assert report["size_bytes"] == path.stat().st_size
    assert report["event_counts"]["DECIDE"] == outcome.stats.decisions
    assert report["event_counts"]["CONFLICT"] == outcome.stats.conflicts
    assert report["learned_clauses"] == outcome.stats.learned_clauses
    assert 0 <= report["final_trail_len"] <= formula.num_vars
    assert report["total_events"] > 0
    assert 0 < report["bytes_per_event"] < 8


def test_cli_text_report(php_trace, capsys):
    path, _, _ = php_trace
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "DECIDE" in out
    assert "UNSAT" in out
    assert "decisions by depth" in out
    assert "conflicts by depth" in out
    assert "learned-clause lengths" in out


def test_cli_json_report(php_trace, capsys):
    path, formula, outcome = php_trace
    assert main([str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_vars"] == formula.num_vars
    assert report["status"] == "UNSAT"
    assert report["event_counts"]["DECIDE"] == outcome.stats.decisions
    assert report["total_events"] == sum(report["event_counts"].values())
    assert report["bytes_per_event"] > 0


def test_cli_missing_file(capsys, tmp_path):
    assert main([str(tmp_path / "nope.rtrc")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_cli_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.rtrc"
    bad.write_bytes(b"this is not a trace")
    assert main([str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_render_report_is_stable(php_trace):
    path, _, _ = php_trace
    report = analyze_trace(str(path))
    text = render_report(report)
    # Histogram bars render and the render is deterministic given the
    # same report dict.
    assert "#" in text
    assert text == render_report(report)
