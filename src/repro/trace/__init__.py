"""Trace analyzer: offline reporting over binary solver traces.

``python -m repro.trace <file.rtrc> [--json]`` decodes a trace written
by a ``TraceWriter`` observer (format: ``repro.sat.trace``) and
reports event counts, per-depth conflict/decision histograms, the
learned-length distribution, and decode throughput.  The analyzer is
read-only and formula-free: everything comes from the event stream.

The CLI also accepts a directory or several files at once: all
``.rtrc`` captures (for BMC runs, the per-depth ``{name}_d{k:03d}``
series) merge into a single aggregated report, and any ``.racc``
access-stream sidecars (``repro.metrics.access``) are rendered as a
per-structure locality report alongside the trace report.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence, Tuple, Union

from repro.metrics.access import ACCESS_SUFFIX
from repro.sat.trace import (
    EV_ASSUME,
    EV_BACKTRACK,
    EV_CONFLICT,
    EV_DECIDE,
    EV_ENQUEUE,
    EV_LEARN,
    EV_REDUCE,
    EV_RESTART,
    EVENT_NAMES,
    STATUS_NAMES,
    TRACE_SUFFIX,
    TraceEvent,
    TraceReader,
    TraceState,
)

__all__ = [
    "analyze_trace",
    "analyze_traces",
    "discover_captures",
    "merge_reports",
    "render_report",
]

#: Depth-histogram bucket width: depths d land in bucket d // 8.
DEPTH_BUCKET = 8


def _bucket_label(bucket: int) -> str:
    lo = bucket * DEPTH_BUCKET
    return f"{lo}-{lo + DEPTH_BUCKET - 1}"


def analyze_trace(path: str) -> Dict[str, object]:
    """Decode ``path`` and compute the analyzer report as a JSON-ready
    dict.  ``events_per_sec`` is this decode pass's throughput — the
    trace itself carries no timing (wall clock in the stream would
    break the cross-backend byte-identity contract)."""
    reader = TraceReader(path)
    decode_start = time.perf_counter()
    events = reader.events()
    decode_elapsed = time.perf_counter() - decode_start

    counts = [0] * len(EVENT_NAMES)
    conflict_depths: Dict[int, int] = {}
    decision_depths: Dict[int, int] = {}
    learned_lengths: Dict[int, int] = {}
    state = TraceState(reader.num_vars)
    max_depth = 0
    for event in events:
        kind = event.kind
        counts[kind] += 1
        state.apply(event)
        if kind == EV_DECIDE:
            depth = state.level
            if depth > max_depth:
                max_depth = depth
            bucket = depth // DEPTH_BUCKET
            decision_depths[bucket] = decision_depths.get(bucket, 0) + 1
        elif kind == EV_CONFLICT:
            bucket = event.arg // DEPTH_BUCKET
            conflict_depths[bucket] = conflict_depths.get(bucket, 0) + 1
        elif kind == EV_LEARN:
            length = event.arg
            learned_lengths[length] = learned_lengths.get(length, 0) + 1

    total_learned = sum(learned_lengths.values())
    total_learned_lits = sum(n * c for n, c in learned_lengths.items())
    report: Dict[str, object] = {
        "path": path,
        "version": reader.version,
        "num_vars": reader.num_vars,
        "size_bytes": reader.size_bytes,
        "total_events": len(events),
        "bytes_per_event": (
            reader.size_bytes / len(events) if events else 0.0
        ),
        "decode_seconds": decode_elapsed,
        "events_per_sec": (
            len(events) / decode_elapsed if decode_elapsed else 0.0
        ),
        "status": state.status_name,
        "event_counts": {
            EVENT_NAMES[kind]: counts[kind]
            for kind in range(len(EVENT_NAMES))
            if counts[kind]
        },
        "max_depth": max_depth,
        "final_trail_len": len(state.trail),
        "restarts": state.restarts,
        "deleted_clauses": state.deleted,
        "conflict_depth_histogram": {
            _bucket_label(b): conflict_depths[b]
            for b in sorted(conflict_depths)
        },
        "decision_depth_histogram": {
            _bucket_label(b): decision_depths[b]
            for b in sorted(decision_depths)
        },
        "learned_length_histogram": {
            str(n): learned_lengths[n] for n in sorted(learned_lengths)
        },
        "learned_clauses": total_learned,
        "mean_learned_len": (
            total_learned_lits / total_learned if total_learned else 0.0
        ),
    }
    return report


def discover_captures(
    paths: Sequence[str],
) -> Tuple[List[str], List[str]]:
    """Expand a mix of files and directories into ``(traces, sidecars)``.

    Directories contribute every ``.rtrc`` and ``.racc`` entry in sorted
    name order — the zero-padded per-depth naming (``php_d003.rtrc``)
    makes that depth order.  Explicit file arguments are routed by
    suffix; anything that is not an access sidecar is treated as a
    trace so missing files still surface the trace-file error path.
    """
    traces: List[str] = []
    sidecars: List[str] = []
    for raw in paths:
        if os.path.isdir(raw):
            for name in sorted(os.listdir(raw)):
                if name.endswith(TRACE_SUFFIX):
                    traces.append(os.path.join(raw, name))
                elif name.endswith(ACCESS_SUFFIX):
                    sidecars.append(os.path.join(raw, name))
        elif raw.endswith(ACCESS_SUFFIX):
            sidecars.append(raw)
        else:
            traces.append(raw)
    return traces, sidecars


def _merge_hist(dst: Dict[str, int], src: Dict[str, int]) -> None:
    for label, count in src.items():
        dst[label] = dst.get(label, 0) + count


def _bucket_sort_key(label: str) -> int:
    return int(label.split("-")[0])


def merge_reports(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-file reports (e.g. a BMC run's per-depth captures)
    into one report with the same key set as :func:`analyze_trace`,
    plus a ``sources`` list with each file's verdict.  A single-element
    list passes through unchanged, so the one-file CLI output is
    byte-identical to the pre-merge analyzer."""
    if len(reports) == 1:
        return reports[0]
    event_counts: Dict[str, int] = {}
    conflict_hist: Dict[str, int] = {}
    decision_hist: Dict[str, int] = {}
    learned_hist: Dict[str, int] = {}
    status_counts: Dict[str, int] = {}
    sources: List[Dict[str, object]] = []
    size_bytes = 0
    total_events = 0
    decode_seconds = 0.0
    num_vars = 0
    max_depth = 0
    final_trail = 0
    restarts = 0
    deleted = 0
    learned = 0
    learned_lits = 0.0
    for report in reports:
        size_bytes += int(report["size_bytes"])  # type: ignore[call-overload]
        total_events += int(report["total_events"])  # type: ignore[call-overload]
        decode_seconds += float(report["decode_seconds"])  # type: ignore[arg-type]
        num_vars = max(num_vars, int(report["num_vars"]))  # type: ignore[call-overload]
        max_depth = max(max_depth, int(report["max_depth"]))  # type: ignore[call-overload]
        final_trail = max(final_trail, int(report["final_trail_len"]))  # type: ignore[call-overload]
        restarts += int(report["restarts"])  # type: ignore[call-overload]
        deleted += int(report["deleted_clauses"])  # type: ignore[call-overload]
        count = int(report["learned_clauses"])  # type: ignore[call-overload]
        learned += count
        learned_lits += float(report["mean_learned_len"]) * count  # type: ignore[arg-type]
        status = str(report["status"])
        status_counts[status] = status_counts.get(status, 0) + 1
        _merge_hist(event_counts, report["event_counts"])  # type: ignore[arg-type]
        _merge_hist(conflict_hist, report["conflict_depth_histogram"])  # type: ignore[arg-type]
        _merge_hist(decision_hist, report["decision_depth_histogram"])  # type: ignore[arg-type]
        _merge_hist(learned_hist, report["learned_length_histogram"])  # type: ignore[arg-type]
        sources.append(
            {
                "path": report["path"],
                "status": status,
                "events": report["total_events"],
            }
        )
    merged: Dict[str, object] = {
        "path": f"<{len(reports)} captures>",
        "version": reports[0]["version"],
        "num_vars": num_vars,
        "size_bytes": size_bytes,
        "total_events": total_events,
        "bytes_per_event": (
            size_bytes / total_events if total_events else 0.0
        ),
        "decode_seconds": decode_seconds,
        "events_per_sec": (
            total_events / decode_seconds if decode_seconds else 0.0
        ),
        "status": ",".join(
            f"{name}x{status_counts[name]}" for name in sorted(status_counts)
        ),
        "event_counts": {
            name: event_counts[name] for name in sorted(event_counts)
        },
        "max_depth": max_depth,
        "final_trail_len": final_trail,
        "restarts": restarts,
        "deleted_clauses": deleted,
        "conflict_depth_histogram": {
            label: conflict_hist[label]
            for label in sorted(conflict_hist, key=_bucket_sort_key)
        },
        "decision_depth_histogram": {
            label: decision_hist[label]
            for label in sorted(decision_hist, key=_bucket_sort_key)
        },
        "learned_length_histogram": {
            label: learned_hist[label]
            for label in sorted(learned_hist, key=int)
        },
        "learned_clauses": learned,
        "mean_learned_len": (learned_lits / learned if learned else 0.0),
        "sources": sources,
    }
    return merged


def analyze_traces(paths: Sequence[str]) -> Dict[str, object]:
    """Analyze every trace in ``paths`` and merge into one report."""
    return merge_reports([analyze_trace(path) for path in paths])


def _render_histogram(lines: List[str], title: str, hist: Dict[str, int]) -> None:
    if not hist:
        return
    lines.append(f"{title}:")
    peak = max(hist.values())
    for label, count in hist.items():
        bar = "#" * max(1, round(40 * count / peak))
        lines.append(f"  {label:>9s} {count:8d} {bar}")


def render_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`analyze_trace`'s dict."""
    lines = [
        f"trace {report['path']}  (format v{report['version']}, "
        f"{report['size_bytes']} bytes)",
        f"  num_vars      {report['num_vars']}",
        f"  status        {report['status']}",
        f"  events        {report['total_events']} "
        f"({report['bytes_per_event']:.2f} bytes/event)",
        f"  decode rate   {report['events_per_sec']:,.0f} events/s",
        f"  max depth     {report['max_depth']}",
        f"  final trail   {report['final_trail_len']} literals",
        f"  learned       {report['learned_clauses']} clauses "
        f"(mean len {report['mean_learned_len']:.2f}), "
        f"{report['deleted_clauses']} deleted, "
        f"{report['restarts']} restarts",
    ]
    sources = report.get("sources")
    if sources:
        lines.append("sources:")
        for src in sources:
            lines.append(
                f"  {src['path']}  {src['status']} "
                f"({src['events']} events)"
            )
    counts = report["event_counts"]
    lines.append("event counts:")
    for name, count in counts.items():
        lines.append(f"  {name:>9s} {count:8d}")
    _render_histogram(
        lines, "decisions by depth", report["decision_depth_histogram"]
    )
    _render_histogram(
        lines, "conflicts by depth", report["conflict_depth_histogram"]
    )
    _render_histogram(
        lines, "learned-clause lengths", report["learned_length_histogram"]
    )
    return "\n".join(lines)
