"""Round-trip and analysis tests for the ``.racc`` access-stream
sidecar (``repro.metrics.access``)."""

from __future__ import annotations

import io

import pytest

from repro.metrics.access import (
    ACCESS_MAGIC,
    SID_ARENA,
    SID_CLAUSE,
    SID_TRAIL,
    AccessStreamWriter,
    analyze_access_stream,
    read_access_stream,
    render_access_report,
    stream_sample_every,
)


def _write_stream(events, sample_every=1):
    buf = io.BytesIO()
    writer = AccessStreamWriter(buf, sample_every=sample_every)
    writer.open()
    for sid, offset in events:
        writer.record(sid, offset)
    writer.flush()
    return buf.getvalue()


def test_round_trip_preserves_events():
    events = [
        (SID_CLAUSE, 5),
        (SID_CLAUSE, 3),       # negative delta (zigzag path)
        (SID_ARENA, 1000),
        (SID_TRAIL, 17),
        (SID_ARENA, 1001),
        (SID_CLAUSE, 1 << 30),  # large delta, multi-byte varint
        (SID_CLAUSE, 0),
    ]
    data = _write_stream(events)
    assert data[:4] == ACCESS_MAGIC
    assert list(read_access_stream(io.BytesIO(data))) == events


def test_record_block_matches_single_records():
    buf_a = io.BytesIO()
    w = AccessStreamWriter(buf_a)
    w.open()
    w.record_block(SID_ARENA, [10, 20, 15, 15])
    w.flush()
    buf_b = io.BytesIO()
    v = AccessStreamWriter(buf_b)
    v.open()
    for off in (10, 20, 15, 15):
        v.record(SID_ARENA, off)
    v.flush()
    assert buf_a.getvalue() == buf_b.getvalue()
    assert w.events == 4


def test_sample_every_header_round_trip():
    data = _write_stream([], sample_every=200)  # multi-byte varint
    assert stream_sample_every(io.BytesIO(data)) == 200


def test_file_round_trip(tmp_path):
    path = tmp_path / "capture.racc"
    writer = AccessStreamWriter(path, sample_every=16)
    writer.open()
    writer.record_block(SID_CLAUSE, [1, 2, 3])
    writer.close()
    assert stream_sample_every(path) == 16
    assert list(read_access_stream(path)) == [
        (SID_CLAUSE, 1), (SID_CLAUSE, 2), (SID_CLAUSE, 3),
    ]


def test_bad_magic_raises():
    with pytest.raises(ValueError):
        list(read_access_stream(io.BytesIO(b"NOPE" + bytes(8))))
    with pytest.raises(ValueError):
        stream_sample_every(io.BytesIO(b"NOPE" + bytes(8)))


def test_analyze_counts_and_hot_offsets():
    events = (
        [(SID_CLAUSE, 7)] * 5
        + [(SID_CLAUSE, 3)] * 2
        + [(SID_ARENA, 100), (SID_ARENA, 200)]
    )
    data = _write_stream(events)
    report = analyze_access_stream([io.BytesIO(data)], top_n=1)
    assert report["total_events"] == 9
    clause = report["structures"]["clause"]
    assert clause["events"] == 7
    assert clause["distinct_offsets"] == 2
    assert clause["min_offset"] == 3
    assert clause["max_offset"] == 7
    assert clause["top_offsets"] == [(7, 5)]
    # 7 re-touched 4 times at event gap 1 → reuse bucket log2(1)=1;
    # 3 re-touched once.
    assert sum(clause["reuse_log2_hist"].values()) == 5
    arena = report["structures"]["arena"]
    assert arena["events"] == 2
    assert arena["reuse_log2_hist"] == {}


def test_analyze_merges_multiple_captures():
    a = _write_stream([(SID_CLAUSE, 1), (SID_CLAUSE, 2)])
    b = _write_stream([(SID_CLAUSE, 2), (SID_TRAIL, 9)])
    report = analyze_access_stream([io.BytesIO(a), io.BytesIO(b)])
    assert report["total_events"] == 4
    assert report["structures"]["clause"]["events"] == 3
    assert report["structures"]["trail"]["events"] == 1


def test_render_access_report_mentions_structures():
    data = _write_stream([(SID_CLAUSE, 4), (SID_CLAUSE, 4), (SID_ARENA, 12)])
    text = render_access_report(
        analyze_access_stream([io.BytesIO(data)])
    )
    assert "access stream: 3 events" in text
    assert "[clause]" in text
    assert "[arena]" in text
    assert "hottest offsets:" in text
