"""Self-time aggregation on synthetic span trees."""

from __future__ import annotations

import json

import pytest

from perfbench.spans import (
    NullRecorder,
    Span,
    SpanRecorder,
    breakdown,
    format_breakdown,
    self_times,
)


def tree(*rows):
    """Spans from ``(name, start, end, parent_index)`` rows."""
    return [Span(i, name, start, end, parent) for i, (name, start, end, parent) in enumerate(rows)]


def test_nested_spans_close_to_the_root():
    spans = tree(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    )
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    root_s, unattributed_s, rows = breakdown(spans)
    assert (root_s, unattributed_s) == (10.0, 3.0)
    assert sum(row.self_s for row in rows) + unattributed_s == root_s
    by_name = {row.name: row for row in rows}
    assert by_name["a"].total_s == 3.0 and by_name["a"].self_s == 2.0
    assert by_name["b"].pct_root == pytest.approx(40.0)


def test_overlapping_children_are_counted_once():
    spans = tree(
        ("root", 0.0, 10.0, None),
        ("c", 1.0, 6.0, 0),
        ("c", 4.0, 8.0, 0),
    )
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)  # covered: [1, 8]
    assert (selfs[1], selfs[2]) == (5.0, 4.0)
    rows = breakdown(spans)[2]
    assert [(row.name, row.calls, row.total_s) for row in rows] == [("c", 2, 9.0)]


def test_children_are_clipped_to_the_parent():
    spans = tree(("root", 0.0, 5.0, None), ("late", 3.0, 8.0, 0))
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_zero_length_spans_count_calls_but_no_time():
    spans = tree(
        ("root", 0.0, 5.0, None),
        ("z", 2.0, 2.0, 0),
        ("z", 2.0, 2.0, 0),
        ("inside-z", 2.0, 2.0, 1),
    )
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 0.0, 2: 0.0, 3: 0.0}
    rows = {row.name: row for row in breakdown(spans)[2]}
    assert rows["z"].calls == 2 and rows["z"].self_s == 0.0


def test_breakdown_needs_exactly_one_root():
    with pytest.raises(ValueError):
        breakdown(tree(("a", 0.0, 1.0, None), ("b", 1.0, 2.0, None)))


def test_recorder_links_parents_and_writes_jsonl(tmp_path):
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("root"):
        with recorder.span("child", n=1):
            pass
        with recorder.span("child"):
            with recorder.span("grandchild"):
                pass
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("root", None), ("child", 0), ("child", 0), ("grandchild", 2)
    ]
    root_s, unattributed_s, rows = breakdown(recorder.spans)
    assert sum(row.self_s for row in rows) + unattributed_s == root_s
    text = format_breakdown(root_s, unattributed_s, rows, {"grandchild": "replay"})
    assert "unattributed" in text and "(replay)" in text
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[1] == {"id": 1, "name": "child", "start": 1.0, "end": 2.0,
                        "parent": 0, "attrs": {"n": 1}}


def test_recorder_closes_spans_on_error():
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.span("root"):
            raise RuntimeError("boom")
    assert recorder.spans[0].end >= recorder.spans[0].start
    with recorder.span("next"):
        pass
    assert recorder.spans[1].parent is None


def test_null_recorder_records_nothing():
    recorder = NullRecorder()
    with recorder.span("root"):
        pass
    assert recorder.spans == []
