"""Unit tests for hierarchical spans and cross-process trace identity."""

import pickle

import pytest

from repro.obs import (
    CollectingTracer,
    NullTracer,
    SpanContext,
    SpanRecord,
    build_span_tree,
    read_jsonl,
    span_from_dict,
    span_to_dict,
    spans_from_records,
    tree_shape,
    write_jsonl,
)

pytestmark = pytest.mark.obs


def _span(seq, span_id, parent_id, kind, *, trace="t", start=0.0, dur=1.0, **fields):
    return SpanRecord(
        seq=seq,
        span_id=span_id,
        parent_id=parent_id,
        trace_id=trace,
        kind=kind,
        fields=fields,
        start_unix=start,
        duration_s=dur,
    )


class TestSpanRecording:
    def test_span_records_a_span_record(self):
        t = CollectingTracer()
        with t.span("outer", cell="hihi"):
            pass
        (span,) = t.spans
        assert span.kind == "outer"
        assert span.fields == {"cell": "hihi"}
        assert span.parent_id is None
        assert span.duration_s >= 0.0
        assert span.end_unix >= span.start_unix
        assert span.span_id.endswith(f":{span.seq}")

    def test_nesting_parents_and_enter_order_seq(self):
        t = CollectingTracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("sibling"):
                pass
        outer, inner, sibling = sorted(t.spans, key=lambda s: s.seq)
        assert (outer.kind, inner.kind, sibling.kind) == (
            "outer", "inner", "sibling",
        )
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert outer.seq < inner.seq < sibling.seq
        assert len({s.trace_id for s in t.spans}) == 1

    def test_phase_records_span_but_no_event_or_timer(self):
        t = CollectingTracer()
        with t.phase("runner.publish", cells=3):
            pass
        assert [s.kind for s in t.spans] == ["runner.publish"]
        assert list(t.events) == []
        assert len(t.counters) == 0

    def test_span_still_times_and_emits_events(self):
        t = CollectingTracer()
        with t.span("phase"):
            pass
        assert [e.kind for e in t.events] == ["phase"]
        (span,) = t.spans
        assert span.duration_s >= 0.0

    def test_phase_nests_with_span(self):
        t = CollectingTracer()
        with t.span("outer"):
            with t.phase("inner"):
                pass
        outer, inner = sorted(t.spans, key=lambda s: s.seq)
        assert inner.parent_id == outer.span_id

    def test_null_tracer_phase_is_inert(self):
        t = NullTracer()
        with t.phase("anything", x=1):
            pass  # no state anywhere, nothing raised

    def test_clear_resets_spans(self):
        t = CollectingTracer()
        with t.span("a"):
            pass
        t.clear()
        assert t.spans == ()
        with t.span("b"):
            pass
        (span,) = t.spans
        assert span.parent_id is None


class TestSpanContext:
    def test_context_carries_trace_and_open_span(self):
        t = CollectingTracer()
        outside = t.context()
        assert outside.span_id is None
        with t.span("grid"):
            ctx = t.context()
        assert ctx.trace_id == outside.trace_id
        assert ctx.span_id is not None

    def test_context_is_picklable(self):
        ctx = SpanContext(trace_id="abc", span_id="abc:0")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_worker_tracer_adopts_context(self):
        parent = CollectingTracer()
        with parent.span("grid"):
            ctx = parent.context()
        worker = CollectingTracer(context=ctx)
        with worker.span("cell"):
            with worker.span("kernel"):
                pass
        cell, kernel = sorted(worker.spans, key=lambda s: s.seq)
        assert cell.trace_id == ctx.trace_id
        assert cell.parent_id == ctx.span_id
        assert kernel.parent_id == cell.span_id


class TestMerge:
    def test_merge_attaches_worker_roots_under_open_span(self):
        parent = CollectingTracer()
        worker = CollectingTracer()
        with worker.span("cell"):
            pass
        with parent.span("grid"):
            parent.merge_snapshot(worker.snapshot())
        (root,) = build_span_tree(parent.spans)
        assert root.kind == "grid"
        assert [child.kind for child in root.children] == ["cell"]

    def test_merge_rewrites_trace_id_and_resequences(self):
        parent = CollectingTracer()
        workers = [CollectingTracer() for _ in range(2)]
        for index, worker in enumerate(workers):
            with worker.span("cell", index=index):
                pass
        with parent.span("grid"):
            for worker in workers:
                parent.merge_snapshot(worker.snapshot())
        spans = parent.spans
        assert len({s.trace_id for s in spans}) == 1
        assert [s.seq for s in sorted(spans, key=lambda s: s.seq)] == list(
            range(len(spans))
        )
        assert len({s.span_id for s in spans}) == len(spans)

    def test_adopted_worker_keeps_explicit_parent_through_merge(self):
        parent = CollectingTracer()
        with parent.span("grid"):
            ctx = parent.context()
            worker = CollectingTracer(context=ctx)
            with worker.span("cell"):
                pass
            parent.merge_snapshot(worker.snapshot())
        (root,) = build_span_tree(parent.spans)
        assert [child.kind for child in root.children] == ["cell"]


class TestExport:
    def test_span_dict_round_trip(self):
        span = _span(3, "ab:3", "ab:0", "k", start=1.5, dur=0.25, cell="x")
        assert span_from_dict(span_to_dict(span)) == span
        assert span_from_dict({**span_to_dict(span), "type": "span"}) == span

    def test_jsonl_round_trip_preserves_spans(self, tmp_path):
        t = CollectingTracer()
        with t.span("outer"):
            with t.phase("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(t, path)
        spans = spans_from_records(read_jsonl(path))
        assert spans == sorted(t.spans, key=lambda s: s.seq)

    def test_spans_from_records_ignores_other_types(self):
        records = [
            {"type": "event", "kind": "x"},
            {"type": "span", **span_to_dict(_span(1, "a:1", None, "k"))},
            {"type": "span", **span_to_dict(_span(0, "a:0", None, "j"))},
        ]
        assert [s.seq for s in spans_from_records(records)] == [0, 1]


class TestTree:
    def test_unknown_parent_becomes_root(self):
        spans = [
            _span(0, "a:0", "elsewhere:9", "orphan"),
            _span(1, "a:1", "a:0", "child"),
        ]
        (root,) = build_span_tree(spans)
        assert root.kind == "orphan"
        assert [c.kind for c in root.children] == ["child"]

    def test_walk_reports_depth(self):
        spans = [
            _span(0, "a:0", None, "root"),
            _span(1, "a:1", "a:0", "mid"),
            _span(2, "a:2", "a:1", "leaf"),
        ]
        (root,) = build_span_tree(spans)
        assert [(d, n.kind) for d, n in root.walk()] == [
            (0, "root"), (1, "mid"), (2, "leaf"),
        ]

    def test_tree_shape_ignores_ids_and_clocks(self):
        a = [_span(0, "a:0", None, "r", x=1), _span(1, "a:1", "a:0", "c")]
        b = [
            _span(5, "zz:5", None, "r", trace="other", start=9.0, dur=7.0, x=1),
            _span(8, "zz:8", "zz:5", "c", trace="other"),
        ]
        assert tree_shape(a) == tree_shape(b)

    def test_tree_shape_sees_structure_and_fields(self):
        flat = [_span(0, "a:0", None, "r"), _span(1, "a:1", None, "c")]
        nested = [_span(0, "a:0", None, "r"), _span(1, "a:1", "a:0", "c")]
        assert tree_shape(flat) != tree_shape(nested)
        assert tree_shape([_span(0, "a:0", None, "r", x=1)]) != tree_shape(
            [_span(0, "a:0", None, "r", x=2)]
        )
