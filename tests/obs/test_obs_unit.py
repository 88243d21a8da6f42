"""Unit tests for repro.obs: tracer, counters, spans, JSONL export."""

import pickle

import pytest

from repro.obs import (
    NULL_TRACER,
    CollectingTracer,
    Counters,
    NullTracer,
    event_to_dict,
    format_event,
    get_tracer,
    read_jsonl,
    render_events,
    set_tracer,
    snapshot_to_jsonl,
    use_tracer,
    write_jsonl,
)
from repro.obs.tracer import TraceEvent

pytestmark = pytest.mark.obs


class TestNullTracer:
    def test_disabled_and_inert(self):
        t = NullTracer()
        assert t.enabled is False
        t.event("anything", x=1)  # no-ops, no state anywhere
        t.count("anything")
        with t.span("anything", y=2):
            pass

    def test_default_current_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER


class TestCurrentTracer:
    def test_use_tracer_installs_and_restores(self):
        collector = CollectingTracer()
        with use_tracer(collector) as inside:
            assert inside is collector
            assert get_tracer() is collector
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(CollectingTracer()):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_returns_previous(self):
        collector = CollectingTracer()
        previous = set_tracer(collector)
        try:
            assert previous is NULL_TRACER
            assert get_tracer() is collector
        finally:
            set_tracer(previous)


class TestCollectingTracer:
    def test_events_are_sequenced(self):
        t = CollectingTracer()
        t.event("a.x", v=1)
        t.event("b.y", v=2)
        assert [e.seq for e in t.events] == [0, 1]
        assert [e.kind for e in t.events] == ["a.x", "b.y"]
        assert t.events[0].get("v") == 1

    def test_event_auto_increments_kind_counter(self):
        t = CollectingTracer()
        t.event("a.x")
        t.event("a.x")
        t.event("b.y")
        assert t.counters.get("events.a.x") == 2
        assert t.counters.get("events.b.y") == 1
        assert t.counters.total("events.") == len(t.events)

    def test_span_times_and_emits(self):
        t = CollectingTracer()
        with t.span("work", label="w"):
            pass
        assert t.counters.get("events.work") == 1
        (span,) = t.spans
        assert span.kind == "work"
        assert span.duration_s >= 0.0
        assert t.events_of("work")[0].get("label") == "w"

    def test_merge_snapshot_resequences(self):
        a, b = CollectingTracer(), CollectingTracer()
        a.event("x")
        b.event("y")
        b.count("custom", 3)
        with b.phase("t"):
            pass
        a.merge_snapshot(b.snapshot())
        assert [e.seq for e in a.events] == [0, 1]
        assert [e.kind for e in a.events] == ["x", "y"]
        assert a.counters.get("custom") == 3
        assert [s.kind for s in a.spans] == ["t"]

    def test_snapshot_is_picklable(self):
        t = CollectingTracer()
        t.event("a.x", task="t1", tied=("m1", "m2"))
        with t.span("s"):
            pass
        snap = pickle.loads(pickle.dumps(t.snapshot()))
        assert snap.events[0].fields["task"] == "t1"
        assert snap.counters["events.a.x"] == 1
        assert [s.kind for s in snap.spans] == ["s"]

    def test_clear(self):
        t = CollectingTracer()
        t.event("a")
        t.clear()
        assert len(t) == 0
        assert len(t.counters) == 0


class TestCounters:
    def test_inc_get_total(self):
        c = Counters()
        assert c.inc("a.x") == 1
        assert c.inc("a.x", 4) == 5
        c.inc("b.y", 2)
        assert c.get("a.x") == 5
        assert c.get("missing") == 0
        assert c.total("a.") == 5
        assert c.total() == 7

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counters().inc("a", -1)

    def test_merge_and_equality(self):
        a = Counters({"x": 1, "y": 2})
        a.merge(Counters({"x": 2}))
        a.merge({"z": 1})
        assert a == {"x": 3, "y": 2, "z": 1}
        assert list(a) == ["x", "y", "z"]

    def test_as_dict_sorted(self):
        c = Counters()
        c.inc("zz")
        c.inc("aa")
        assert list(c.as_dict()) == ["aa", "zz"]


class TestExport:
    def _tracer(self):
        t = CollectingTracer()
        t.event("a.decision", task="t1", tied=("m1", "m2"), completion=2.5)
        t.event("b.step", bi=float("nan"))
        t.count("decisions")
        with t.span("phase"):
            pass
        return t

    def test_event_to_dict_schema(self):
        t = self._tracer()
        d = event_to_dict(t.events[0])
        assert d["type"] == "event"
        assert d["seq"] == 0
        assert d["kind"] == "a.decision"
        assert d["fields"]["tied"] == ["m1", "m2"]

    def test_nan_exports_as_null(self):
        t = self._tracer()
        d = event_to_dict(t.events[1])
        assert d["fields"]["bi"] is None

    def test_jsonl_roundtrip(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(t, path)
        records = read_jsonl(path)
        assert lines == len(records)
        events = [r for r in records if r["type"] == "event"]
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        spans = [r for r in records if r["type"] == "span"]
        assert len(events) == len(t.events)
        assert counters["decisions"] == 1
        assert counters["events.a.decision"] == 1
        assert [s["kind"] for s in spans] == ["phase"]
        assert {r["type"] for r in records} == {"event", "span", "counter"}

    def test_export_is_deterministic(self):
        t = self._tracer()
        assert snapshot_to_jsonl(t) == snapshot_to_jsonl(t.snapshot())

    def test_empty_snapshot_exports_empty(self):
        assert snapshot_to_jsonl(CollectingTracer()) == ""

    def test_format_event_rendering(self):
        event = TraceEvent(3, "x.decision", {"task": "t1", "bi": float("nan"),
                                             "tied": ("m1", "m2"), "ct": 2.0})
        line = format_event(event)
        assert "[   3]" in line
        assert "x.decision" in line
        assert "bi=x" in line
        assert "tied=m1,m2" in line
        assert "ct=2" in line

    def test_render_events_multiline(self):
        t = self._tracer()
        assert len(render_events(t.events).splitlines()) == len(t.events)
