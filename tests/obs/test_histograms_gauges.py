"""Unit tests for the histogram metric type and its tracer integration."""

import pickle

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    TIME_BUCKETS,
    CollectingTracer,
    HistogramStat,
    Histograms,
    NullTracer,
    read_jsonl,
    records_to_snapshot,
    snapshot_to_jsonl,
    write_jsonl,
)

pytestmark = pytest.mark.obs


class TestHistogramStat:
    def test_empty_shape(self):
        stat = HistogramStat.empty((1.0, 2.0, 4.0))
        assert stat.buckets == (1.0, 2.0, 4.0)
        assert stat.counts == (0, 0, 0, 0)  # 3 bounds + overflow
        assert stat.count == 0
        assert stat.mean == 0.0

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            HistogramStat.empty(())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            HistogramStat.empty((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            HistogramStat.empty((2.0, 1.0))

    def test_observe_buckets_first_bound_geq_value(self):
        stat = HistogramStat.empty((1.0, 2.0, 4.0))
        stat = stat.observe(1.0)   # ties land in the bucket they bound
        stat = stat.observe(1.5)
        stat = stat.observe(4.0)
        stat = stat.observe(99.0)  # overflow
        assert stat.counts == (1, 1, 1, 1)
        assert stat.count == 4
        assert stat.sum == pytest.approx(105.5)
        assert stat.min == 1.0
        assert stat.max == 99.0
        assert stat.mean == pytest.approx(105.5 / 4)

    def test_combine_sums_counts(self):
        a = HistogramStat.empty((1.0, 2.0)).observe(0.5).observe(3.0)
        b = HistogramStat.empty((1.0, 2.0)).observe(1.5)
        c = a.combine(b)
        assert c.counts == (1, 1, 1)
        assert c.count == 3
        assert c.min == 0.5
        assert c.max == 3.0

    def test_combine_rejects_bucket_mismatch(self):
        a = HistogramStat.empty((1.0, 2.0))
        b = HistogramStat.empty((1.0, 3.0))
        with pytest.raises(ValueError):
            a.combine(b)

    def test_default_bucket_constants_are_valid(self):
        HistogramStat.empty(DEFAULT_BUCKETS)
        HistogramStat.empty(TIME_BUCKETS)


class TestQuantile:
    def test_empty_is_zero(self):
        assert HistogramStat.empty((1.0, 2.0)).quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        stat = HistogramStat.empty((1.0, 2.0)).observe(1.0)
        with pytest.raises(ValueError):
            stat.quantile(-0.1)
        with pytest.raises(ValueError):
            stat.quantile(1.1)

    def test_interpolates_within_bucket(self):
        stat = HistogramStat.empty((0.0, 10.0))
        for value in (2.0, 4.0, 6.0, 8.0):
            stat = stat.observe(value)
        # all four observations sit in the (0, 10] bucket: the median
        # rank is halfway through it, so the estimate is mid-bucket.
        assert stat.quantile(0.5) == pytest.approx(5.0)

    def test_clamped_to_observed_range(self):
        stat = HistogramStat.empty((10.0, 20.0)).observe(4.0).observe(5.0)
        assert stat.quantile(0.0) >= stat.min
        assert stat.quantile(1.0) <= stat.max

    def test_overflow_bucket_resolves_to_max(self):
        stat = HistogramStat.empty((1.0,)).observe(0.5).observe(99.0)
        assert stat.quantile(1.0) == 99.0

    def test_p50_p95_ordering(self):
        stat = HistogramStat.empty(TIME_BUCKETS)
        for value in (0.001, 0.002, 0.004, 0.5, 0.9):
            stat = stat.observe(value)
        assert stat.quantile(0.5) <= stat.quantile(0.95) <= stat.max


class TestHistograms:
    def test_observe_and_get(self):
        h = Histograms()
        h.observe("depth", 2)
        h.observe("depth", 3)
        stat = h.get("depth")
        assert stat.count == 2
        assert stat.buckets == tuple(float(b) for b in DEFAULT_BUCKETS)
        assert h.get("missing") is None

    def test_buckets_fixed_by_first_observation(self):
        h = Histograms()
        h.observe("x", 0.5, buckets=(1.0, 2.0))
        h.observe("x", 1.5, buckets=(10.0, 20.0))  # ignored
        assert h.get("x").buckets == (1.0, 2.0)
        assert h.get("x").counts == (1, 1, 0)

    def test_merge_combines_and_adopts(self):
        a, b = Histograms(), Histograms()
        a.observe("shared", 1, buckets=(1.0, 2.0))
        b.observe("shared", 2, buckets=(1.0, 2.0))
        b.observe("only_b", 5)
        a.merge(b)
        assert a.get("shared").count == 2
        assert a.get("only_b").count == 1

    def test_merge_accepts_plain_mapping(self):
        a = Histograms()
        a.observe("x", 1, buckets=(1.0, 2.0))
        a.merge({"x": HistogramStat.empty((1.0, 2.0)).observe(2)})
        assert a.get("x").counts == (1, 1, 0)

    def test_as_dict_sorted_and_eq(self):
        h = Histograms()
        h.observe("zz", 1)
        h.observe("aa", 1)
        assert list(h.as_dict()) == ["aa", "zz"]
        assert list(h) == ["aa", "zz"]
        other = Histograms()
        other.observe("aa", 1)
        other.observe("zz", 1)
        assert h == other
        assert h == other.as_dict()


class TestTracerIntegration:
    def test_null_tracer_observe_gauge_inert(self):
        t = NullTracer()
        t.observe("x", 1)  # a no-op, no state anywhere
        assert not hasattr(t, "gauge")

    def test_collecting_tracer_records_both(self):
        t = CollectingTracer()
        t.observe("depth", 3)
        t.count("decisions")
        assert t.histograms.get("depth").count == 1
        assert t.counters.get("decisions") == 1

    def test_snapshot_carries_and_merges(self):
        a, b = CollectingTracer(), CollectingTracer()
        a.observe("depth", 1)
        b.observe("depth", 2)
        a.merge_snapshot(b.snapshot())
        assert a.histograms.get("depth").count == 2

    def test_snapshot_is_picklable(self):
        t = CollectingTracer()
        t.observe("depth", 2)
        snap = pickle.loads(pickle.dumps(t.snapshot()))
        assert snap.histograms["depth"].count == 1

    def test_clear_resets(self):
        t = CollectingTracer()
        t.observe("depth", 1)
        t.clear()
        assert len(t.histograms) == 0


class TestExportRoundTrip:
    def _tracer(self):
        t = CollectingTracer()
        t.event("a.decision", task="t1")
        t.count("decisions")
        t.observe("depth", 2, buckets=(1.0, 2.0, 4.0))
        t.observe("depth", 9, buckets=(1.0, 2.0, 4.0))
        with t.span("phase"):
            pass
        return t

    def test_jsonl_contains_new_record_types(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(t, path)
        records = read_jsonl(path)
        assert {r["type"] for r in records} == {
            "event", "span", "counter", "histogram",
        }
        (h,) = [r for r in records if r["type"] == "histogram"]
        assert h["name"] == "depth"
        assert h["buckets"] == [1.0, 2.0, 4.0]
        assert h["counts"] == [0, 1, 0, 1]
        assert h["count"] == 2

    def test_records_to_snapshot_inverts_export(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(t, path)
        snap = records_to_snapshot(read_jsonl(path))
        original = t.snapshot()
        assert snap.counters == original.counters
        assert snap.histograms == original.histograms
        assert [e.kind for e in snap.events] == [e.kind for e in original.events]

    def test_records_to_snapshot_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            records_to_snapshot([{"type": "mystery"}])

    def test_records_to_snapshot_skips_retired_types(self):
        """Exports and cell-cache entries written while timers and
        gauges existed still load; their records are dropped."""
        retired = [
            {"type": "gauge", "name": "g", "value": 1.0},
            {"type": "timer", "name": "t", "count": 1, "total": 0.5,
             "min": 0.5, "max": 0.5},
        ]
        snap = records_to_snapshot(
            [{"type": "counter", "name": "decisions", "value": 2}, *retired]
        )
        assert snap.counters == {"decisions": 2}
        assert snap.events == () and snap.spans == ()
        assert snap.histograms == {}

    def test_export_deterministic_with_new_types(self):
        t = self._tracer()
        assert snapshot_to_jsonl(t) == snapshot_to_jsonl(t.snapshot())
