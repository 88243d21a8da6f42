"""Unit tests for the append-only run ledger (repro-ledger/1)."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    RunLedger,
    build_record,
    collect_counters,
    config_hash,
    diff_records,
    fingerprint,
    follow_records,
    format_record_line,
    headline_metrics,
    histogram_summaries,
    is_lower_better,
    summarize_records,
)
from repro.obs.metrics import HistogramStat

pytestmark = pytest.mark.obs


def _record(command="bench", *, metrics=None, counters=None, ts="2026-01-01T00:00:00+00:00", **kw):
    return build_record(
        command,
        metrics=metrics or {"makespan_mean": 10.0},
        counters=counters,
        timestamp=ts,
        **kw,
    )


class TestBuildRecord:
    def test_schema_and_fields(self):
        rec = _record(seed=7, config={"tasks": 8}, duration_s=1.5)
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["command"] == "bench"
        assert rec["seed"] == 7
        assert rec["duration_s"] == 1.5
        assert rec["config"] == {"tasks": 8}
        assert rec["config_hash"] == config_hash({"tasks": 8})
        assert len(rec["run_id"]) == 12
        int(rec["run_id"], 16)  # hex

    def test_run_id_is_content_derived(self):
        a = _record(seed=1)
        b = _record(seed=1)
        c = _record(seed=2)
        assert a["run_id"] == b["run_id"]
        assert a["run_id"] != c["run_id"]

    def test_fingerprint_embedded(self):
        fp = _record()["fingerprint"]
        assert set(fp) == {
            "git_sha", "version", "python", "numpy", "platform", "machine",
        }
        from repro import __version__

        assert fp["version"] == __version__

    def test_config_hash_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_fingerprint_standalone(self):
        assert fingerprint()["python"]


class TestRunLedger:
    def test_default_path(self):
        assert RunLedger().path == __import__("pathlib").Path(DEFAULT_LEDGER_PATH)

    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "ledger.jsonl")
        assert not ledger.exists()
        assert ledger.read() == []
        rec = ledger.append(_record(ts="2026-01-01T00:00:00+00:00"))
        ledger.append(_record(ts="2026-01-02T00:00:00+00:00"))
        assert ledger.exists()
        records = ledger.read()
        assert len(records) == len(ledger) == 2
        assert records[0] == rec
        assert [r["timestamp"] for r in ledger] == [
            "2026-01-01T00:00:00+00:00", "2026-01-02T00:00:00+00:00",
        ]

    def test_append_is_append_only(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_record(ts="2026-01-01T00:00:00+00:00"))
        before = ledger.path.read_text()
        ledger.append(_record(ts="2026-01-02T00:00:00+00:00"))
        assert ledger.path.read_text().startswith(before)

    def test_append_rejects_wrong_schema(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(ConfigurationError):
            ledger.append({"schema": "other/1", "run_id": "abc123abc123"})
        rec = _record()
        rec = {**rec, "run_id": ""}
        with pytest.raises(ConfigurationError):
            ledger.append(rec)
        assert not ledger.exists()

    def test_read_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            RunLedger(path).read()
        path.write_text(json.dumps({"schema": "other/1"}) + "\n")
        with pytest.raises(ConfigurationError):
            RunLedger(path).read()

    @pytest.mark.parametrize("line", ["[1, 2]", '"record"', "7", "null"])
    def test_read_rejects_non_object_line(self, tmp_path, line):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(build_record("bench"))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigurationError, match=rf"ledger\.jsonl:2: not a "):
            ledger.read()

    def test_tail(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for day in range(1, 6):
            ledger.append(_record(ts=f"2026-01-0{day}T00:00:00+00:00"))
        assert [r["timestamp"][8:10] for r in ledger.tail(2)] == ["04", "05"]
        assert len(ledger.tail(99)) == 5
        with pytest.raises(ConfigurationError):
            ledger.tail(0)

    def test_find_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        first = ledger.append(_record(ts="2026-01-01T00:00:00+00:00"))
        last = ledger.append(_record(ts="2026-01-02T00:00:00+00:00"))
        assert ledger.find("-1") == last
        assert ledger.find("-2") == first
        assert ledger.find(first["run_id"][:6]) == first
        with pytest.raises(ConfigurationError):
            ledger.find("-3")
        with pytest.raises(ConfigurationError):
            ledger.find("abc")  # too short
        with pytest.raises(ConfigurationError):
            ledger.find("ffffffff")  # no match

    def test_find_empty_ledger(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunLedger(tmp_path / "ledger.jsonl").find("-1")


class TestHeadlineAndFormat:
    def test_headline_filters_non_numeric(self):
        rec = _record(metrics={"m": 1.0, "note": "hi", "flag": True, "n": 2})
        assert headline_metrics(rec) == {"m": 1.0, "n": 2}

    def test_format_record_line(self):
        rec = _record(seed=3, duration_s=0.5,
                      metrics={"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        line = format_record_line(rec)
        assert rec["run_id"] in line
        assert "bench" in line
        assert "seed=3" in line
        assert "0.50s" in line
        assert "(+1 more)" in line


class TestSummarize:
    def test_empty(self):
        assert "empty" in summarize_records([])

    def test_trend_across_runs(self):
        records = [
            _record(metrics={"makespan_mean": 10.0},
                    ts="2026-01-01T00:00:00+00:00"),
            _record(metrics={"makespan_mean": 9.0},
                    ts="2026-01-02T00:00:00+00:00"),
        ]
        text = summarize_records(records)
        assert "bench: 2 run(s)" in text
        assert "-10.0% vs first" in text


class TestDiff:
    def test_direction_convention(self):
        assert is_lower_better("makespan_mean")
        assert is_lower_better("bench.minmin.best_s")
        assert not is_lower_better("bench.minmin.speedup")
        assert not is_lower_better("non_makespan_improvement_mean")
        assert not is_lower_better("machine_improved_rate")

    def test_no_regression_within_tolerance(self):
        a = _record(metrics={"makespan_mean": 100.0})
        b = _record(metrics={"makespan_mean": 103.0},
                    ts="2026-01-02T00:00:00+00:00")
        lines, regressions = diff_records(a, b, tolerance=0.05)
        assert regressions == []
        assert any("+3.0%" in line for line in lines)

    def test_lower_better_regression(self):
        a = _record(metrics={"makespan_mean": 100.0})
        b = _record(metrics={"makespan_mean": 120.0},
                    ts="2026-01-02T00:00:00+00:00")
        _, regressions = diff_records(a, b, tolerance=0.05)
        assert len(regressions) == 1
        assert "makespan_mean" in regressions[0]

    def test_higher_better_regression_on_drop(self):
        a = _record(metrics={"x.speedup": 2.0})
        b = _record(metrics={"x.speedup": 1.0},
                    ts="2026-01-02T00:00:00+00:00")
        _, regressions = diff_records(a, b, tolerance=0.05)
        assert len(regressions) == 1
        # and an *increase* is never a speedup regression
        _, none = diff_records(b, a, tolerance=0.05)
        assert none == []

    def test_disjoint_metrics_reported(self):
        a = _record(metrics={"only_a": 1.0, "shared": 1.0})
        b = _record(metrics={"only_b": 1.0, "shared": 1.0},
                    ts="2026-01-02T00:00:00+00:00")
        lines, regressions = diff_records(a, b)
        assert regressions == []
        assert any("only in" in line and "only_a" in line for line in lines)
        assert any("only in" in line and "only_b" in line for line in lines)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ConfigurationError):
            diff_records(_record(), _record(), tolerance=-0.1)


class TestCollectCounters:
    def test_sums_across_records(self):
        records = [
            _record(counters={"decisions": 10, "iterations": 3}),
            _record(counters={"decisions": 5},
                    ts="2026-01-02T00:00:00+00:00"),
        ]
        assert collect_counters(records) == {"decisions": 15, "iterations": 3}


class TestHistogramSummaries:
    def test_includes_percentiles_and_drops_empty(self):
        stats = {
            "runner.cell_wall_s": (
                HistogramStat.empty((1.0, 2.0, 4.0))
                .observe(0.5).observe(1.5).observe(3.0)
            ),
            "never_observed": HistogramStat.empty((1.0,)),
        }
        summaries = histogram_summaries(stats)
        assert list(summaries) == ["runner.cell_wall_s"]
        summary = summaries["runner.cell_wall_s"]
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(5.0 / 3)
        assert summary["min"] == 0.5
        assert summary["max"] == 3.0
        assert summary["p50"] <= summary["p95"] <= summary["max"]


class TestFollowRecords:
    def _ledger(self, tmp_path):
        return RunLedger(tmp_path / "ledger.jsonl")

    def test_emits_only_new_records_per_poll(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.append(_record(ts="2026-01-01T00:00:00+00:00"))
        seen = []
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            # a run lands while we were sleeping
            if len(sleeps) == 1:
                ledger.append(_record(ts="2026-01-02T00:00:00+00:00"))

        emitted = follow_records(
            ledger, seen.append, interval_s=0.25, max_polls=3, sleep=sleep
        )
        assert emitted == 2
        assert [r["timestamp"][8:10] for r in seen] == ["01", "02"]
        assert sleeps == [0.25, 0.25]

    def test_missing_ledger_means_nothing_yet(self, tmp_path):
        ledger = self._ledger(tmp_path)
        emitted = follow_records(
            ledger, lambda r: None, max_polls=2, sleep=lambda s: None
        )
        assert emitted == 0

    def test_validates_arguments(self, tmp_path):
        ledger = self._ledger(tmp_path)
        with pytest.raises(ConfigurationError):
            follow_records(ledger, lambda r: None, interval_s=0.0)
        with pytest.raises(ConfigurationError):
            follow_records(ledger, lambda r: None, max_polls=0)
