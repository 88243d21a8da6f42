"""Unit tests for the repro-timeseries/1 log and the grid and rolling samplers."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    TIMESERIES_SCHEMA,
    GridSampler,
    TimeSeriesLog,
    read_timeseries,
    rss_bytes,
)
from repro.sim import RollingSampler

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRssBytes:
    def test_positive_on_this_platform(self):
        assert rss_bytes() > 0


class TestTimeSeriesLog:
    def test_header_written_on_construction(self, tmp_path):
        path = tmp_path / "sub" / "ts.jsonl"
        with TimeSeriesLog(path, label="run-grid"):
            header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "header"
        assert header["schema"] == TIMESERIES_SCHEMA
        assert header["label"] == "run-grid"
        assert header["started_unix"] > 0

    def test_samples_flushed_while_open(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        log = TimeSeriesLog(path)
        log.sample({"x": 1})
        log.sample({"x": 2})
        # readable before close — the file is live-tailable
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert log.samples_written == 2
        log.close()
        log.close()  # idempotent

    def test_t_s_non_decreasing_with_backwards_clock(self, tmp_path):
        clock = FakeClock(start=10.0)
        log = TimeSeriesLog(tmp_path / "ts.jsonl", clock=clock)
        clock.advance(2.0)
        first = log.sample({})
        clock.now = 10.5  # clock regression
        second = log.sample({})
        log.close()
        assert first == pytest.approx(2.0)
        assert second >= first

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        with TimeSeriesLog(path, label="lbl") as log:
            log.sample({"tasks_per_s": 4.0})
        header, samples = read_timeseries(path)
        assert header["label"] == "lbl"
        (sample,) = samples
        assert sample["metrics"] == {"tasks_per_s": 4.0}
        assert sample["t_s"] >= 0.0


class TestReadTimeseriesErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            read_timeseries(path)

    def test_sample_before_header(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(json.dumps({"type": "sample", "t_s": 0, "metrics": {}}) + "\n")
        with pytest.raises(ConfigurationError):
            read_timeseries(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(json.dumps({"type": "header", "schema": "other/9"}) + "\n")
        with pytest.raises(ConfigurationError):
            read_timeseries(path)

    @pytest.mark.parametrize("line", ['"header"', "[1, 2]", "7", "null"])
    def test_non_object_line(self, tmp_path, line):
        path = tmp_path / "ts.jsonl"
        with TimeSeriesLog(path):
            pass
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigurationError, match=r"ts\.jsonl:2: "):
            read_timeseries(path)

    def test_unknown_type_and_bad_json(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        with TimeSeriesLog(path):
            pass
        path.write_text(path.read_text() + json.dumps({"type": "mystery"}) + "\n")
        with pytest.raises(ConfigurationError):
            read_timeseries(path)
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_timeseries(path)


def _sampler(tmp_path, clock, **kw):
    kw.setdefault("total_cells", 4)
    kw.setdefault("tasks_per_record", 10)
    kw.setdefault("interval_s", 1.0)
    kw.setdefault("rss_fn", lambda: 4096)
    return GridSampler(tmp_path / "ts.jsonl", clock=clock, **kw)


def _rolling_sampler(tmp_path, clock, **kw):
    kw.setdefault("total_tasks", 40)
    kw.setdefault("interval_s", 1.0)
    kw.setdefault("rss_fn", lambda: 4096)
    return RollingSampler(tmp_path / "ts.jsonl", clock=clock, **kw)


class _SamplerContracts:
    """Throttle, final sample, close and summary contracts that every
    ``repro-timeseries/1`` sampler keeps.  Subclasses set ``make`` (a
    sampler factory), ``schedule`` (account 10 more scheduled tasks and
    offer a sample) and ``summary_extra`` (their own summary keys)."""

    make = None
    schedule = None
    summary_extra: set = set()

    def test_rejects_negative_interval(self, tmp_path):
        with pytest.raises(ConfigurationError, match="interval"):
            self.make(tmp_path, FakeClock(), interval_s=-0.1)

    def test_throttles_to_interval(self, tmp_path):
        clock = FakeClock()
        sampler = self.make(tmp_path, clock)
        self.schedule(sampler)  # first sample always lands
        self.schedule(sampler)  # within the interval: suppressed
        assert sampler.log.samples_written == 1
        clock.advance(1.5)
        self.schedule(sampler)
        assert sampler.log.samples_written == 2

    def test_close_forces_final_sample_and_is_idempotent(self, tmp_path):
        clock = FakeClock()
        sampler = self.make(tmp_path, clock)
        self.schedule(sampler)
        self.schedule(sampler)  # suppressed by the throttle
        sampler.close()
        sampler.close()
        _, samples = read_timeseries(sampler.log.path)
        assert len(samples) == 2
        assert samples[-1]["metrics"]["tasks_scheduled"] == 20

    def test_summary_headline_keys(self, tmp_path):
        clock = FakeClock()
        sampler = self.make(tmp_path, clock)
        clock.advance(2.0)
        self.schedule(sampler)
        self.schedule(sampler)
        summary = sampler.summary()
        assert set(summary) == {
            "schema",
            "path",
            "samples",
            "duration_s",
            "tasks_scheduled",
            "tasks_per_s",
        } | self.summary_extra
        assert summary["schema"] == TIMESERIES_SCHEMA
        assert summary["path"].endswith("ts.jsonl")
        assert summary["tasks_scheduled"] == 20
        assert summary["tasks_per_s"] == pytest.approx(10.0)
        assert summary["duration_s"] == pytest.approx(2.0)
        assert summary["samples"] == 1


class TestGridSampler(_SamplerContracts):
    make = staticmethod(_sampler)
    summary_extra = {"cells_per_s", "cache_hit_rate"}

    @staticmethod
    def schedule(sampler):
        sampler.note_cell(records=1)  # one record of 10 tasks

    def test_accounting_in_metrics(self, tmp_path):
        clock = FakeClock()
        sampler = _sampler(tmp_path, clock)
        clock.advance(2.0)
        sampler.note_cell(records=3)
        sampler.note_cell(cached=True)
        sampler.note_cell(quarantined=True)
        sampler.note_store(published=5, reused=2)
        sampler.set_queue_depth(7)
        metrics = sampler.metrics()
        assert metrics["tasks_scheduled"] == 30  # 3 records x 10 tasks
        assert metrics["tasks_per_s"] == pytest.approx(15.0)
        assert metrics["cells_done"] == 3
        assert metrics["cells_total"] == 4
        assert metrics["cache_hit_rate"] == pytest.approx(1 / 3)
        assert metrics["store_published"] == 5
        assert metrics["store_reused"] == 2
        assert metrics["queue_depth"] == 7
        assert metrics["rss_bytes"] == 4096

    def test_summary_cache_hit_rate(self, tmp_path):
        sampler = _sampler(tmp_path, FakeClock())
        sampler.note_cell(records=2)
        sampler.note_cell(cached=True)
        summary = sampler.summary()
        assert summary["cache_hit_rate"] == pytest.approx(0.5)
        assert summary["cells_per_s"] == 0.0  # no time has passed


class TestRollingSampler(_SamplerContracts):
    make = staticmethod(_rolling_sampler)
    summary_extra = {"peak_rss_bytes"}

    @staticmethod
    def schedule(sampler):
        sampler.tasks_scheduled += 10
        sampler.note()

    def test_metrics_and_peak_rss(self, tmp_path):
        clock = FakeClock()
        sampler = _rolling_sampler(tmp_path, clock)
        clock.advance(4.0)
        sampler.tasks_arrived = 30
        sampler.tasks_scheduled = 20
        sampler.tasks_completed = 12
        sampler.tasks_dropped = 1
        sampler.failures = 2
        sampler.pending = 5
        sampler.backlog = 3
        sampler.sim_time = 7.5
        assert sampler.metrics() == {
            "tasks_arrived": 30,
            "tasks_scheduled": 20,
            "tasks_completed": 12,
            "tasks_dropped": 1,
            "tasks_total": 40,
            "tasks_per_s": pytest.approx(5.0),
            "pending": 5,
            "backlog": 3,
            "failures": 2,
            "rss_bytes": 4096,
            "sim_time": 7.5,
        }
        assert sampler.summary()["peak_rss_bytes"] == 4096

    def test_peak_rss_outlives_a_freed_array(self, tmp_path):
        """The summary reports the largest RSS a sample read, not the
        RSS left when the run is summarised."""
        sampler = _rolling_sampler(
            tmp_path, FakeClock(), rss_fn=rss_bytes, interval_s=0.0
        )
        block = np.ones(40 * 2**20 // 8)  # 40 MiB, every page touched
        sampler.note()
        alive = rss_bytes()
        del block
        assert sampler.summary()["peak_rss_bytes"] >= alive - 2**20
