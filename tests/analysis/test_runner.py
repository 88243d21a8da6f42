"""Unit tests for the resumable cached experiment runner."""

import dataclasses
import io
import json

import pytest

from repro.analysis.experiments import (
    ExperimentConfig,
    config_to_dict,
    run_experiment,
    run_record_from_dict,
    run_record_to_dict,
)
from repro.analysis.parallel import split_into_cells
from repro.analysis.runner import CellCache, cell_key, run_grid
from repro.etc.generation import Consistency, Heterogeneity
from repro.exceptions import ConfigurationError
from repro.obs import (
    ProgressReporter,
    build_span_tree,
    event_to_dict,
    read_timeseries,
)
from repro.obs.tracer import CollectingTracer, use_tracer


@pytest.fixture(scope="module")
def grid_config():
    return ExperimentConfig(
        heuristics=("mct", "sufferage"),
        num_tasks=8,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.CONSISTENT, Consistency.INCONSISTENT),
        instances_per_cell=2,
        seed=0,
    )


def _single_cell_config(**overrides):
    base = dict(
        heuristics=("mct",),
        num_tasks=6,
        num_machines=3,
        instances_per_cell=2,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Module-level cell functions: pooled runs pickle them by reference.
def _failing_cell(config):
    raise ValueError(f"boom in {config.heterogeneities[0].value}")


class _FlakyOnce:
    """Fails on the first call per process, succeeds after."""

    calls = 0

    def __call__(self, config):
        type(self).calls += 1
        if type(self).calls == 1:
            raise ValueError("transient")
        return run_experiment(config)


class TestSplitEdgeCases:
    def test_empty_grid_yields_no_cells(self):
        config = dataclasses.replace(
            _single_cell_config(), heterogeneities=(), consistencies=()
        )
        assert split_into_cells(config) == []

    def test_one_cell(self):
        assert len(split_into_cells(_single_cell_config())) == 1


class TestCellKey:
    def test_stable_across_calls(self):
        a = _single_cell_config()
        b = _single_cell_config()
        assert cell_key(a) == cell_key(b)

    def test_sensitive_to_science_parameters(self):
        base = _single_cell_config()
        assert cell_key(base) != cell_key(_single_cell_config(seed=4))
        assert cell_key(base) != cell_key(_single_cell_config(num_tasks=7))

    def test_same_cell_in_bigger_grid_hits_same_key(self, grid_config):
        solo = dataclasses.replace(
            grid_config,
            heterogeneities=(Heterogeneity.HIHI,),
            consistencies=(Consistency.CONSISTENT,),
        )
        from_grid = split_into_cells(grid_config)[0]
        assert cell_key(solo) == cell_key(from_grid)

    def test_config_dict_is_json_canonicalisable(self, grid_config):
        payload = config_to_dict(grid_config)
        assert json.loads(json.dumps(payload)) == payload


class TestRecordRoundTrip:
    def test_lossless(self):
        records = run_experiment(_single_cell_config())
        for record in records:
            assert run_record_from_dict(run_record_to_dict(record)) == record

    def test_survives_json(self):
        records = run_experiment(_single_cell_config())
        for record in records:
            payload = json.loads(json.dumps(run_record_to_dict(record)))
            assert run_record_from_dict(payload) == record


class TestCellCache:
    def test_store_load_round_trip(self, tmp_path):
        config = _single_cell_config()
        records = run_experiment(config)
        cache = CellCache(tmp_path)
        key = cell_key(config)
        cache.store(key, config, records, None)
        entry = cache.load(key)
        assert list(entry.records) == records
        assert entry.snapshot is None

    def test_miss_returns_none(self, tmp_path):
        assert CellCache(tmp_path).load("deadbeef" * 8) is None

    def test_traced_load_skips_obsless_entries(self, tmp_path):
        config = _single_cell_config()
        cache = CellCache(tmp_path)
        key = cell_key(config)
        cache.store(key, config, run_experiment(config), None)
        assert cache.load(key, need_obs=True) is None
        assert cache.load(key, need_obs=False) is not None

    def test_corrupt_entry_raises(self, tmp_path):
        config = _single_cell_config()
        cache = CellCache(tmp_path)
        key = cell_key(config)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            cache.load(key)

    def test_poison_lifecycle(self, tmp_path):
        config = _single_cell_config()
        cache = CellCache(tmp_path)
        key = cell_key(config)
        assert not cache.is_poisoned(key)
        cache.poison(key, config, "ValueError('x')", attempts=2)
        assert cache.is_poisoned(key)
        assert cache.keys() == []  # poison markers are not entries
        cache.clear_poison(key)
        assert not cache.is_poisoned(key)


class TestRunGrid:
    def test_matches_serial_run(self, grid_config, tmp_path):
        serial = run_experiment(grid_config)
        result = run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        assert list(result.records) == serial
        assert result.total_cells == 4
        assert result.computed_cells == 4
        assert result.cached_cells == 0
        assert result.ok

    def test_resume_serves_cache_and_is_identical(self, grid_config, tmp_path):
        first = run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        second = run_grid(
            grid_config, cache_dir=tmp_path, resume=True, max_workers=2
        )
        assert second.cached_cells == second.total_cells == 4
        assert second.computed_cells == 0
        assert list(second.records) == list(first.records)

    def test_resume_without_cache_dir_recomputes(self, grid_config):
        result = run_grid(grid_config, resume=True, max_workers=1)
        assert result.cached_cells == 0
        assert result.computed_cells == result.total_cells

    def test_empty_grid(self, tmp_path):
        config = dataclasses.replace(
            _single_cell_config(), heterogeneities=(), consistencies=()
        )
        result = run_grid(config, cache_dir=tmp_path)
        assert result.records == ()
        assert result.total_cells == 0
        assert result.ok

    def test_quarantine_continues_and_poisons(self, grid_config, tmp_path):
        result = run_grid(
            grid_config,
            cache_dir=tmp_path,
            max_workers=1,
            retries=0,
            cell_fn=_failing_cell,
        )
        assert not result.ok
        assert len(result.quarantined) == 4
        assert result.records == ()
        cache = CellCache(tmp_path)
        for cell in split_into_cells(grid_config):
            assert cache.is_poisoned(cell_key(cell))
        resumed = run_grid(
            grid_config,
            cache_dir=tmp_path,
            resume=True,
            retries=0,
            cell_fn=_failing_cell,
        )
        assert len(resumed.quarantined) == 4
        assert resumed.computed_cells == 0  # poison skipped, nothing re-run

    def test_on_error_raise_matches_legacy_contract(self, grid_config, tmp_path):
        with pytest.raises(ValueError, match="boom"):
            run_grid(
                grid_config,
                cache_dir=tmp_path,
                max_workers=1,
                retries=0,
                on_error="raise",
                cell_fn=_failing_cell,
            )

    def test_serial_retry_recovers(self, tmp_path):
        _FlakyOnce.calls = 0
        config = _single_cell_config()
        result = run_grid(
            config,
            cache_dir=tmp_path,
            max_workers=1,
            retries=1,
            cell_fn=_FlakyOnce(),
        )
        assert result.ok
        assert result.retried == 1
        assert list(result.records) == run_experiment(config)

    def test_pooled_quarantine(self, grid_config, tmp_path):
        result = run_grid(
            grid_config,
            cache_dir=tmp_path,
            max_workers=2,
            retries=0,
            cell_fn=_failing_cell,
        )
        assert len(result.quarantined) == 4

    def test_validation(self, grid_config):
        with pytest.raises(ConfigurationError):
            run_grid(grid_config, max_workers=0)
        with pytest.raises(ConfigurationError):
            run_grid(grid_config, retries=-1)
        with pytest.raises(ConfigurationError):
            run_grid(grid_config, timeout_s=0)
        with pytest.raises(ConfigurationError):
            run_grid(grid_config, on_error="explode")


@pytest.mark.obs
class TestRunGridTraced:
    def test_traced_resume_replays_cell_streams(self, grid_config, tmp_path):
        with use_tracer(CollectingTracer()) as fresh:
            run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        with use_tracer(CollectingTracer()) as resumed:
            result = run_grid(
                grid_config, cache_dir=tmp_path, resume=True, max_workers=2
            )
        assert result.cached_cells == 4
        assert resumed.counters.get("runner.cells.cached") == 4
        # Cell event streams replay from cache: same kinds/order/count
        # as the fresh run (tuple fields become lists through JSON, so
        # compare kinds, not full fields).
        assert [e.kind for e in resumed.events if not e.kind.startswith("runner")] \
            == [e.kind for e in fresh.events if not e.kind.startswith("runner")]
        resumed_counters = {
            k: v
            for k, v in resumed.counters.as_dict().items()
            if not k.startswith("runner.")
        }
        fresh_counters = {
            k: v
            for k, v in fresh.counters.as_dict().items()
            if not k.startswith("runner.")
        }
        assert resumed_counters == fresh_counters

    def test_traced_entries_differ_only_in_wall_clock_histograms(
        self, grid_config, tmp_path
    ):
        """Two traced runs write cell entries whose obs lines differ
        only in ``*_s`` histograms, the convention documented beside
        ``TIME_BUCKETS``: no other obs line carries a wall-clock value."""
        for name in ("a", "b"):
            with use_tracer(CollectingTracer()):
                run_grid(grid_config, cache_dir=tmp_path / name, max_workers=1)
        a, b = CellCache(tmp_path / "a"), CellCache(tmp_path / "b")
        assert a.keys() == b.keys() != []

        def without_wall_clock(cache, key):
            payload = json.loads(cache.path_for(key).read_text())
            assert payload["obs"]
            payload["obs"] = [
                r for r in payload["obs"]
                if not (r["type"] == "histogram" and r["name"].endswith("_s"))
            ]
            return payload

        for key in a.keys():
            assert without_wall_clock(a, key) == without_wall_clock(b, key)

    def test_entries_with_retired_metric_lines_resume(self, grid_config, tmp_path):
        """Entries written while the tracer also kept timers and gauges
        carry ``timer``/``gauge`` obs lines; a traced resume skips them
        and replays exactly what a fresh traced run collects."""
        with use_tracer(CollectingTracer()) as fresh:
            first = run_grid(grid_config, cache_dir=tmp_path, max_workers=1)
        cache = CellCache(tmp_path)
        for key in cache.keys():
            path = cache.path_for(key)
            payload = json.loads(path.read_text())
            payload["obs"] += [
                {"type": "gauge", "name": "experiment.last_original_makespan",
                 "value": 1.0},
                {"type": "timer", "name": "heuristic.map", "count": 1,
                 "total": 0.5, "min": 0.5, "max": 0.5},
            ]
            path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        with use_tracer(CollectingTracer()) as resumed:
            result = run_grid(
                grid_config, cache_dir=tmp_path, resume=True, max_workers=1
            )
        assert result.records == first.records
        assert result.cached_cells == result.total_cells == 4

        def cell_events(tracer):
            return [
                (d["kind"], d["fields"])
                for d in map(event_to_dict, tracer.events)
                if not d["kind"].startswith("runner")
            ]

        assert cell_events(resumed) == cell_events(fresh)

    def test_sharded_run_builds_single_span_tree(self, grid_config, tmp_path):
        with use_tracer(CollectingTracer()) as tracer:
            run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        spans = tracer.spans
        assert spans
        assert all(s.trace_id == tracer.trace_id for s in spans)
        (root,) = build_span_tree(spans)
        assert root.kind == "runner.grid"
        cell_nodes = [c for c in root.children if c.kind == "runner.cell"]
        assert len(cell_nodes) == 4
        for cell in cell_nodes:
            kinds = {node.kind for _, node in cell.walk()}
            assert "experiment.cell" in kinds

    def test_uncached_run_records_no_runner_spans(self, grid_config):
        with use_tracer(CollectingTracer()) as tracer:
            run_grid(grid_config, max_workers=2)
        assert all(not s.kind.startswith("runner.") for s in tracer.spans)

    def test_counters_emitted_only_with_cache(self, grid_config, tmp_path):
        with use_tracer(CollectingTracer()) as uncached:
            run_grid(grid_config, max_workers=2)
        assert uncached.counters.get("runner.cells.computed") == 0
        with use_tracer(CollectingTracer()) as cached:
            run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        assert cached.counters.get("runner.cells.computed") == 4
        assert cached.histograms.get("runner.cell_wall_s").count == 4


class RecordingProgress:
    """Progress stub that records its lifecycle calls."""

    enabled = True

    def __init__(self):
        self.total = 0
        self.advances = 0
        self.started = False
        self.finished = False

    def start(self):
        self.started = True
        return self

    def advance(self, current="", n=1):
        self.advances += n

    def finish(self):
        self.finished = True


class TestProgressFinishOnError:
    """A worker raising mid-cell must not lose the final progress state."""

    def test_serial_raise_still_finishes_progress(self, grid_config, tmp_path):
        progress = RecordingProgress()
        with pytest.raises(ValueError, match="boom"):
            run_grid(
                grid_config,
                cache_dir=tmp_path,
                max_workers=1,
                retries=0,
                on_error="raise",
                cell_fn=_failing_cell,
                progress=progress,
            )
        assert progress.started
        assert progress.finished

    def test_pooled_raise_still_finishes_progress(self, grid_config, tmp_path):
        progress = RecordingProgress()
        with pytest.raises(ValueError, match="boom"):
            run_grid(
                grid_config,
                cache_dir=tmp_path,
                max_workers=2,
                retries=0,
                on_error="raise",
                cell_fn=_failing_cell,
                progress=progress,
            )
        assert progress.finished

    def test_stream_reporter_renders_final_line_on_error(
        self, grid_config, tmp_path
    ):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="boom"):
            run_grid(
                grid_config,
                cache_dir=tmp_path,
                max_workers=2,
                retries=0,
                on_error="raise",
                cell_fn=_failing_cell,
                progress=ProgressReporter(stream=stream, label="cells"),
            )
        rendered = stream.getvalue()
        assert rendered.endswith("\n")
        assert "done" in rendered.splitlines()[-1]


class TestRunGridTimeseries:
    def test_summary_and_file(self, grid_config, tmp_path):
        path = tmp_path / "ts" / "run.jsonl"
        result = run_grid(
            grid_config,
            cache_dir=tmp_path / "cells",
            max_workers=2,
            timeseries=path,
            sample_interval_s=0.0,
        )
        summary = result.timeseries_summary
        assert summary is not None
        assert summary["path"] == str(path)
        assert summary["tasks_scheduled"] == (
            len(result.records) * grid_config.num_tasks
        )
        assert summary["tasks_per_s"] > 0
        header, samples = read_timeseries(path)
        assert header["label"] == "run-grid"
        assert samples
        assert samples[-1]["metrics"]["cells_done"] == result.total_cells

    def test_no_timeseries_means_no_summary(self, grid_config, tmp_path):
        result = run_grid(grid_config, cache_dir=tmp_path)
        assert result.timeseries_summary is None

    def test_log_closed_and_valid_after_error(self, grid_config, tmp_path):
        path = tmp_path / "ts.jsonl"
        with pytest.raises(ValueError, match="boom"):
            run_grid(
                grid_config,
                cache_dir=tmp_path / "cells",
                max_workers=1,
                retries=0,
                on_error="raise",
                cell_fn=_failing_cell,
                timeseries=path,
            )
        # the finally path forced a final sample and closed the file
        header, samples = read_timeseries(path)
        assert header["schema"] == "repro-timeseries/1"
        assert samples


class TestTimeouts:
    def test_timeout_quarantines_slow_cells(self, tmp_path):
        # Needs >= 2 pending cells: a single cell takes the serial
        # path, which cannot interrupt a running cell and ignores
        # timeout_s.
        config = _single_cell_config(
            heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO)
        )
        result = run_grid(
            config,
            cache_dir=tmp_path,
            max_workers=2,
            timeout_s=0.1,
            retries=0,
            cell_fn=_sleepy_cell,
        )
        assert not result.ok
        assert len(result.quarantined) == 2
        assert all("timeout" in q.error.lower() for q in result.quarantined)
        assert result.records == ()


def _sleepy_cell(config):
    import time

    time.sleep(1.0)
    return run_experiment(config)


class TestBackendConfigIdentity:
    def test_default_backend_keeps_legacy_cache_keys(self):
        config = _single_cell_config()
        assert "backend" not in config_to_dict(config)
        assert cell_key(config) == cell_key(
            dataclasses.replace(config, backend="incremental")
        )

    def test_non_default_backend_is_recorded(self):
        config = _single_cell_config(backend="batched")
        assert config_to_dict(config)["backend"] == "batched"
        assert cell_key(config) != cell_key(_single_cell_config())

    def test_unknown_backend_rejected_at_config_time(self):
        from repro.exceptions import UnknownBackendError

        with pytest.raises(UnknownBackendError):
            _single_cell_config(backend="compiled")

    def test_backend_does_not_change_records(self, grid_config):
        base = run_experiment(grid_config)
        for backend in ("reference", "batched"):
            assert (
                run_experiment(dataclasses.replace(grid_config, backend=backend))
                == base
            )
