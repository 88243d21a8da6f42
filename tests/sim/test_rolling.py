"""Tests for the rolling-horizon serving loop and arrival processes."""

import numpy as np
import pytest

from repro.etc.generation import generate_ensemble, generate_ensemble_into
from repro.etc.store import ETCStore
from repro.exceptions import (
    ConfigurationError,
    ETCShapeError,
    ETCValueError,
    SimulationError,
)
from repro.heuristics import get_heuristic
from repro.obs import CollectingTracer, use_tracer
from repro.obs.timeseries import read_timeseries
from repro.sim.arrivals import (
    ARRIVAL_PROCESSES,
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
    make_arrival_process,
)
from repro.sim.faults import FaultConfig, FaultEvent, FaultPlan, generate_fault_plan
from repro.sim import rolling
from repro.sim.executor import MachineExecutor
from repro.sim.rolling import (
    EnsembleTaskSource,
    RollingSampler,
    RollingSimulation,
    StoreTaskSource,
    calibrate_rate,
)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_poisson_mean_rate(self):
        gen = np.random.default_rng(0)
        gaps = PoissonArrivals(rate=4.0).gaps(50_000, gen)
        assert gaps.min() >= 0
        assert 1.0 / gaps.mean() == pytest.approx(4.0, rel=0.05)

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)

    def test_bursty_preserves_overall_mean_rate(self):
        gen = np.random.default_rng(1)
        process = BurstyArrivals(rate=2.0, burst_factor=10.0, burst_fraction=0.6)
        gaps = process.gaps(200_000, gen)
        assert 1.0 / gaps.mean() == pytest.approx(2.0, rel=0.05)

    def test_bursty_is_actually_clumpier_than_poisson(self):
        """The gap distribution must be overdispersed vs exponential
        (same mean, higher coefficient of variation)."""
        gen = np.random.default_rng(2)
        bursty = BurstyArrivals(rate=1.0, burst_factor=16.0).gaps(100_000, gen)
        cv = bursty.std() / bursty.mean()
        assert cv > 1.2  # exponential has cv == 1

    def test_bursty_state_survives_chunked_draws(self):
        one = BurstyArrivals(rate=1.0)
        two = BurstyArrivals(rate=1.0)
        whole = one.gaps(1000, np.random.default_rng(3))
        gen = np.random.default_rng(3)
        parts = np.concatenate([two.gaps(137, gen), two.gaps(500, gen),
                                two.gaps(363, gen)])
        np.testing.assert_array_equal(whole, parts)

    def test_bursty_reset_restarts_the_phase(self):
        process = BurstyArrivals(rate=1.0)
        first = process.gaps(500, np.random.default_rng(4))
        process.reset()
        again = process.gaps(500, np.random.default_rng(4))
        np.testing.assert_array_equal(first, again)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -1.0},
            {"rate": 1.0, "burst_factor": 1.0},
            {"rate": 1.0, "burst_fraction": 0.0},
            {"rate": 1.0, "burst_fraction": 1.0},
            {"rate": 1.0, "mean_burst": 0.5},
        ],
    )
    def test_bursty_validates(self, kwargs):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(**kwargs)

    def test_trace_cycles(self):
        process = TraceArrivals([0.5, 1.0, 0.25])
        gaps = process.gaps(7, np.random.default_rng(0))
        np.testing.assert_array_equal(
            gaps, [0.5, 1.0, 0.25, 0.5, 1.0, 0.25, 0.5]
        )

    def test_trace_reset(self):
        process = TraceArrivals([1.0, 2.0])
        process.gaps(1, np.random.default_rng(0))
        process.reset()
        assert process.gaps(1, np.random.default_rng(0))[0] == 1.0

    def test_trace_from_file(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("# recorded gaps\n0.5\n\n1.5  # tail comment\n")
        process = TraceArrivals.from_file(path)
        np.testing.assert_array_equal(process.trace_gaps, [0.5, 1.5])

    def test_trace_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ConfigurationError):
            TraceArrivals.from_file(path)

    def test_trace_validates(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([])
        with pytest.raises(ConfigurationError):
            TraceArrivals([1.0, -2.0])
        with pytest.raises(ConfigurationError):
            TraceArrivals([np.inf])

    def test_factory_builds_each_kind(self):
        assert isinstance(make_arrival_process("poisson", 2.0), PoissonArrivals)
        assert isinstance(make_arrival_process("bursty", 2.0), BurstyArrivals)
        trace = make_arrival_process("trace", trace_gaps=[1.0])
        assert isinstance(trace, TraceArrivals)

    def test_factory_rejects_unknown_and_missing_trace(self):
        with pytest.raises(ConfigurationError):
            make_arrival_process("weibull", 1.0)
        with pytest.raises(ConfigurationError):
            make_arrival_process("trace", 1.0)

    def test_registry_names(self):
        assert ARRIVAL_PROCESSES == ("poisson", "bursty", "trace")


# ----------------------------------------------------------------------
# Task sources
# ----------------------------------------------------------------------
class TestTaskSources:
    def test_ensemble_source_matches_eager_ensemble(self):
        source = EnsembleTaskSource(
            100, 5, tasks_per_instance=16, rng=9, window=3
        )
        rows = np.concatenate(list(source.chunks()))
        eager = generate_ensemble(7, 16, 5, rng=9)
        expected = np.concatenate([m.values for m in eager])[:100]
        np.testing.assert_array_equal(rows, expected)
        assert rows.shape == (100, 5)

    def test_ensemble_source_trims_to_total(self):
        source = EnsembleTaskSource(10, 3, tasks_per_instance=8, rng=0)
        chunks = list(source.chunks())
        assert sum(c.shape[0] for c in chunks) == 10

    def test_ensemble_source_validates(self):
        with pytest.raises(ConfigurationError):
            EnsembleTaskSource(0, 4)
        with pytest.raises(ConfigurationError):
            EnsembleTaskSource(4, 0)
        with pytest.raises(ConfigurationError):
            EnsembleTaskSource(4, 4, tasks_per_instance=0)

    def test_store_source_roundtrip(self, tmp_path):
        store = ETCStore(tmp_path / "store")
        generate_ensemble_into(store, "k", 4, 8, 3, rng=11)
        try:
            stored = np.concatenate(
                list(StoreTaskSource(store, "k", window=2).chunks())
            )
        finally:
            store.close()
        direct = EnsembleTaskSource(32, 3, tasks_per_instance=8, rng=11)
        np.testing.assert_array_equal(
            stored, np.concatenate(list(direct.chunks()))
        )

    def test_store_source_bounds_num_tasks(self, tmp_path):
        store = ETCStore(tmp_path / "store")
        generate_ensemble_into(store, "k", 2, 4, 3, rng=0)
        try:
            with pytest.raises(ConfigurationError):
                StoreTaskSource(store, "k", num_tasks=9)
            source = StoreTaskSource(store, "k", num_tasks=5)
            rows = np.concatenate(list(source.chunks()))
        finally:
            store.close()
        assert rows.shape == (5, 3)

    def test_calibrate_rate_scales_with_utilization(self):
        chunk = np.full((10, 4), 2.0)
        assert calibrate_rate(chunk, 1.0) == pytest.approx(4 / 2.0)
        assert calibrate_rate(chunk, 0.5) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            calibrate_rate(chunk, 0.0)


# ----------------------------------------------------------------------
# The rolling loop
# ----------------------------------------------------------------------
def make_sim(tasks=300, machines=5, seed=42, **kwargs):
    source = EnsembleTaskSource(
        tasks, machines, tasks_per_instance=32, rng=seed, window=4
    )
    defaults = dict(horizon=kwargs.pop("horizon", None), rng=7)
    if defaults["horizon"] is None:
        # A horizon that yields multi-task batches at the calibrated
        # rate: ~20 tasks per mapping event.
        sample = EnsembleTaskSource(
            32, machines, tasks_per_instance=32, rng=seed
        )
        rate = calibrate_rate(next(sample.chunks()))
        defaults["horizon"] = 20.0 / rate
    defaults.update(kwargs)
    return RollingSimulation(source, get_heuristic("min-min"), **defaults)


def all_down_plan(machines, fail_at=1.0, recover_at=1e6):
    events = tuple(
        FaultEvent(time=fail_at, kind="fail", machine=m) for m in machines
    ) + tuple(
        FaultEvent(time=recover_at, kind="recover", machine=m) for m in machines
    )
    return FaultPlan(machines=tuple(machines), horizon=recover_at, events=events)


class TestRollingSimulation:
    def test_serves_every_task(self):
        result = make_sim().run()
        assert result.completed == 300
        assert result.dropped == ()
        assert result.dispatches == 300
        assert result.horizons >= 2
        assert result.batch_max >= result.mean_batch >= 1.0
        assert result.makespan > 0
        assert result.peak_backlog >= 1

    def test_deterministic_repeat(self):
        first = make_sim().run()
        second = make_sim().run()
        assert first == second

    def test_refinement_cap_modes(self):
        plain = make_sim(refine_iterations=1).run()
        full = make_sim(refine_iterations=0 or None).run()
        assert plain.completed == full.completed == 300
        assert plain.refine_iterations == 1
        assert full.refine_iterations is None

    def test_explicit_arrival_process(self):
        result = make_sim(
            arrival=BurstyArrivals(rate=0.001), horizon=20_000.0
        ).run()
        assert result.completed == 300
        assert result.arrival_rate == pytest.approx(0.001)

    def test_arrival_factory_gets_calibrated_rate(self):
        seen = {}

        def factory(rate):
            seen["rate"] = rate
            return PoissonArrivals(rate)

        result = make_sim(arrival=factory, utilization=0.5).run()
        assert result.completed == 300
        assert seen["rate"] == pytest.approx(result.arrival_rate)

    def test_store_and_ensemble_sources_agree(self, tmp_path):
        store = ETCStore(tmp_path / "store")
        generate_ensemble_into(store, "k", 10, 32, 5, rng=42)
        try:
            source = StoreTaskSource(store, "k", num_tasks=300, window=4)
            horizon = make_sim().horizon
            from_store = RollingSimulation(
                source, get_heuristic("min-min"), horizon=horizon, rng=7
            ).run()
        finally:
            store.close()
        assert from_store == make_sim().run()

    def test_faulty_run_accounts_for_every_task(self):
        machines = [f"m{j}" for j in range(5)]
        base = make_sim()
        est = 300.0 / 0.001
        plan = generate_fault_plan(
            machines,
            FaultConfig(failure_rate=8.0 / est, mean_downtime=0.02 * est),
            est,
            rng=3,
        )
        result = make_sim(
            arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
            plan=plan, recovery="remap", retry_budget=2,
        ).run()
        assert result.completed + len(result.dropped) == 300
        assert result.failures > 0
        assert result.recoveries > 0

    @pytest.mark.parametrize("recovery", ["requeue", "remap"])
    def test_both_recovery_policies_complete(self, recovery):
        machines = [f"m{j}" for j in range(5)]
        est = 300.0 / 0.001
        plan = generate_fault_plan(
            machines,
            FaultConfig(failure_rate=5.0 / est, mean_downtime=0.02 * est),
            est,
            rng=5,
        )
        result = make_sim(
            arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
            plan=plan, recovery=recovery, retry_budget=8,
        ).run()
        assert result.completed + len(result.dropped) == 300

    def test_zero_retry_budget_reports_drops(self):
        """A victim with no budget is dropped and *reported*."""
        machines = [f"m{j}" for j in range(5)]
        # Definitely interrupt work: fail everything mid-run, recover later.
        plan = all_down_plan(machines, fail_at=60_000.0, recover_at=120_000.0)
        result = make_sim(
            arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
            plan=plan, recovery="remap", retry_budget=0,
        ).run()
        assert result.completed + len(result.dropped) == 300
        assert result.failures == 5
        assert len(result.dropped) == result.aborted  # budget 0: every abort drops

    def test_dropped_tasks_free_their_rows(self, monkeypatch):
        """A dropped task's ETC row is freed as a completed task's is:
        the rows handed to the executor are empty once the run ends."""
        handed = []

        class CapturingExecutor(MachineExecutor):
            def __init__(self, sim, rows, *args, **kwargs):
                handed.append(rows)
                super().__init__(sim, rows, *args, **kwargs)

        monkeypatch.setattr(rolling, "MachineExecutor", CapturingExecutor)
        machines = [f"m{j}" for j in range(5)]
        plan = all_down_plan(machines, fail_at=60_000.0, recover_at=120_000.0)
        result = make_sim(
            arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
            plan=plan, recovery="remap", retry_budget=0,
        ).run()
        assert result.dropped
        assert len(handed) == 1 and handed[0] == {}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0])
    def test_invalid_task_rows_are_rejected(self, monkeypatch, bad):
        """Every window is checked on arrival, not only the first (the
        horizon batches skip the ETC constructor's checks)."""
        sim = make_sim(tasks=200)
        original = sim.source.chunks

        def bad_chunks():
            for k, chunk in enumerate(original()):
                if k == 1:
                    chunk = chunk.copy()
                    chunk[-1, 0] = bad
                yield chunk

        monkeypatch.setattr(sim.source, "chunks", bad_chunks)
        with pytest.raises(ETCValueError):
            sim.run()

    def test_chunks_of_the_wrong_width_are_rejected(self, monkeypatch):
        sim = make_sim(tasks=50)
        original = sim.source.chunks
        monkeypatch.setattr(
            sim.source, "chunks", lambda: (chunk[:, :-1] for chunk in original())
        )
        with pytest.raises(ETCShapeError):
            sim.run()

    @pytest.mark.parametrize("recovery", ["requeue", "remap"])
    def test_fault_counters_flow_through_tracer(self, recovery):
        machines = [f"m{j}" for j in range(5)]
        est = 300.0 / 0.001
        plan = generate_fault_plan(
            machines,
            FaultConfig(
                failure_rate=12.0 / est,
                mean_downtime=0.02 * est,
                slowdown_rate=4.0 / est,
                mean_slowdown=0.02 * est,
            ),
            est,
            rng=9,
        )
        with use_tracer(CollectingTracer()) as tracer:
            result = make_sim(
                arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
                plan=plan, recovery=recovery, retry_budget=1,
            ).run()
        assert result.failures and result.retries and result.dropped
        counters = tracer.counters.as_dict()
        assert counters["sim.failures"] == result.failures
        assert counters["sim.recoveries"] == result.recoveries
        assert counters["sim.slowdowns"] == result.slowdowns
        assert counters["sim.retries"] == result.retries
        assert counters["sim.dropped"] == len(result.dropped)
        requeued = result.retries if recovery == "requeue" else 0
        assert counters.get("sim.requeues", 0) == requeued
        assert not [name for name in counters if name.startswith("rolling.")]
        assert len(tracer.events_of("sim.fault.fail")) == result.failures
        assert len(tracer.events_of("sim.fault.recover")) == result.recoveries
        assert len(tracer.events_of("sim.fault.retry")) == result.retries
        assert len(tracer.events_of("sim.fault.drop")) == len(result.dropped)

    def test_long_total_outage_defers_to_recovery(self):
        """All machines down for a very long stretch must not exhaust the
        event budget (the rolling analogue of the fault-poll bugfix)."""
        machines = [f"m{j}" for j in range(5)]
        plan = all_down_plan(machines, fail_at=1.0, recover_at=5e8)
        result = make_sim(
            arrival=PoissonArrivals(rate=0.001), horizon=20_000.0,
            plan=plan, recovery="remap", retry_budget=3,
            backoff_base=1e-3,
        ).run()
        assert result.completed + len(result.dropped) == 300
        assert result.makespan > 5e8  # work resumed after the outage

    def test_spans_one_per_horizon(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = make_sim().run()
        spans = [s for s in tracer.spans if s.kind == "rolling.horizon"]
        assert len(spans) == result.horizons
        assert [s.fields["index"] for s in spans] == list(
            range(1, result.horizons + 1)
        )
        runs = [s for s in tracer.spans if s.kind == "rolling.run"]
        assert len(runs) == 1
        assert runs[0].fields["tasks"] == 300

    def test_sampler_writes_valid_timeseries(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        sampler = RollingSampler(path, total_tasks=300, interval_s=0.0)
        result = make_sim().run(sampler=sampler)
        sampler.close()
        header, samples = read_timeseries(path)
        assert header["label"] == ""
        assert samples, "expected at least one sample"
        final = samples[-1]["metrics"]
        assert final["tasks_scheduled"] == result.dispatches
        assert final["tasks_completed"] == result.completed
        assert final["tasks_arrived"] == 300
        assert final["rss_bytes"] > 0
        summary = sampler.summary()
        assert summary["tasks_scheduled"] == result.dispatches
        assert summary["tasks_per_s"] >= 0

    def test_validates_configuration(self):
        source = EnsembleTaskSource(10, 3, rng=0)
        heuristic = get_heuristic("min-min")
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, horizon=0.0)
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, refine_iterations=0)
        for cap in (2.5, True, "2"):
            with pytest.raises(ConfigurationError, match="refine_iterations"):
                RollingSimulation(source, heuristic, refine_iterations=cap)
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, recovery="panic")
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, retry_budget=-1)
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, backoff_base=0.0)
        plan = all_down_plan(["a", "b"])
        with pytest.raises(ConfigurationError):
            RollingSimulation(source, heuristic, plan=plan)

    def test_accounting_failure_raises(self, monkeypatch):
        """A loop that loses tasks must raise, not return silently."""
        sim = make_sim(tasks=50)
        original = sim.source.chunks

        def short_chunks():
            for chunk in original():
                yield chunk[:-5]  # drop five tasks on the floor

        monkeypatch.setattr(sim.source, "chunks", short_chunks)
        with pytest.raises(SimulationError):
            sim.run()
