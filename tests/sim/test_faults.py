"""Unit tests for fault-plan generation and fault-tolerant execution."""

import math

import numpy as np
import pytest

from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics import get_heuristic
from repro.obs import CollectingTracer, use_tracer
from repro.sim.faults import (
    FaultConfig,
    FaultEvent,
    FaultPlan,
    generate_fault_plan,
)
from repro.sim.hcsystem import (
    RECOVERY_POLICIES,
    FaultTolerantHCSystem,
    HCSystem,
)


@pytest.fixture
def etc():
    return generate_range_based(20, 4, rng=0)


@pytest.fixture
def mapping(etc):
    return get_heuristic("min-min").map_tasks(etc)


def make_plan(etc, mapping, *, failures=3.0, seed=7, slowdowns=0.0):
    horizon = mapping.makespan()
    config = FaultConfig(
        failure_rate=failures / horizon,
        mean_downtime=0.05 * horizon,
        slowdown_rate=slowdowns / horizon,
        mean_slowdown=0.05 * horizon if slowdowns else 0.0,
    )
    return generate_fault_plan(
        etc.machines, config, horizon, rng=np.random.default_rng(seed)
    )


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(failure_rate=-1.0)

    def test_failures_need_positive_downtime(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(failure_rate=0.1)

    def test_slowdowns_need_factor_above_one(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(slowdown_rate=0.1, mean_slowdown=1.0, slowdown_factor=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "failure_rate", "mean_downtime", "slowdown_rate", "slowdown_factor",
        "mean_slowdown",
    ])
    def test_rejects_non_finite_parameters(self, field, bad):
        """NaN passes every ``< 0`` check, so each field is checked finite,
        also when its process is disabled."""
        with pytest.raises(ConfigurationError, match=field):
            FaultConfig(**{field: bad})


class TestFaultPlan:
    def test_same_seed_same_plan(self, etc, mapping):
        a = make_plan(etc, mapping, seed=3)
        b = make_plan(etc, mapping, seed=3)
        assert a == b
        assert a.signature() == b.signature()

    def test_different_seed_different_signature(self, etc, mapping):
        a = make_plan(etc, mapping, seed=3)
        b = make_plan(etc, mapping, seed=4)
        assert a.signature() != b.signature()

    def test_every_failure_has_a_recovery(self, etc, mapping):
        plan = make_plan(etc, mapping)
        for machine in etc.machines:
            kinds = [e.kind for e in plan.events_for(machine)]
            assert kinds.count("fail") == kinds.count("recover")

    def test_events_time_ordered(self, etc, mapping):
        plan = make_plan(etc, mapping, slowdowns=2.0)
        times = [e.time for e in plan.events]
        assert times == sorted(times)

    def test_zero_rates_give_empty_plan(self, etc):
        plan = generate_fault_plan(etc.machines, FaultConfig(), 100.0, rng=0)
        assert plan.is_empty

    def test_rejects_unknown_machine_event(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(("m0",), 10.0, (FaultEvent(1.0, "fail", "m9"),))

    def test_rejects_bad_kind_and_time(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, "explode", "m0")
        with pytest.raises(ConfigurationError):
            FaultEvent(-1.0, "fail", "m0")

    @pytest.mark.parametrize(
        "time, kind, factor",
        [
            (math.nan, "fail", 1.0),
            (math.inf, "fail", 1.0),
            (math.inf, "recover", 1.0),
            (1.0, "slow", math.nan),
            (1.0, "slow", math.inf),
            (1.0, "slow", -math.inf),
            (1.0, "slow", 0.0),
        ],
        ids=["nan-time", "inf-fail", "inf-recover", "nan-factor", "inf-factor",
             "neg-inf-factor", "zero-factor"],
    )
    def test_rejects_non_finite_time_and_factor(self, time, kind, factor):
        with pytest.raises(ConfigurationError):
            FaultEvent(time, kind, "m0", factor=factor)

    def test_rejects_nonpositive_horizon(self, etc):
        with pytest.raises(ConfigurationError):
            generate_fault_plan(etc.machines, FaultConfig(), 0.0, rng=0)


class TestFaultTolerantHCSystem:
    def test_rejects_unknown_policy(self, etc, mapping):
        plan = make_plan(etc, mapping)
        with pytest.raises(ConfigurationError):
            FaultTolerantHCSystem(etc, plan, policy="pray")

    def test_rejects_mismatched_machines(self, etc):
        plan = generate_fault_plan(("z",), FaultConfig(), 10.0, rng=0)
        with pytest.raises(ConfigurationError):
            FaultTolerantHCSystem(etc, plan)

    def test_backoff_is_bounded_doubling(self, etc, mapping):
        plan = make_plan(etc, mapping)
        system = FaultTolerantHCSystem(
            etc, plan, backoff_base=1.0, backoff_cap=5.0
        )
        assert [system.backoff_delay(a) for a in (1, 2, 3, 4, 5)] == [
            1.0, 2.0, 4.0, 5.0, 5.0,
        ]

    def test_empty_plan_matches_fault_free_execution(self, etc, mapping):
        plan = generate_fault_plan(
            etc.machines, FaultConfig(), mapping.makespan(), rng=0
        )
        baseline = HCSystem(etc).execute(mapping)
        result = FaultTolerantHCSystem(etc, plan).execute(mapping)
        assert result.failures == 0 and not result.dropped
        key = lambda r: (r.task, r.machine, r.start, r.finish)  # noqa: E731
        assert sorted(map(key, result.trace.records)) == sorted(
            map(key, baseline.records)
        )

    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    def test_recovers_all_tasks_with_budget(self, etc, mapping, policy):
        plan = make_plan(etc, mapping)
        horizon = mapping.makespan()
        result = FaultTolerantHCSystem(
            etc, plan, policy=policy, retry_budget=12,
            backoff_base=0.01 * horizon,
        ).execute(mapping)
        assert result.completed == mapping.num_assigned
        assert not result.dropped
        assert result.failures > 0
        assert result.makespan >= horizon

    def test_deterministic_trace(self, etc, mapping):
        plan = make_plan(etc, mapping)
        horizon = mapping.makespan()
        run = lambda: FaultTolerantHCSystem(  # noqa: E731
            etc, plan, retry_budget=8, backoff_base=0.01 * horizon
        ).execute(mapping)
        a, b = run(), run()
        assert a.trace.records == b.trace.records
        assert (a.failures, a.retries, a.requeues) == (
            b.failures, b.retries, b.requeues,
        )

    def test_zero_budget_drops_interrupted_tasks(self, etc, mapping):
        plan = make_plan(etc, mapping, failures=6.0)
        horizon = mapping.makespan()
        result = FaultTolerantHCSystem(
            etc, plan, retry_budget=0, backoff_base=0.01 * horizon
        ).execute(mapping)
        assert result.dropped  # this plan interrupts at least one task
        assert result.completed + len(result.dropped) == mapping.num_assigned
        assert set(result.dropped) <= set(etc.tasks)

    def test_counters_and_histogram_flow_through_tracer(self, etc, mapping):
        plan = make_plan(etc, mapping)
        horizon = mapping.makespan()
        with use_tracer(CollectingTracer()) as tracer:
            result = FaultTolerantHCSystem(
                etc, plan, retry_budget=12, backoff_base=0.01 * horizon
            ).execute(mapping)
        counters = tracer.counters.as_dict()
        assert counters["sim.failures"] == result.failures
        assert counters["sim.retries"] == result.retries
        assert counters["sim.requeues"] == result.requeues
        hist = tracer.histograms.as_dict()["sim.requeue_latency"]
        assert hist.count == result.retries
        assert hist.min >= 0.0
        assert tracer.events_of("sim.fault.fail")
        assert tracer.events_of("sim.fault.recover")

    def test_slowdown_stretches_makespan(self, etc, mapping):
        horizon = mapping.makespan()
        config = FaultConfig(
            slowdown_rate=2.0 / horizon,
            slowdown_factor=4.0,
            mean_slowdown=0.2 * horizon,
        )
        plan = generate_fault_plan(
            etc.machines, config, horizon, rng=np.random.default_rng(11)
        )
        assert plan.num_slowdowns > 0
        result = FaultTolerantHCSystem(etc, plan).execute(mapping)
        assert result.completed == mapping.num_assigned
        assert result.slowdowns > 0
        assert result.makespan >= horizon
        baseline = mapping.machine_finish_times()
        realised = result.finish_times()
        # Some machine started work while degraded and finished later.
        assert any(
            realised[m] > baseline[m] + 1e-9 for m in etc.machines
        )

    def test_remap_moves_stranded_work_off_failed_machine(self, etc, mapping):
        plan = make_plan(etc, mapping, failures=4.0)
        horizon = mapping.makespan()
        requeue = FaultTolerantHCSystem(
            etc, plan, policy="requeue", retry_budget=12,
            backoff_base=0.01 * horizon,
        ).execute(mapping)
        remap = FaultTolerantHCSystem(
            etc, plan, policy="remap", retry_budget=12,
            backoff_base=0.01 * horizon,
        ).execute(mapping)
        # Remap relocates queued tasks on every failure, so it requeues
        # at least as often as the stay-put policy.
        assert remap.requeues >= requeue.requeues
        assert remap.completed == mapping.num_assigned
        moved = [
            r for r in remap.trace.records
            if mapping.to_dict()[r.task] != r.machine
        ]
        assert moved  # at least one task actually ran elsewhere


class TestLongOutage:
    def test_total_outage_waits_for_recovery_not_polls(self, etc, mapping):
        """Regression: with every machine down, retries used to repoll
        every ``backoff_base`` — a long outage burned millions of events
        and exhausted ``max_events``.  The retry must jump straight to
        the next known recovery time from the plan."""
        fail_at = 1.0
        recover_at = 1.0e6 * mapping.makespan()
        events = tuple(
            FaultEvent(time=fail_at, kind="fail", machine=m)
            for m in etc.machines
        ) + tuple(
            FaultEvent(time=recover_at, kind="recover", machine=m)
            for m in etc.machines
        )
        plan = FaultPlan(
            machines=tuple(etc.machines), horizon=recover_at, events=events
        )
        system = FaultTolerantHCSystem(
            etc, plan, policy="remap", backoff_base=0.5
        )
        result = system.execute(mapping)
        assert not result.dropped
        assert len(result.trace) == etc.num_tasks
        assert result.failures == etc.num_machines
        assert result.recoveries == etc.num_machines
        # Work genuinely resumed after the outage ended.
        assert result.trace.makespan() > recover_at


class TestInitialReady:
    """A machine never starts work before its initial ready time, even
    when a fault moves work onto it or brings it back early."""

    @staticmethod
    def plan(etc, *events):
        return FaultPlan(
            machines=tuple(etc.machines),
            horizon=max(e.time for e in events),
            events=tuple(events),
        )

    def test_requeue_recovery_waits_for_ready_time(self):
        etc = ETCMatrix(np.array([[1.0, 100.0], [1.0, 100.0], [1000.0, 1.0]]))
        ready = [0.0, 50.0]
        mapping = get_heuristic("mct").map_tasks(etc, ready)
        assert mapping.to_dict()["t2"] == "m1"
        plan = self.plan(
            etc, FaultEvent(1.0, "fail", "m1"), FaultEvent(2.0, "recover", "m1")
        )
        result = FaultTolerantHCSystem(
            etc, plan, policy="requeue", initial_ready=ready
        ).execute(mapping)
        fault_free = HCSystem(etc, ready).execute(mapping)
        assert result.trace.execution_of("t2").start == 50.0
        assert result.trace.execution_of("t2") == fault_free.execution_of("t2")

    def test_remap_target_waits_for_ready_time(self):
        etc = ETCMatrix(np.array([[1.0, 1.0, 9.0]] * 3))
        ready = [0.0, 50.0, 0.0]
        mapping = get_heuristic("mct").map_tasks(etc, ready)
        assert set(mapping.to_dict().values()) == {"m0"}
        plan = self.plan(
            etc, FaultEvent(1.0, "fail", "m0"), FaultEvent(200.0, "recover", "m0")
        )
        result = FaultTolerantHCSystem(
            etc, plan, policy="remap", initial_ready=ready
        ).execute(mapping)
        assert result.completed == 3
        for record in result.trace.records:
            assert record.start >= ready[etc.machine_index(record.machine)]
        # t1 is running on m0 when it fails and t2 is queued behind it.
        # m1 is free only at 50, so both go to m2: t2 at once (done by
        # 10), t1 after its backoff (done by 19).
        moved = {
            r.task: (r.machine, r.finish)
            for r in result.trace.records
            if r.task != "t0"
        }
        assert moved == {"t1": ("m2", 19.0), "t2": ("m2", 10.0)}
