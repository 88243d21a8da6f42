"""Decision-identity goldens for the discrete-event engine.

The rolling, requeue-fault, batch and ``sim.dispatch`` values were
captured from the engine that queued frozen ``Event`` objects, before
the queue became a tuple heap and the rolling loop began to dispatch
from index columns.  The immediate-mode, initial-ready and remap-fault
values were captured from the simulators as they stood before they
shared one machine executor.  Any change to event order,
tie handling among simultaneous events, the horizon commit, or the
float arithmetic of a finish time moves at least one of them.  They
are exact on purpose: float literals round-trip through ``repr``, so
``==`` is the right comparison.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics import get_heuristic
from repro.obs import CollectingTracer, use_tracer
from repro.sim.arrivals import make_arrival_process
from repro.sim.faults import FaultConfig, FaultEvent, FaultPlan, generate_fault_plan
from repro.sim.hcsystem import (
    ArrivalWorkload,
    DynamicHCSimulation,
    FaultTolerantHCSystem,
    HCSystem,
    MCTOnline,
    SWAOnline,
)
from repro.sim.rolling import EnsembleTaskSource, RollingSimulation, calibrate_rate

MACHINES = 4
TASKS = 240
BATCH = 24


def _plan(seed: int, *, failures: float, slowdowns: float):
    """A seeded fault plan spanning the expected run length."""
    sample = generate_range_based(BATCH, MACHINES, rng=np.random.default_rng(seed))
    duration = TASKS / calibrate_rate(sample.values)
    return generate_fault_plan(
        [f"m{j}" for j in range(MACHINES)],
        FaultConfig(
            failure_rate=failures / duration,
            mean_downtime=0.04 * duration,
            slowdown_rate=slowdowns / duration,
            mean_slowdown=0.05 * duration if slowdowns else 0.0,
        ),
        duration,
        rng=np.random.default_rng(seed + 1),
    )


def _rolling(scenario: str, tasks: int = TASKS) -> RollingSimulation:
    source = EnsembleTaskSource(tasks, MACHINES, tasks_per_instance=BATCH, rng=11)
    if scenario == "remap":
        return RollingSimulation(
            source,
            get_heuristic("min-min"),
            horizon=6e5,
            arrival=lambda rate: make_arrival_process("bursty", rate),
            refine_iterations=2,
            rng=12,
            plan=_plan(13, failures=2.0, slowdowns=2.0),
            recovery="remap",
            retry_budget=3,
            backoff_base=1e5,
        )
    if scenario == "requeue":
        return RollingSimulation(
            source,
            get_heuristic("mct"),
            horizon=9e5,
            refine_iterations=None,
            rng=22,
            plan=_plan(23, failures=3.0, slowdowns=0.0),
            recovery="requeue",
            retry_budget=1,
            backoff_base=1e5,
        )
    assert scenario == "poisson"
    return RollingSimulation(
        source,
        get_heuristic("sufferage"),
        horizon=4e5,
        refine_iterations=3,
        rng=32,
    )


ROLLING_GOLDEN = {
    "remap": {
        "total_tasks": 240,
        "completed": 240,
        "dropped": (),
        "arrival_rate": 1.0748316804580697e-05,
        "horizon": 600000.0,
        "refine_iterations": 2,
        "horizons": 44,
        "dispatches": 244,
        "batch_max": 42,
        "makespan": 29369597.766745664,
        "sim_end": 32051797.959608532,
        "mean_queue_wait": 318668.053262537,
        "max_queue_wait": 2100643.8223481216,
        "mean_flow": 1391689.5073249633,
        "peak_backlog": 55,
        "failures": 5,
        "recoveries": 5,
        "slowdowns": 7,
        "aborted": 1,
        "retries": 1,
    },
    "requeue": {
        "total_tasks": 240,
        "completed": 240,
        "dropped": (),
        "arrival_rate": 1.0748316804580697e-05,
        "horizon": 900000.0,
        "refine_iterations": None,
        "horizons": 23,
        "dispatches": 240,
        "batch_max": 18,
        "makespan": 26958908.99039809,
        "sim_end": 26958908.99039809,
        "mean_queue_wait": 410085.0365318922,
        "max_queue_wait": 885287.9539920287,
        "mean_flow": 2990812.224659796,
        "peak_backlog": 57,
        "failures": 11,
        "recoveries": 11,
        "slowdowns": 0,
        "aborted": 10,
        "retries": 10,
    },
    "poisson": {
        "total_tasks": 240,
        "completed": 240,
        "dropped": (),
        "arrival_rate": 1.0748316804580697e-05,
        "horizon": 400000.0,
        "refine_iterations": 3,
        "horizons": 49,
        "dispatches": 240,
        "batch_max": 9,
        "makespan": 22313344.412557933,
        "sim_end": 22313344.412557933,
        "mean_queue_wait": 200164.4211999042,
        "max_queue_wait": 398585.4148035832,
        "mean_flow": 954274.1955957841,
        "peak_backlog": 23,
        "failures": 0,
        "recoveries": 0,
        "slowdowns": 0,
        "aborted": 0,
        "retries": 0,
    },
}


@pytest.mark.parametrize("scenario", sorted(ROLLING_GOLDEN))
def test_rolling_result_is_pinned(scenario):
    result = _rolling(scenario).run()
    assert dataclasses.asdict(result) == ROLLING_GOLDEN[scenario]


def _integer_etc(seed: int) -> ETCMatrix:
    """Small integer ETCs, so many events fall on the same instant and
    their FIFO order decides the outcome."""
    rng = np.random.default_rng(seed)
    return ETCMatrix(rng.integers(1, 6, (16, 3)).astype(np.float64))


FAULT_TOLERANT_GOLDEN = (
    [
        ("t13", "m0", 1.0),
        ("t3", "m1", 1.0),
        ("t1", "m2", 1.0),
        ("t8", "m2", 2.0),
        ("t2", "m0", 3.0),
        ("t11", "m2", 3.0),
        ("t5", "m1", 3.0),
        ("t7", "m1", 5.0),
        ("t6", "m0", 6.0),
        ("t15", "m2", 6.0),
        ("t9", "m1", 7.0),
        ("t0", "m0", 10.0),
        ("t10", "m2", 15.0),
        ("t4", "m1", 16.0),
        ("t12", "m2", 19.0),
        ("t14", "m1", 19.0),
    ],
    9,
    8,
    (),
)


def _finishes(records):
    return [(r.task, r.machine, r.finish) for r in records]


def _integer_fault_plan(etc, horizon):
    plan = generate_fault_plan(
        etc.machines,
        FaultConfig(
            failure_rate=3.0 / horizon,
            mean_downtime=0.05 * horizon,
            slowdown_rate=2.0 / horizon,
            mean_slowdown=0.05 * horizon,
        ),
        horizon,
        rng=np.random.default_rng(42),
    )
    # Whole-number fault times land on the instants integer tasks
    # finish, where event priority and FIFO order decide the outcome.
    return dataclasses.replace(
        plan,
        events=tuple(
            dataclasses.replace(e, time=float(np.ceil(e.time))) for e in plan.events
        ),
    )


def test_fault_tolerant_finishes_are_pinned():
    etc = _integer_etc(41)
    mapping = get_heuristic("min-min").map_tasks(etc)
    horizon = mapping.makespan()
    plan = _integer_fault_plan(etc, horizon)
    result = FaultTolerantHCSystem(
        etc, plan, retry_budget=8, backoff_base=0.01 * horizon
    ).execute(mapping)
    finishes = _finishes(result.trace.records)
    assert (finishes, result.failures, result.retries, result.dropped) == (
        FAULT_TOLERANT_GOLDEN
    )


FAULT_TOLERANT_REMAP_GOLDEN = (
    [
        ("t13", "m0", 1.0),
        ("t3", "m1", 1.0),
        ("t1", "m2", 1.0),
        ("t8", "m2", 2.0),
        ("t2", "m0", 3.0),
        ("t11", "m2", 3.0),
        ("t5", "m1", 3.24),
        ("t15", "m2", 4.12),
        ("t6", "m0", 6.0),
        ("t0", "m0", 10.0),
        ("t4", "m1", 13.0),
        ("t9", "m1", 15.0),
        ("t12", "m0", 16.119999999999997),
        ("t10", "m1", 20.0),
        ("t7", "m1", 22.0),
        ("t14", "m1", 25.0),
    ],
    9,
    6,
    21,
    (),
)


def test_fault_tolerant_remap_finishes_are_pinned():
    etc = _integer_etc(41)
    mapping = get_heuristic("min-min").map_tasks(etc)
    horizon = mapping.makespan()
    result = FaultTolerantHCSystem(
        etc,
        _integer_fault_plan(etc, horizon),
        policy="remap",
        retry_budget=8,
        backoff_base=0.01 * horizon,
    ).execute(mapping)
    assert (
        _finishes(result.trace.records),
        result.failures,
        result.retries,
        result.requeues,
        result.dropped,
    ) == FAULT_TOLERANT_REMAP_GOLDEN


TOTAL_OUTAGE_GOLDEN = (
    [
        ("t13", "m0", 1.0),
        ("t3", "m1", 1.0),
        ("t1", "m2", 1.0),
        ("t8", "m2", 2.0),
        ("t2", "m0", 3.0),
        ("t11", "m2", 3.0),
        ("t10", "m2", 9.0),
        ("t12", "m2", 13.0),
        ("t9", "m2", 16.0),
        ("t14", "m2", 20.0),
        ("t5", "m2", 22.0),
        ("t0", "m2", 27.0),
        ("t7", "m2", 32.0),
        ("t4", "m2", 37.0),
        ("t6", "m2", 42.0),
        ("t15", "m2", 43.0),
    ],
    3,
    3,
    3,
    10,
    3,
    (),
)


def test_fault_tolerant_remap_total_outage_is_pinned():
    """Every machine is down from t=3 to t=6: stranded tasks wait on
    their queue and retries jump to the next recovery in the plan."""
    etc = _integer_etc(41)
    mapping = get_heuristic("min-min").map_tasks(etc)
    events = (
        FaultEvent(1.0, "fail", "m1"),
        FaultEvent(3.0, "fail", "m0"),
        FaultEvent(3.0, "fail", "m2"),
        FaultEvent(4.0, "slow", "m0", factor=2.0),
        FaultEvent(6.0, "recover", "m2"),
        FaultEvent(9.0, "recover", "m0"),
        FaultEvent(9.0, "restore", "m0"),
        FaultEvent(12.0, "recover", "m1"),
    )
    plan = FaultPlan(machines=etc.machines, horizon=12.0, events=events)
    result = FaultTolerantHCSystem(
        etc, plan, policy="remap", retry_budget=2, backoff_base=0.5
    ).execute(mapping)
    assert (
        _finishes(result.trace.records),
        result.failures,
        result.recoveries,
        result.retries,
        result.requeues,
        result.aborted,
        result.dropped,
    ) == TOTAL_OUTAGE_GOLDEN


STATIC_READY_GOLDEN = [
    ("t13", "m0", 1.0),
    ("t14", "m0", 2.0),
    ("t3", "m2", 3.0),
    ("t2", "m0", 4.0),
    ("t7", "m2", 5.0),
    ("t6", "m1", 5.0),
    ("t5", "m0", 6.0),
    ("t0", "m1", 7.0),
    ("t4", "m2", 8.0),
    ("t8", "m0", 8.0),
    ("t10", "m1", 9.0),
    ("t12", "m0", 10.0),
    ("t15", "m1", 11.0),
    ("t1", "m2", 12.0),
    ("t11", "m0", 13.0),
    ("t9", "m1", 14.0),
]


def test_static_execution_with_initial_ready_is_pinned():
    etc = _integer_etc(71)
    ready = [0.0, 4.0, 2.0]
    mapping = get_heuristic("min-min").map_tasks(etc, ready)
    trace = HCSystem(etc, ready).execute(mapping)
    assert _finishes(trace.records) == STATIC_READY_GOLDEN


DYNAMIC_GOLDEN = [
    ("t15", "m2", 1.0),
    ("t7", "m1", 3.0),
    ("t14", "m0", 3.0),
    ("t8", "m0", 4.0),
    ("t10", "m2", 5.0),
    ("t2", "m1", 5.0),
    ("t4", "m0", 6.0),
    ("t5", "m1", 6.0),
    ("t1", "m2", 7.0),
    ("t13", "m0", 9.0),
    ("t3", "m2", 9.0),
    ("t9", "m1", 10.0),
    ("t6", "m0", 10.0),
    ("t11", "m1", 11.0),
    ("t0", "m0", 12.0),
    ("t12", "m2", 14.0),
]


def test_dynamic_batch_finishes_are_pinned():
    etc = _integer_etc(51)
    arrivals = np.random.default_rng(52).integers(0, 8, etc.num_tasks).tolist()
    workload = ArrivalWorkload(etc=etc, arrivals=tuple(map(float, arrivals)))
    trace = DynamicHCSimulation(
        workload, batch_heuristic=get_heuristic("min-min"), batch_interval=2.0
    ).run()
    assert _finishes(trace.records) == DYNAMIC_GOLDEN


IMMEDIATE_GOLDEN = {
    "mct": [
        ("t8", "m2", 2.0),
        ("t6", "m0", 3.0),
        ("t12", "m1", 3.0),
        ("t7", "m1", 6.0),
        ("t2", "m2", 7.0),
        ("t0", "m0", 8.0),
        ("t10", "m1", 9.0),
        ("t13", "m0", 9.0),
        ("t1", "m2", 11.0),
        ("t3", "m0", 12.0),
        ("t9", "m2", 13.0),
        ("t11", "m0", 13.0),
        ("t4", "m1", 14.0),
        ("t5", "m2", 14.0),
        ("t15", "m1", 15.0),
        ("t14", "m2", 16.0),
    ],
    "swa": [
        ("t8", "m2", 2.0),
        ("t6", "m0", 3.0),
        ("t12", "m1", 3.0),
        ("t7", "m1", 6.0),
        ("t2", "m2", 7.0),
        ("t13", "m0", 7.0),
        ("t0", "m1", 8.0),
        ("t10", "m2", 9.0),
        ("t3", "m0", 11.0),
        ("t1", "m1", 11.0),
        ("t9", "m2", 11.0),
        ("t11", "m0", 12.0),
        ("t15", "m1", 12.0),
        ("t4", "m2", 13.0),
        ("t5", "m2", 14.0),
        ("t14", "m2", 16.0),
    ],
}


@pytest.mark.parametrize("policy", sorted(IMMEDIATE_GOLDEN))
def test_dynamic_immediate_finishes_are_pinned(policy):
    etc = _integer_etc(61)
    arrivals = np.random.default_rng(62).integers(0, 12, etc.num_tasks).tolist()
    workload = ArrivalWorkload(etc=etc, arrivals=tuple(map(float, arrivals)))
    online = {"mct": MCTOnline, "swa": SWAOnline}[policy]()
    trace = DynamicHCSimulation(workload, policy=online).run()
    assert _finishes(trace.records) == IMMEDIATE_GOLDEN[policy]


def dispatch_digest(events) -> str:
    """SHA-256 over the ``sim.dispatch`` events" fields, in stream order."""
    stream = [
        [e.fields["kind"], repr(e.fields["time"]), e.fields["handlers"]]
        for e in events
        if e.kind == "sim.dispatch"
    ]
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()


DISPATCH_GOLDEN = (
    229,
    "eef076933964188a9a2f0ce72c29da38e13e288ced2aa8ac7f93643453ccfa44",
)


def test_sim_dispatch_stream_is_pinned():
    tracer = CollectingTracer()
    with use_tracer(tracer):
        _rolling("remap", tasks=96).run()
    dispatches = sum(1 for e in tracer.events if e.kind == "sim.dispatch")
    assert (dispatches, dispatch_digest(tracer.events)) == DISPATCH_GOLDEN
