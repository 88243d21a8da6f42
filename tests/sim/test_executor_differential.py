"""Differential tests between the static, dynamic and rolling simulators.

Two cadences that should agree are run side by side on the same input:

* a rolling run whose single horizon maps every task at time 0 (all
  arrivals at 0, one refine iteration, ``requeue`` recovery) against
  :class:`FaultTolerantHCSystem` executing the same heuristic's mapping
  under the same :class:`FaultPlan`;
* a rolling run whose horizon is shorter than any inter-arrival gap, so
  each task is mapped alone by MCT the moment it arrives, against
  immediate-mode :class:`DynamicHCSimulation` with :class:`MCTOnline`.

Exact fields are compared exactly; mean flow is a sum taken in a
different order by each simulator, so it is compared approximately.
"""

import numpy as np
import pytest

from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics import get_heuristic
from repro.sim.arrivals import TraceArrivals
from repro.sim.faults import FaultConfig, generate_fault_plan
from repro.sim.hcsystem import (
    ArrivalWorkload,
    DynamicHCSimulation,
    FaultTolerantHCSystem,
    MCTOnline,
)
from repro.sim.rolling import RollingSimulation, TaskSource

TASKS = 40
MACHINES = 4


class ArrayTaskSource(TaskSource):
    """Yields one fixed array of task rows."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.num_tasks, self.num_machines = self.values.shape

    def chunks(self):
        yield self.values


def _etc(seed: int) -> ETCMatrix:
    values = generate_range_based(TASKS, MACHINES, rng=seed).values
    return ETCMatrix(
        values,
        tasks=[f"t{i}" for i in range(TASKS)],
        machines=[f"m{j}" for j in range(MACHINES)],
    )


def _fault_plan(etc: ETCMatrix, horizon: float, seed: int, failures: float):
    return generate_fault_plan(
        etc.machines,
        FaultConfig(
            failure_rate=failures / horizon,
            mean_downtime=0.05 * horizon,
            slowdown_rate=2.0 / horizon,
            mean_slowdown=0.05 * horizon,
        ),
        horizon,
        rng=np.random.default_rng(seed + 100),
    )


CASES = [(seed, "min-min", 8, 4.0) for seed in range(3)] + [
    (seed, "sufferage", 8, 4.0) for seed in range(3, 6)
] + [(6, "min-min", 0, 6.0)]


@pytest.mark.parametrize("seed,heuristic,budget,failures", CASES)
def test_single_horizon_matches_static_faults(seed, heuristic, budget, failures):
    etc = _etc(seed)
    mapping = get_heuristic(heuristic).map_tasks(etc)
    horizon = mapping.makespan()
    plan = _fault_plan(etc, horizon, seed, failures)
    backoff = 0.01 * horizon
    static = FaultTolerantHCSystem(
        etc, plan, policy="requeue", retry_budget=budget, backoff_base=backoff
    ).execute(mapping)
    rolling = RollingSimulation(
        ArrayTaskSource(etc.values),
        get_heuristic(heuristic),
        horizon=1.0,
        arrival=TraceArrivals([0.0]),
        refine_iterations=1,
        plan=plan,
        recovery="requeue",
        retry_budget=budget,
        backoff_base=backoff,
    ).run()
    assert rolling.horizons == 1
    assert (
        rolling.makespan,
        rolling.completed,
        sorted(rolling.dropped),
        rolling.failures,
        rolling.recoveries,
        rolling.aborted,
        rolling.retries,
        rolling.slowdowns,
    ) == (
        static.makespan,
        static.completed,
        sorted(static.dropped),
        static.failures,
        static.recoveries,
        static.aborted,
        static.retries,
        static.slowdowns,
    )
    assert rolling.failures > 0
    if budget == 0:
        assert static.dropped  # the zero-budget case compares real drops
    flows = [r.finish for r in static.trace.records]
    assert rolling.mean_flow == pytest.approx(np.mean(flows), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_per_task_rolling_matches_immediate_mct(seed):
    etc = _etc(seed)
    gen = np.random.default_rng(seed + 200)
    # Mean gap a little under the mean best-case service time over the
    # machine count, so queues build up and MCT has real choices to make.
    mean_gap = 0.8 * float(np.mean(etc.values.min(axis=1))) / MACHINES
    gaps = gen.exponential(mean_gap, TASKS)
    arrivals = np.cumsum(gaps)
    dynamic = DynamicHCSimulation(
        ArrivalWorkload(etc=etc, arrivals=tuple(arrivals.tolist())),
        policy=MCTOnline(),
    ).run()
    rolling = RollingSimulation(
        ArrayTaskSource(etc.values),
        get_heuristic("mct"),
        horizon=1e-9,
        arrival=TraceArrivals(gaps),
        refine_iterations=1,
    ).run()
    assert rolling.horizons == TASKS
    assert rolling.makespan == dynamic.makespan()
    flows = [r.finish - r.arrival for r in dynamic.records]
    assert rolling.mean_flow == pytest.approx(np.mean(flows), rel=1e-12)
