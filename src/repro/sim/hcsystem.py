"""Simulated heterogeneous computing suite.

Three mapping cadences over one :class:`~repro.sim.executor.MachineExecutor`:

* **static** (:class:`HCSystem`) — execute a complete, precomputed
  mapping: each machine runs its tasks one at a time in assignment
  order from its initial ready time.  This independently *measures* the
  finishing times that the analytic Eq. (1) bookkeeping predicts; the
  property suite asserts they agree for every heuristic (DESIGN.md E25).
* **faulty** (:class:`FaultTolerantHCSystem`) — the static cadence under
  a seeded :class:`~repro.sim.faults.FaultPlan`; see docs/robustness.md.
* **dynamic** (:class:`DynamicHCSimulation`) — tasks arrive over time
  (the environment SWA, K-percent Best and Sufferage were designed for
  in Maheswaran et al.).  *Immediate mode* maps each task the moment it
  arrives using an :class:`OnlinePolicy`; *batch mode* collects pending
  tasks and maps them with a full batch heuristic at every mapping
  event (fixed-interval cadence).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping, ready_time_vector
from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_argmin
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError, SimulationError
from repro.heuristics.base import Heuristic
from repro.heuristics.kpb import kpb_subset_size
from repro.heuristics.swa import balance_index
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.engine import Simulator
from repro.sim.executor import RECOVERY_POLICIES, MachineExecutor, Recovery
from repro.sim.faults import FaultPlan
from repro.sim.trace import ExecutionTrace, TaskExecution

__all__ = [
    "HCSystem",
    "ArrivalWorkload",
    "poisson_workload",
    "workload_from_process",
    "OnlinePolicy",
    "MCTOnline",
    "METOnline",
    "OLBOnline",
    "KPBOnline",
    "SWAOnline",
    "DynamicHCSimulation",
    "RECOVERY_POLICIES",
    "FaultyExecution",
    "FaultTolerantHCSystem",
]


# ----------------------------------------------------------------------
# Static execution
# ----------------------------------------------------------------------
def _execute_static(
    etc: ETCMatrix,
    mapping: Mapping,
    initial_ready: np.ndarray,
    plan: FaultPlan | None = None,
    recovery: Recovery | None = None,
) -> tuple[ExecutionTrace, MachineExecutor]:
    """Preload ``mapping`` into the machine queues and start each
    machine from its ``machine-ready`` event at its initial ready time."""
    if mapping.etc is not etc and mapping.etc != etc:
        raise SimulationError("mapping was built for a different ETC matrix")
    sim = Simulator()
    trace = ExecutionTrace(etc.machines)
    tasks, machines = etc.tasks, etc.machines
    rows = etc.values.tolist()

    def on_complete(idx: int, j: int, start: float) -> None:
        trace.add(TaskExecution(tasks[idx], machines[j], start, sim.now))

    def remap(idx: int) -> bool:
        """Place ``idx`` now on the live machine with the earliest
        expected completion from actual queue state (the MCT rule,
        lowest index on ties); ``False`` if every machine is down."""
        now = sim.now
        best, best_completion = -1, np.inf
        for j in range(len(machines)):
            if not executor.up[j]:
                continue
            load = max(now, executor.ready_at[j])
            run = executor.running[j]
            if run is not None:
                load = max(load, run[2])
            factor = executor.factor[j]
            for queued in executor.queues[j]:
                load += rows[queued][j] * factor
            completion = load + rows[idx][j] * factor
            if completion < best_completion:
                best, best_completion = j, completion
        if best < 0:
            return False
        executor.count("requeues")
        executor.dispatch(idx, best)
        return True

    executor = MachineExecutor(
        sim, rows, machines, task_name=tasks.__getitem__, on_complete=on_complete,
        remap=remap, plan=plan, recovery=recovery, ready_at=initial_ready,
    )
    for idx, j in zip(*mapping.commit_order()):
        executor.queues[j].append(idx)
        executor.mapped[idx] = j
    for j, ready in enumerate(executor.ready_at):
        sim.schedule_at(ready, "machine-ready", j)
    executor.schedule_plan()
    budget = executor.recovery.retry_budget
    faults = len(plan.events) if plan else 0
    sim.run(max_events=20 * (mapping.num_assigned + 1) * (budget + 2) + 4 * faults + 10_000)
    executor.check_accounting(mapping.num_assigned)
    return trace, executor


class HCSystem:
    """Executes a complete static mapping and measures the timeline."""

    def __init__(
        self,
        etc: ETCMatrix,
        initial_ready: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self.etc = etc
        self._initial_ready = ready_time_vector(etc, initial_ready)

    def execute(self, mapping: Mapping) -> ExecutionTrace:
        """Run ``mapping`` to completion; returns the measured trace."""
        return _execute_static(self.etc, mapping, self._initial_ready)[0]

    def measured_finish_times(self, mapping: Mapping) -> dict[str, float]:
        """Per-machine measured finishing times (idle machines keep
        their initial ready time, matching ``Mapping`` semantics)."""
        trace = self.execute(mapping)
        base = dict(zip(self.etc.machines, self._initial_ready.tolist()))
        return trace.machine_finish_times(initial_ready=base)


# ----------------------------------------------------------------------
# Fault-tolerant execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultyExecution:
    """Outcome of one fault-injected run of a static mapping.

    ``trace`` records the *successful* execution of every task (the
    final attempt only); ``aborted`` counts attempts killed mid-run by a
    machine failure; ``dropped`` lists tasks whose retry budget ran out
    (empty when the system recovered everything).
    """

    trace: ExecutionTrace
    plan: FaultPlan
    policy: str
    failures: int
    recoveries: int
    slowdowns: int
    aborted: int
    retries: int
    requeues: int
    dropped: tuple[str, ...]

    @property
    def completed(self) -> int:
        return len(self.trace)

    @property
    def makespan(self) -> float:
        return self.trace.makespan()

    def finish_times(self, initial_ready=None) -> dict[str, float]:
        return self.trace.machine_finish_times(initial_ready=initial_ready)


class FaultTolerantHCSystem:
    """Executes a static mapping under an injected :class:`FaultPlan`.

    A failure aborts the running task, whose retry after bounded
    exponential backoff lands per ``policy``: ``"requeue"`` puts it back
    at the head of its mapped machine's queue; ``"remap"`` places it on
    the live machine with the earliest expected completion time, and
    moves the failed machine's queued tasks the same way at once.  A
    task whose ``retry_budget`` runs out is dropped and reported.
    Slowdowns stretch tasks *started* while the machine is degraded.
    The machine logic is :class:`~repro.sim.executor.MachineExecutor`.
    """

    def __init__(
        self,
        etc: ETCMatrix,
        plan: FaultPlan,
        policy: str = "requeue",
        retry_budget: int = 3,
        backoff_base: float = 1.0,
        backoff_cap: float | None = None,
        initial_ready: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self._recovery = Recovery(policy, retry_budget, backoff_base, backoff_cap)
        if set(plan.machines) != set(etc.machines):
            raise ConfigurationError(
                "fault plan machine set does not match the ETC matrix"
            )
        self.etc = etc
        self.plan = plan
        self.policy = policy
        self.retry_budget = self._recovery.retry_budget
        self.backoff_base = self._recovery.backoff_base
        self.backoff_cap = self._recovery.backoff_cap
        self._initial_ready = ready_time_vector(etc, initial_ready)

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return self._recovery.backoff_delay(attempt)

    def execute(self, mapping: Mapping) -> FaultyExecution:
        """Run ``mapping`` to completion under the fault plan."""
        trace, executor = _execute_static(
            self.etc, mapping, self._initial_ready, self.plan, self._recovery
        )
        return FaultyExecution(
            trace=trace,
            plan=self.plan,
            policy=self.policy,
            requeues=executor.stats["requeues"],
            dropped=tuple(self.etc.tasks[idx] for idx in executor.dropped),
            **executor.fault_counts(),
        )


# ----------------------------------------------------------------------
# Dynamic workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalWorkload:
    """Tasks with arrival times over an ETC matrix.

    ``arrivals[i]`` is the arrival time of ``etc.tasks[i]``; arrivals
    need not be sorted (the simulator orders them).
    """

    etc: ETCMatrix
    arrivals: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.etc.num_tasks:
            raise ConfigurationError(
                f"{len(self.arrivals)} arrival times for {self.etc.num_tasks} tasks"
            )
        if any(a < 0 or a != a for a in self.arrivals):
            raise ConfigurationError("arrival times must be finite and non-negative")

    def arrival_of(self, task: str) -> float:
        return self.arrivals[self.etc.task_index(task)]


def poisson_workload(
    etc: ETCMatrix,
    rate: float,
    rng: np.random.Generator | int | None = None,
) -> ArrivalWorkload:
    """Poisson arrivals: exponential inter-arrival times with ``rate``."""
    return workload_from_process(etc, PoissonArrivals(rate), rng)


def workload_from_process(
    etc: ETCMatrix,
    process: ArrivalProcess,
    rng: np.random.Generator | int | None = None,
) -> ArrivalWorkload:
    """Arrivals drawn from any :mod:`repro.sim.arrivals` process."""
    process.reset()
    gaps = process.gaps(etc.num_tasks, np.random.default_rng(rng))
    return ArrivalWorkload(etc=etc, arrivals=tuple(np.cumsum(gaps).tolist()))


# ----------------------------------------------------------------------
# Immediate-mode policies (Maheswaran et al. on-line heuristics)
# ----------------------------------------------------------------------
class OnlinePolicy:
    """Chooses a machine for one task the moment it arrives.

    ``expected_free[j]`` is when machine ``j`` will have drained its
    current queue (the on-line analogue of the ready time).
    """

    name: str = ""

    def __init__(self, tie_breaker: TieBreaker | None = None) -> None:
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state; :meth:`DynamicHCSimulation.run` calls
        this first so one instance can serve paired runs."""


class MCTOnline(OnlinePolicy):
    """On-line MCT: minimise expected completion time."""

    name = "mct-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        completion = np.maximum(expected_free, now) + etc_row
        return self.tie_breaker.choose(tied_argmin(completion))


class METOnline(OnlinePolicy):
    """On-line MET: fastest machine regardless of load."""

    name = "met-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        return self.tie_breaker.choose(tied_argmin(etc_row))


class OLBOnline(OnlinePolicy):
    """On-line OLB: machine expected free soonest."""

    name = "olb-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        return self.tie_breaker.choose(tied_argmin(np.maximum(expected_free, now)))


class KPBOnline(OnlinePolicy):
    """On-line K-percent Best: MCT within the k% fastest machines."""

    name = "kpb-online"

    def __init__(
        self, percent: float = 50.0, tie_breaker: TieBreaker | None = None
    ) -> None:
        super().__init__(tie_breaker)
        if not 0.0 < percent <= 100.0:
            raise ConfigurationError(f"percent must be in (0, 100], got {percent}")
        self.percent = float(percent)

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        size = kpb_subset_size(etc_row.size, self.percent)
        subset = np.sort(np.argsort(etc_row, kind="stable")[:size])
        completion = np.maximum(expected_free[subset], now) + etc_row[subset]
        pick = self.tie_breaker.choose(tied_argmin(completion))
        return int(subset[pick])


class SWAOnline(OnlinePolicy):
    """On-line Switching Algorithm: MCT/MET toggled by the balance index."""

    name = "swa-online"

    def __init__(
        self,
        low: float = 0.40,
        high: float = 0.49,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        super().__init__(tie_breaker)
        if not 0.0 <= low < high <= 1.0:
            raise ConfigurationError(
                f"thresholds must satisfy 0 <= low < high <= 1, got {low}, {high}"
            )
        self.low = float(low)
        self.high = float(high)
        self._current = "mct"

    def reset(self) -> None:
        # The MCT/MET toggle is per-run state: without this reset a
        # reused instance would start run N+1 in whatever mode run N
        # ended in, breaking paired comparisons.
        self._current = "mct"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        load = np.maximum(expected_free, now)
        bi = balance_index(load)
        if bi == bi:  # not NaN
            if bi > self.high:
                self._current = "met"
            elif bi < self.low:
                self._current = "mct"
        if self._current == "met":
            return self.tie_breaker.choose(tied_argmin(etc_row))
        return self.tie_breaker.choose(tied_argmin(load + etc_row))


# ----------------------------------------------------------------------
# Dynamic simulation
# ----------------------------------------------------------------------
class DynamicHCSimulation:
    """Simulates a dynamic HC system under an on-line or batch policy.

    Exactly one of ``policy`` (immediate mode) or ``batch_heuristic``
    (batch mode) must be given.  In batch mode a *mapping event* fires
    at the interval boundary ``last_batch + batch_interval`` once a task
    is pending — immediately for the first arrival of a cycle past the
    boundary, on a timer otherwise (Maheswaran et al.'s interval-based
    batch mode).  Both modes dispatch onto one
    :class:`~repro.sim.executor.MachineExecutor` without faults.
    """

    def __init__(
        self,
        workload: ArrivalWorkload,
        policy: OnlinePolicy | None = None,
        batch_heuristic: Heuristic | None = None,
        batch_interval: float = 1.0,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        if (policy is None) == (batch_heuristic is None):
            raise ConfigurationError(
                "provide exactly one of policy (immediate) or batch_heuristic"
            )
        if batch_heuristic is not None and batch_interval <= 0:
            raise ConfigurationError(
                f"batch_interval must be positive, got {batch_interval}"
            )
        self.workload = workload
        self.policy = policy
        self.batch_heuristic = batch_heuristic
        self.batch_interval = float(batch_interval)
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    # ------------------------------------------------------------------
    def run(self, progress=None, progress_every: int = 1000) -> ExecutionTrace:
        """Execute the workload; ``progress`` is forwarded to the engine
        (see :meth:`repro.sim.engine.Simulator.run`)."""
        etc = self.workload.etc
        if self.policy is not None:
            self.policy.reset()
        sim = Simulator()
        trace = ExecutionTrace(etc.machines)
        tasks, machines = etc.tasks, etc.machines
        arrivals = self.workload.arrivals
        pending: list[int] = []  # batch mode: arrived but unassigned
        last_batch = -np.inf
        batch_scheduled = False

        def on_complete(idx: int, j: int, start: float) -> None:
            trace.add(TaskExecution(tasks[idx], machines[j], start, sim.now, arrivals[idx]))

        executor = MachineExecutor(
            sim, etc.values.tolist(), machines, task_name=tasks.__getitem__,
            on_complete=on_complete,
        )

        def on_arrival(idx: int) -> None:
            nonlocal batch_scheduled
            if self.policy is not None:
                expected_free = np.array(executor.expected_free)
                j = self.policy.choose(etc.values[idx], expected_free, sim.now)
                executor.dispatch(idx, int(j))
                return
            pending.append(idx)
            # Mapping events run at a lower priority than arrivals so a
            # burst of simultaneous arrivals is mapped as one batch.
            # The event is timer-based: it fires at the interval boundary
            # ``last_batch + batch_interval`` even if no further arrival
            # lands by then, so a task arriving just after a mapping
            # event waits at most one interval, not until the next
            # arrival (Maheswaran et al.'s interval cadence).
            if not batch_scheduled:
                due = max(sim.now, last_batch + self.batch_interval)
                sim.schedule_at(due, "batch-event", priority=10)
                batch_scheduled = True

        def on_batch_event(_) -> None:
            nonlocal batch_scheduled, last_batch
            batch_scheduled, last_batch = False, sim.now
            batch = list(pending)  # never empty: an arrival queued this event
            pending.clear()
            sub = etc.submatrix(tasks=[tasks[idx] for idx in batch])
            ready = np.maximum(executor.expected_free, sim.now).tolist()
            mapping = self.batch_heuristic.map_tasks(sub, ready, self.tie_breaker)
            # The batch matrix keeps every machine in order, so its
            # machine indices are the full matrix's.
            for t, j in zip(*mapping.commit_order()):
                executor.dispatch(batch[t], j)

        sim.on("task-arrival", on_arrival)
        sim.on("batch-event", on_batch_event)
        for idx, arrival in enumerate(arrivals):
            sim.schedule_at(arrival, "task-arrival", idx)
        sim.run(
            max_events=20 * etc.num_tasks + 10_000,
            progress=progress,
            progress_every=progress_every,
        )
        # Pending tasks always have a mapping event queued and queued
        # tasks a running predecessor, so a task left over now is one a
        # batch heuristic never mapped.
        if len(trace) < etc.num_tasks:
            raise SimulationError("dynamic simulation stalled with pending tasks")
        return trace
