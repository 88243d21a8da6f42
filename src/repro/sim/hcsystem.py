"""Simulated heterogeneous computing suite.

Two operating modes, both built on the generic engine:

* **static** (:class:`HCSystem`) — execute a complete, precomputed
  mapping: each machine runs its tasks one at a time in assignment
  order from its initial ready time.  This independently *measures* the
  finishing times that the analytic Eq. (1) bookkeeping predicts; the
  property suite asserts they agree for every heuristic (DESIGN.md E25).

* **dynamic** (:class:`DynamicHCSimulation`) — tasks arrive over time
  (the environment SWA, K-percent Best and Sufferage were designed for
  in Maheswaran et al.).  *Immediate mode* maps each task the moment it
  arrives using an :class:`OnlinePolicy`; *batch mode* collects pending
  tasks and remaps them with a full batch heuristic at every mapping
  event (fixed-interval cadence).

* **faulty** (:class:`FaultTolerantHCSystem`) — execute a static
  mapping while a seeded :class:`~repro.sim.faults.FaultPlan` injects
  machine failures, recoveries and slowdowns.  Interrupted tasks are
  recovered with bounded exponential backoff under a per-task retry
  budget, either back onto their mapped machine (``requeue``) or onto
  the machine with the earliest expected completion among the live ones
  (``remap`` — the MCT re-mapping rule).  See docs/robustness.md.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
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
from repro.obs.tracer import get_tracer
from repro.sim.arrivals import ArrivalProcess, BurstyArrivals, TraceArrivals
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.trace import ExecutionTrace, TaskExecution

__all__ = [
    "HCSystem",
    "ArrivalWorkload",
    "poisson_workload",
    "bursty_workload",
    "trace_replay_workload",
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
        if mapping.etc is not self.etc and mapping.etc != self.etc:
            raise SimulationError("mapping was built for a different ETC matrix")
        sim = Simulator()
        trace = ExecutionTrace(self.etc.machines)
        queues: dict[str, deque[str]] = {
            m: deque(mapping.machine_tasks(m)) for m in self.etc.machines
        }

        def start_next(machine: str) -> None:
            queue = queues[machine]
            if not queue:
                return
            task = queue.popleft()
            duration = self.etc.etc(task, machine)
            start = sim.now
            sim.schedule(duration, "task-finish", payload=(task, machine, start))

        def on_task_finish(payload) -> None:
            task, machine, start = payload
            trace.add(
                TaskExecution(task=task, machine=machine, start=start, finish=sim.now)
            )
            start_next(machine)

        sim.on("machine-ready", start_next)
        sim.on("task-finish", on_task_finish)
        for j, machine in enumerate(self.etc.machines):
            sim.schedule_at(float(self._initial_ready[j]), "machine-ready", machine)
        sim.run()
        if len(trace) != mapping.num_assigned:
            raise SimulationError(
                f"executed {len(trace)} tasks but the mapping holds "
                f"{mapping.num_assigned}"
            )
        return trace

    def measured_finish_times(self, mapping: Mapping) -> dict[str, float]:
        """Per-machine measured finishing times (idle machines keep
        their initial ready time, matching ``Mapping`` semantics)."""
        trace = self.execute(mapping)
        base = dict(zip(self.etc.machines, self._initial_ready.tolist()))
        return trace.machine_finish_times(initial_ready=base)


# ----------------------------------------------------------------------
# Fault-tolerant execution
# ----------------------------------------------------------------------
#: Recovery policies for tasks interrupted by a machine failure.
RECOVERY_POLICIES = ("requeue", "remap")


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

    Failure semantics: when a machine fails, the task it is running is
    aborted (all partial progress lost) and its queued tasks stall until
    the machine recovers.  The aborted task re-enters service through
    bounded exponential backoff — attempt ``a`` waits
    ``min(backoff_base * 2**(a-1), backoff_cap)`` — until its per-task
    ``retry_budget`` is exhausted, after which it is dropped (and
    reported, never silently lost).  Where the retried task lands is the
    ``policy``:

    * ``"requeue"`` — back at the *head* of its mapped machine's queue,
      so it resumes first once the machine recovers;
    * ``"remap"`` — onto the live machine with the earliest expected
      completion time (the MCT rule, recomputed from actual queue
      state); queued tasks of the failed machine are re-mapped
      immediately, without backoff, since they themselves never failed.

    Slowdown events multiply the ETC of tasks *started* while the
    machine is degraded; a running task's duration is fixed at start.

    Runs are deterministic: the plan is data, the engine is
    deterministic, and remap ties break to the lowest machine index.
    Fault counters (``sim.failures``, ``sim.retries``, ...) and the
    ``sim.requeue_latency`` histogram flow through the current
    :mod:`repro.obs` tracer.
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
        if policy not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {policy!r}; choose from {RECOVERY_POLICIES}"
            )
        if retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {retry_budget}"
            )
        if backoff_base <= 0:
            raise ConfigurationError(
                f"backoff_base must be positive, got {backoff_base}"
            )
        if backoff_cap is None:
            backoff_cap = 32.0 * backoff_base
        if backoff_cap < backoff_base:
            raise ConfigurationError(
                f"backoff_cap {backoff_cap} must be >= backoff_base {backoff_base}"
            )
        if set(plan.machines) != set(etc.machines):
            raise ConfigurationError(
                "fault plan machine set does not match the ETC matrix"
            )
        self.etc = etc
        self.plan = plan
        self.policy = policy
        self.retry_budget = int(retry_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._initial_ready = ready_time_vector(etc, initial_ready)

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return min(self.backoff_base * 2.0 ** (attempt - 1), self.backoff_cap)

    def execute(self, mapping: Mapping) -> FaultyExecution:
        """Run ``mapping`` to completion under the fault plan."""
        if mapping.etc is not self.etc and mapping.etc != self.etc:
            raise SimulationError("mapping was built for a different ETC matrix")
        etc = self.etc
        tracer = get_tracer()
        sim = Simulator()
        trace = ExecutionTrace(etc.machines)
        queues: dict[str, deque[str]] = {
            m: deque(mapping.machine_tasks(m)) for m in etc.machines
        }
        up: dict[str, bool] = dict.fromkeys(etc.machines, True)
        factor: dict[str, float] = dict.fromkeys(etc.machines, 1.0)
        epoch: dict[str, int] = dict.fromkeys(etc.machines, 0)
        #: (task, start, expected finish) of the task each machine runs.
        current: dict[str, tuple[str, float, float] | None] = dict.fromkeys(
            etc.machines
        )
        mapped_machine = {a.task: a.machine for a in mapping.assignments}
        #: Sorted recovery times from the plan, so an all-machines-down
        #: retry can jump straight to the next known recovery instead of
        #: polling every backoff_base (which exhausts max_events across
        #: a long outage).
        recovery_times = sorted(
            event.time for event in self.plan.events if event.kind == "recover"
        )
        attempts: dict[str, int] = {}
        last_failure: dict[str, float] = {}
        stats = {
            "failures": 0, "recoveries": 0, "slowdowns": 0,
            "aborted": 0, "retries": 0, "requeues": 0,
        }
        dropped: list[str] = []

        def try_start(machine: str) -> None:
            if not up[machine] or current[machine] is not None:
                return
            queue = queues[machine]
            if not queue:
                return
            task = queue.popleft()
            start = sim.now
            duration = etc.etc(task, machine) * factor[machine]
            current[machine] = (task, start, start + duration)
            if task in last_failure and tracer.enabled:
                tracer.observe(
                    "sim.requeue_latency", start - last_failure[task]
                )
            last_failure.pop(task, None)
            sim.schedule(
                duration, "task-finish", payload=(task, machine, start, epoch[machine])
            )

        def expected_completion(task: str, machine: str) -> float:
            """Expected completion of ``task`` appended to ``machine``
            now, from the machine's actual run/queue state."""
            load = sim.now
            run = current[machine]
            if run is not None:
                load = max(load, run[2])
            for queued in queues[machine]:
                load += etc.etc(queued, machine) * factor[machine]
            return load + etc.etc(task, machine) * factor[machine]

        def remap_target(task: str) -> str | None:
            """Live machine with the earliest expected completion for
            ``task`` (lowest index on ties); ``None`` if all are down."""
            best: str | None = None
            best_completion = np.inf
            for machine in etc.machines:
                if not up[machine]:
                    continue
                completion = expected_completion(task, machine)
                if completion < best_completion:
                    best, best_completion = machine, completion
            return best

        def enqueue(task: str, machine: str, *, front: bool = False) -> None:
            stats["requeues"] += 1
            if tracer.enabled:
                tracer.count("sim.requeues")
            if front:
                queues[machine].appendleft(task)
            else:
                queues[machine].append(task)
            try_start(machine)

        def retry_or_drop(task: str, failed_at: float) -> None:
            attempts[task] = attempts.get(task, 0) + 1
            last_failure[task] = failed_at
            if attempts[task] > self.retry_budget:
                dropped.append(task)
                if tracer.enabled:
                    tracer.count("sim.dropped")
                    tracer.event("sim.fault.drop", task=task, time=failed_at)
                return
            stats["retries"] += 1
            delay = self.backoff_delay(attempts[task])
            if tracer.enabled:
                tracer.count("sim.retries")
                tracer.event(
                    "sim.fault.retry", task=task, attempt=attempts[task],
                    delay=delay,
                )
            sim.schedule(delay, "task-retry", payload=task)

        def on_task_finish(payload) -> None:
            task, machine, start, start_epoch = payload
            if start_epoch != epoch[machine]:
                return  # stale: the machine failed after this was scheduled
            trace.add(
                TaskExecution(task=task, machine=machine, start=start, finish=sim.now)
            )
            current[machine] = None
            try_start(machine)

        def on_machine_fail(fault) -> None:
            machine = fault.machine
            if not up[machine]:
                return
            up[machine] = False
            epoch[machine] += 1
            stats["failures"] += 1
            victim = current[machine]
            current[machine] = None
            if tracer.enabled:
                tracer.count("sim.failures")
                tracer.event(
                    "sim.fault.fail", machine=machine, time=sim.now,
                    running=victim[0] if victim else None,
                    queued=len(queues[machine]),
                )
            if self.policy == "remap" and queues[machine]:
                # Queued tasks never failed themselves: move them to live
                # machines right away (they keep their retry budgets).
                stranded = list(queues[machine])
                queues[machine].clear()
                for task in stranded:
                    target = remap_target(task)
                    if target is None:
                        queues[machine].append(task)  # everyone is down; wait
                    else:
                        enqueue(task, target)
            if victim is not None:
                stats["aborted"] += 1
                retry_or_drop(victim[0], sim.now)

        def on_machine_recover(fault) -> None:
            machine = fault.machine
            if up[machine]:
                return
            up[machine] = True
            stats["recoveries"] += 1
            if tracer.enabled:
                tracer.count("sim.recoveries")
                tracer.event("sim.fault.recover", machine=machine, time=sim.now)
            try_start(machine)

        def on_machine_slow(fault) -> None:
            machine = fault.machine
            factor[machine] = fault.factor
            stats["slowdowns"] += 1
            if tracer.enabled:
                tracer.count("sim.slowdowns")
                tracer.event(
                    "sim.fault.slow", machine=machine, time=sim.now,
                    factor=fault.factor,
                )

        def on_machine_restore(fault) -> None:
            factor[fault.machine] = 1.0

        def on_task_retry(task) -> None:
            if self.policy == "requeue":
                enqueue(task, mapped_machine[task], front=True)
                return
            target = remap_target(task)
            if target is None:
                # Every machine is down.  Jump straight to the next known
                # recovery in the plan (no budget charge — the task did
                # not fail again).  Priority 20 puts the retry *after*
                # the recover event (priority 10) at that same instant,
                # so the machine is back up when the retry dispatches.
                index = bisect_right(recovery_times, sim.now)
                if index < len(recovery_times):
                    sim.schedule_at(
                        recovery_times[index], "task-retry",
                        payload=task, priority=20,
                    )
                else:
                    # No recovery on the books (degenerate plan): fall
                    # back to the old base-delay poll.
                    sim.schedule(self.backoff_base, "task-retry", payload=task)
                return
            enqueue(task, target)

        sim.on("machine-ready", try_start)
        sim.on("task-finish", on_task_finish)
        sim.on("task-retry", on_task_retry)
        sim.on("machine-fail", on_machine_fail)
        sim.on("machine-recover", on_machine_recover)
        sim.on("machine-slow", on_machine_slow)
        sim.on("machine-restore", on_machine_restore)
        for j, machine in enumerate(etc.machines):
            sim.schedule_at(float(self._initial_ready[j]), "machine-ready", machine)
        # Faults run at a lower priority than same-instant task finishes:
        # a task completing exactly when its machine dies still counts.
        for fault in self.plan.events:
            sim.schedule_at(
                fault.time, f"machine-{fault.kind}", payload=fault, priority=10
            )
        sim.run(
            max_events=20 * (mapping.num_assigned + 1) * (self.retry_budget + 2)
            + 4 * len(self.plan.events)
            + 10_000
        )
        if len(trace) + len(dropped) != mapping.num_assigned:
            raise SimulationError(
                f"executed {len(trace)} + dropped {len(dropped)} tasks but the "
                f"mapping holds {mapping.num_assigned}"
            )
        return FaultyExecution(
            trace=trace,
            plan=self.plan,
            policy=self.policy,
            failures=stats["failures"],
            recoveries=stats["recoveries"],
            slowdowns=stats["slowdowns"],
            aborted=stats["aborted"],
            retries=stats["retries"],
            requeues=stats["requeues"],
            dropped=tuple(dropped),
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
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    gaps = gen.exponential(1.0 / rate, size=etc.num_tasks)
    return ArrivalWorkload(etc=etc, arrivals=tuple(np.cumsum(gaps).tolist()))


def workload_from_process(
    etc: ETCMatrix,
    process: ArrivalProcess,
    rng: np.random.Generator | int | None = None,
) -> ArrivalWorkload:
    """Arrivals drawn from any :mod:`repro.sim.arrivals` process."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    process.reset()
    gaps = process.gaps(etc.num_tasks, gen)
    return ArrivalWorkload(etc=etc, arrivals=tuple(np.cumsum(gaps).tolist()))


def bursty_workload(
    etc: ETCMatrix,
    rate: float,
    rng: np.random.Generator | int | None = None,
    *,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.5,
    mean_burst: float = 16.0,
) -> ArrivalWorkload:
    """Bursty arrivals with an unchanged overall mean ``rate``
    (see :class:`repro.sim.arrivals.BurstyArrivals`)."""
    process = BurstyArrivals(
        rate,
        burst_factor=burst_factor,
        burst_fraction=burst_fraction,
        mean_burst=mean_burst,
    )
    return workload_from_process(etc, process, rng)


def trace_replay_workload(
    etc: ETCMatrix,
    trace_gaps: Sequence[float],
) -> ArrivalWorkload:
    """Replay recorded inter-arrival gaps (cycling if the workload
    outlives the trace; see :class:`repro.sim.arrivals.TraceArrivals`)."""
    process = TraceArrivals(trace_gaps)
    return workload_from_process(etc, process, rng=0)


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
        """Clear per-run state.  :meth:`DynamicHCSimulation.run` calls
        this at the start of every run so one policy instance can be
        reused across runs (paired comparisons) without state leaking
        from the previous workload.  Stateless policies inherit this
        no-op."""


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
    batch mode); any tasks still pending once arrivals stop are mapped
    in a final flush.
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
        queues: dict[str, deque[str]] = {m: deque() for m in etc.machines}
        busy: dict[str, bool] = dict.fromkeys(etc.machines, False)
        expected_free = np.zeros(etc.num_machines, dtype=np.float64)
        pending: list[str] = []  # batch mode: arrived but unassigned
        remaining = etc.num_tasks
        last_batch = -np.inf
        batch_scheduled = False

        def try_start(machine: str) -> None:
            if busy[machine] or not queues[machine]:
                return
            task = queues[machine].popleft()
            busy[machine] = True
            duration = etc.etc(task, machine)
            sim.schedule(duration, "task-finish", payload=(task, machine, sim.now))

        def dispatch(task: str, machine_idx: int) -> None:
            machine = etc.machines[machine_idx]
            queues[machine].append(task)
            expected_free[machine_idx] = (
                max(expected_free[machine_idx], sim.now) + etc.values[
                    etc.task_index(task), machine_idx
                ]
            )
            try_start(machine)

        def on_arrival(task) -> None:
            nonlocal batch_scheduled
            if self.policy is not None:
                row = etc.task_row(task)
                machine_idx = self.policy.choose(row, expected_free, sim.now)
                dispatch(task, int(machine_idx))
                return
            pending.append(task)
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
            batch_scheduled = False
            last_batch = sim.now
            run_batch()

        def run_batch() -> None:
            if not pending:
                return
            sub = etc.submatrix(tasks=list(pending))
            ready = np.maximum(expected_free, sim.now)
            assert self.batch_heuristic is not None
            mapping = self.batch_heuristic.map_tasks(
                sub, ready.tolist(), self.tie_breaker
            )
            pending.clear()
            # The batch matrix keeps every machine in order, so its
            # machine indices are the full matrix's.
            tasks, machine_idx = mapping.commit_order()
            for t, j in zip(tasks, machine_idx):
                dispatch(sub.tasks[t], j)

        def on_task_finish(payload) -> None:
            nonlocal remaining
            task, machine, start = payload
            arrival = self.workload.arrival_of(task)
            trace.add(
                TaskExecution(
                    task=task,
                    machine=machine,
                    start=start,
                    finish=sim.now,
                    arrival=arrival,
                )
            )
            busy[machine] = False
            remaining -= 1
            try_start(machine)

        sim.on("task-arrival", on_arrival)
        sim.on("task-finish", on_task_finish)
        sim.on("batch-event", on_batch_event)
        for task in etc.tasks:
            sim.schedule_at(self.workload.arrival_of(task), "task-arrival", task)
        sim.run(
            max_events=20 * etc.num_tasks + 10_000,
            progress=progress,
            progress_every=progress_every,
        )
        # Flush any stragglers left pending if the last tick fired early.
        while len(trace) < etc.num_tasks:
            run_batch()
            for m in etc.machines:
                try_start(m)
            before = sim.processed_events
            sim.run(max_events=before + 20 * etc.num_tasks + 10_000)
            if sim.processed_events == before and len(trace) < etc.num_tasks:
                raise SimulationError("dynamic simulation stalled with pending tasks")
        return trace
