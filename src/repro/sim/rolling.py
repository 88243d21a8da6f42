"""Rolling-horizon online serving simulation.

This is the layer that turns the reproduction into a *serving system*:
tasks arrive continuously (Poisson, bursty, or trace-replay gaps from
:mod:`repro.sim.arrivals`), and every ``horizon`` time units the batch
of tasks that arrived since the previous mapping event is mapped by a
pluggable heuristic and then **refined by the paper's iterative
technique** (:class:`~repro.core.iterative.IterativeScheduler`) before
being dispatched to per-machine FIFO queues.  A seeded
:class:`~repro.sim.faults.FaultPlan` may inject failures, recoveries
and slowdowns live during the run; interrupted tasks are recovered
across horizon boundaries (``remap`` sends them to the next batch,
``requeue`` back to the head of their machine's queue) under a bounded
retry budget, and exhausted tasks are *reported dropped, never lost* —
the run raises if the accounting does not close.

Task definitions stream in bounded windows from a
:class:`TaskSource` — either generated on the fly
(:class:`EnsembleTaskSource`, wrapping PR 7's ``stream_ensemble``) or
memory-mapped out of an :class:`~repro.etc.store.ETCStore`
(:class:`StoreTaskSource`) — so a million-task run holds one window of
definitions plus the live backlog, never the whole workload.

Observability: ``rolling.horizon`` spans (one per mapping event, with
batch size and live-machine count) nest under a ``rolling.run`` phase
for ``repro obs timeline``, and an optional :class:`RollingSampler`
writes a ``repro-timeseries/1`` throughput log (``tasks_scheduled`` /
``tasks_per_s`` headline, backlog, RSS).  See docs/rolling.md.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, TieBreaker
from repro.etc.generation import (
    DEFAULT_STREAM_WINDOW,
    Consistency,
    Heterogeneity,
    stream_ensemble,
)
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError, SimulationError
from repro.heuristics.base import Heuristic
from repro.obs.timeseries import TIMESERIES_SCHEMA, TimeSeriesLog, rss_bytes
from repro.obs.tracer import get_tracer
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.hcsystem import RECOVERY_POLICIES

__all__ = [
    "TaskSource",
    "EnsembleTaskSource",
    "StoreTaskSource",
    "calibrate_rate",
    "RollingResult",
    "RollingSampler",
    "RollingSimulation",
    "DEFAULT_UTILIZATION",
]

#: Target fraction of aggregate machine capacity consumed by arrivals
#: when the rate is calibrated from the workload instead of given.
DEFAULT_UTILIZATION = 0.7


# ----------------------------------------------------------------------
# Task sources (windowed, out-of-core)
# ----------------------------------------------------------------------
class TaskSource:
    """Streams task ETC rows in bounded windows.

    ``chunks()`` yields C-ordered float64 arrays of shape
    ``(B, num_machines)`` — one row per task, in arrival order — whose
    row counts sum to ``num_tasks``.  Implementations must keep peak
    memory at one window regardless of the total.
    """

    num_tasks: int
    num_machines: int

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError


class EnsembleTaskSource(TaskSource):
    """Generates task rows on the fly via ``stream_ensemble``.

    Instances of shape ``(tasks_per_instance, num_machines)`` are drawn
    from the seeded RNG stream in :func:`~repro.etc.generation.generate_ensemble`
    order, flattened row-major into the arrival sequence, and trimmed
    to ``num_tasks`` (the last instance may be partially consumed).
    """

    def __init__(
        self,
        num_tasks: int,
        num_machines: int,
        *,
        tasks_per_instance: int = 64,
        heterogeneity: Heterogeneity = Heterogeneity.HIHI,
        consistency: Consistency = Consistency.INCONSISTENT,
        method: str = "range",
        rng: np.random.Generator | int | None = None,
        window: int = DEFAULT_STREAM_WINDOW,
    ) -> None:
        if num_tasks < 1:
            raise ConfigurationError(f"num_tasks must be >= 1, got {num_tasks}")
        if num_machines < 1:
            raise ConfigurationError(
                f"num_machines must be >= 1, got {num_machines}"
            )
        if tasks_per_instance < 1:
            raise ConfigurationError(
                f"tasks_per_instance must be >= 1, got {tasks_per_instance}"
            )
        self.num_tasks = int(num_tasks)
        self.num_machines = int(num_machines)
        self.tasks_per_instance = int(tasks_per_instance)
        self.heterogeneity = heterogeneity
        self.consistency = consistency
        self.method = method
        self._rng = rng
        self.window = int(window)

    def chunks(self) -> Iterator[np.ndarray]:
        count = -(-self.num_tasks // self.tasks_per_instance)
        emitted = 0
        for block in stream_ensemble(
            count,
            self.tasks_per_instance,
            self.num_machines,
            heterogeneity=self.heterogeneity,
            consistency=self.consistency,
            method=self.method,
            rng=self._rng,
            window=self.window,
        ):
            rows = block.reshape(-1, self.num_machines)
            take = min(rows.shape[0], self.num_tasks - emitted)
            if take <= 0:
                return
            yield np.ascontiguousarray(rows[:take])
            emitted += take


class StoreTaskSource(TaskSource):
    """Streams task rows out of a committed :class:`~repro.etc.store.ETCStore`
    entry, one instance-window at a time (memory-mapped reads, copied a
    window at a time so resident memory stays bounded)."""

    def __init__(
        self,
        store,
        key: str,
        *,
        num_tasks: int | None = None,
        window: int = DEFAULT_STREAM_WINDOW,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        batch = store.batch(key)
        count, tasks_per_instance, num_machines = batch.values.shape
        available = count * tasks_per_instance
        if num_tasks is None:
            num_tasks = available
        if not 1 <= num_tasks <= available:
            raise ConfigurationError(
                f"num_tasks must be in [1, {available}] for entry {key!r}, "
                f"got {num_tasks}"
            )
        self._batch = batch
        self.num_tasks = int(num_tasks)
        self.num_machines = int(num_machines)
        self.tasks_per_instance = int(tasks_per_instance)
        self.window = int(window)

    def chunks(self) -> Iterator[np.ndarray]:
        values = self._batch.values
        count = values.shape[0]
        emitted = 0
        for start in range(0, count, self.window):
            block = np.array(values[start : start + self.window], dtype=np.float64)
            rows = block.reshape(-1, self.num_machines)
            take = min(rows.shape[0], self.num_tasks - emitted)
            if take <= 0:
                return
            yield np.ascontiguousarray(rows[:take])
            emitted += take


def calibrate_rate(
    chunk: np.ndarray, utilization: float = DEFAULT_UTILIZATION
) -> float:
    """Arrival rate that loads the system to ``utilization``.

    A task's best-case service time is its row minimum; with ``M``
    machines draining in parallel the saturation rate is roughly
    ``M / mean(row minima)``, so the calibrated rate is that times the
    requested utilization — computed from the first streamed window so
    no extra randomness is consumed.
    """
    if not 0.0 < utilization:
        raise ConfigurationError(
            f"utilization must be positive, got {utilization}"
        )
    mean_min = float(np.mean(np.min(chunk, axis=1)))
    if mean_min <= 0:
        raise ConfigurationError("task rows must have positive service times")
    return utilization * chunk.shape[1] / mean_min


# ----------------------------------------------------------------------
# Result / sampler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RollingResult:
    """Aggregate outcome of one rolling-horizon run.

    Only aggregates are kept — a million-task run must not hold a
    per-task trace.  Accounting closes by construction:
    ``completed + len(dropped) == total_tasks`` (enforced with a
    :class:`~repro.exceptions.SimulationError` otherwise).
    """

    total_tasks: int
    completed: int
    dropped: tuple[str, ...]
    arrival_rate: float
    horizon: float
    refine_iterations: int | None
    horizons: int
    dispatches: int
    batch_max: int
    makespan: float
    sim_end: float
    mean_queue_wait: float
    max_queue_wait: float
    mean_flow: float
    peak_backlog: int
    failures: int
    recoveries: int
    slowdowns: int
    aborted: int
    retries: int

    @property
    def mean_batch(self) -> float:
        return self.dispatches / self.horizons if self.horizons else 0.0


class RollingSampler:
    """Throttled throughput sampler for rolling runs.

    Mirrors :class:`~repro.obs.timeseries.GridSampler`: fed from the
    simulation's event handlers, writes a ``repro-timeseries/1`` line
    at most every ``interval_s`` wall-clock seconds plus one forced
    final sample on :meth:`close`.  ``tasks_scheduled`` counts
    *dispatches* (tasks handed to a machine queue, the serving-loop
    headline) and ``tasks_per_s`` is its wall-clock rate.
    """

    def __init__(
        self,
        path,
        *,
        total_tasks: int,
        label: str = "",
        interval_s: float = 0.5,
        clock=time.perf_counter,
        rss_fn=rss_bytes,
    ) -> None:
        if interval_s < 0:
            raise ConfigurationError(
                f"sample interval must be >= 0, got {interval_s}"
            )
        self.log = TimeSeriesLog(path, label=label, clock=clock)
        self.total_tasks = total_tasks
        self.interval_s = interval_s
        self._clock = clock
        self._rss_fn = rss_fn
        self._last_sample: float | None = None
        self.tasks_arrived = 0
        self.tasks_scheduled = 0
        self.tasks_completed = 0
        self.tasks_dropped = 0
        self.failures = 0
        self.pending = 0
        self.backlog = 0
        self.sim_time = 0.0

    def metrics(self) -> dict:
        elapsed = self.log.elapsed()
        rate = 1.0 / elapsed if elapsed > 0 else 0.0
        return {
            "tasks_arrived": self.tasks_arrived,
            "tasks_scheduled": self.tasks_scheduled,
            "tasks_completed": self.tasks_completed,
            "tasks_dropped": self.tasks_dropped,
            "tasks_total": self.total_tasks,
            "tasks_per_s": self.tasks_scheduled * rate,
            "pending": self.pending,
            "backlog": self.backlog,
            "failures": self.failures,
            "rss_bytes": self._rss_fn(),
            "sim_time": self.sim_time,
        }

    def note(self) -> None:
        """Consider writing a sample (throttled by ``interval_s``)."""
        now = self._clock()
        if (
            self._last_sample is not None
            and now - self._last_sample < self.interval_s
        ):
            return
        self._last_sample = now
        self.log.sample(self.metrics())

    def summary(self) -> dict:
        """Headline numbers for the run ledger entry."""
        metrics = self.metrics()
        return {
            "schema": TIMESERIES_SCHEMA,
            "path": str(self.log.path),
            "samples": self.log.samples_written,
            "duration_s": self.log.elapsed(),
            "tasks_scheduled": metrics["tasks_scheduled"],
            "tasks_per_s": metrics["tasks_per_s"],
            "peak_rss_bytes": metrics["rss_bytes"],
        }

    def close(self) -> None:
        """Force a final sample and close the file (idempotent)."""
        if self.log._handle is not None:
            self._last_sample = None
            self.note()
            self.log.close()


# ----------------------------------------------------------------------
# The rolling-horizon simulation
# ----------------------------------------------------------------------
class RollingSimulation:
    """Serves a streamed workload with periodic refine-then-dispatch.

    Parameters
    ----------
    source:
        Windowed :class:`TaskSource` for task ETC rows.
    heuristic:
        Batch heuristic that maps each horizon's pending tasks.
    horizon:
        Mapping-event cadence in simulation time units.  Each event
        maps every task that arrived since the previous one.
    arrival:
        An :class:`~repro.sim.arrivals.ArrivalProcess`, a callable
        ``rate -> ArrivalProcess`` (built with the calibrated rate), or
        ``None`` for Poisson arrivals at the calibrated rate.
    utilization:
        Target load for rate calibration (ignored when ``arrival`` is
        a ready process); see :func:`calibrate_rate`.
    refine_iterations:
        Cap forwarded to :meth:`IterativeScheduler.run` —
        ``1`` dispatches the plain heuristic mapping, ``None`` runs the
        paper's technique to completion, ``k`` stops after ``k``
        iterations (original mapping included).
    plan / recovery / retry_budget / backoff_base / backoff_cap:
        Live fault injection, with the same recovery semantics as
        :class:`~repro.sim.hcsystem.FaultTolerantHCSystem` adapted to
        the rolling loop: ``remap`` sends interrupted and stranded
        tasks to the *next horizon batch*; ``requeue`` pins the victim
        to the head of its machine's queue.
    """

    def __init__(
        self,
        source: TaskSource,
        heuristic: Heuristic,
        *,
        horizon: float = 1.0,
        arrival: ArrivalProcess | Callable[[float], ArrivalProcess] | None = None,
        utilization: float = DEFAULT_UTILIZATION,
        refine_iterations: int | None = 2,
        rng: np.random.Generator | int | None = None,
        plan: FaultPlan | None = None,
        recovery: str = "remap",
        retry_budget: int = 3,
        backoff_base: float = 1.0,
        backoff_cap: float | None = None,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if refine_iterations is not None and refine_iterations < 1:
            raise ConfigurationError(
                f"refine_iterations must be >= 1 or None, got {refine_iterations}"
            )
        if recovery not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {recovery!r}; "
                f"choose from {RECOVERY_POLICIES}"
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
        self.source = source
        self.heuristic = heuristic
        self.horizon = float(horizon)
        self.arrival = arrival
        self.utilization = float(utilization)
        self.refine_iterations = refine_iterations
        self._rng = rng
        self.machines = [f"m{j}" for j in range(source.num_machines)]
        if plan is not None and set(plan.machines) != set(self.machines):
            raise ConfigurationError(
                "fault plan machine set does not match the task source "
                f"(expected {len(self.machines)} machines m0..)"
            )
        self.plan = plan
        self.recovery = recovery
        self.retry_budget = int(retry_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        return min(self.backoff_base * 2.0 ** (attempt - 1), self.backoff_cap)

    def _make_process(self, first_chunk: np.ndarray) -> tuple[ArrivalProcess, float]:
        rate = calibrate_rate(first_chunk, self.utilization)
        if self.arrival is None:
            return PoissonArrivals(rate), rate
        if isinstance(self.arrival, ArrivalProcess):
            process = self.arrival
            return process, getattr(process, "rate", rate)
        process = self.arrival(rate)
        return process, getattr(process, "rate", rate)

    # ------------------------------------------------------------------
    def run(
        self,
        sampler: RollingSampler | None = None,
        progress=None,
        progress_every: int = 10_000,
    ) -> RollingResult:
        """Serve the whole workload; returns aggregate statistics."""
        source = self.source
        total = source.num_tasks
        num_machines = source.num_machines
        machines = self.machines
        tracer = get_tracer()
        gen = (
            self._rng
            if isinstance(self._rng, np.random.Generator)
            else np.random.default_rng(self._rng)
        )
        scheduler = IterativeScheduler(self.heuristic, tie_breaker=self.tie_breaker)

        sim = Simulator()
        chunk_iter = source.chunks()
        try:
            first_chunk = next(chunk_iter)
        except StopIteration:  # pragma: no cover - sources forbid 0 tasks
            raise SimulationError("task source yielded no chunks")
        process, arrival_rate = self._make_process(first_chunk)
        process.reset()

        # --- live state -------------------------------------------------
        # Task idx -> ETC row as a list of floats (alive until done).
        rows: dict[int, list[float]] = {}
        arrival_time: dict[int, float] = {}
        pending: list[int] = []  # awaiting the next mapping event
        queues: list[deque[int]] = [deque() for _ in range(num_machines)]
        running: list[tuple[int, float, float] | None] = [None] * num_machines
        expected_free = [0.0] * num_machines
        up = [True] * num_machines
        factor = [1.0] * num_machines
        epoch = [0] * num_machines
        attempts: dict[int, int] = {}
        mapped_machine: dict[int, int] = {}
        dropped: list[str] = []
        plan_events = self.plan.events if self.plan is not None else ()
        recovery_times = sorted(
            event.time for event in plan_events if event.kind == "recover"
        )

        # --- aggregates -------------------------------------------------
        stats = {
            "arrived": 0, "dispatches": 0, "completed": 0,
            "horizons": 0, "batch_max": 0,
            "failures": 0, "recoveries": 0, "slowdowns": 0,
            "aborted": 0, "retries": 0,
        }
        agg = {
            "sum_wait": 0.0, "max_wait": 0.0, "sum_flow": 0.0,
            "makespan": 0.0, "peak_backlog": 0,
        }
        horizon_scheduled = False
        last_batch = -np.inf
        chunk_last_idx = -1
        next_task_idx = 0

        # --- helpers ----------------------------------------------------
        def backlog_size() -> int:
            # Tasks in the system (pending + queued + in flight).
            return stats["arrived"] - stats["completed"] - len(dropped)

        def sample() -> None:
            if sampler is None:
                return
            sampler.tasks_arrived = stats["arrived"]
            sampler.tasks_scheduled = stats["dispatches"]
            sampler.tasks_completed = stats["completed"]
            sampler.tasks_dropped = len(dropped)
            sampler.failures = stats["failures"]
            sampler.pending = len(pending)
            sampler.backlog = backlog_size()
            sampler.sim_time = sim.now
            sampler.note()

        def schedule_chunk(chunk: np.ndarray) -> None:
            nonlocal next_task_idx, chunk_last_idx
            count = chunk.shape[0]
            gaps = process.gaps(count, gen)
            times = float(sim.now) + np.cumsum(gaps)
            base = next_task_idx
            for i in range(count):
                sim.schedule_at(
                    float(times[i]), "task-arrival", payload=(base + i, chunk, i)
                )
            next_task_idx = base + count
            chunk_last_idx = next_task_idx - 1

        def ensure_horizon() -> None:
            nonlocal horizon_scheduled
            if horizon_scheduled:
                return
            due = max(sim.now, last_batch + self.horizon)
            sim.schedule_at(due, "rolling-horizon", priority=10)
            horizon_scheduled = True

        def try_start(j: int) -> None:
            if not up[j] or running[j] is not None or not queues[j]:
                return
            idx = queues[j].popleft()
            start = sim.now
            duration = rows[idx][j] * factor[j]
            running[j] = (idx, start, start + duration)
            sim.schedule(duration, "task-finish", payload=(idx, j, start, epoch[j]))

        def dispatch(idx: int, j: int) -> None:
            now = sim.now
            mapped_machine[idx] = j
            queues[j].append(idx)
            expected_free[j] = max(expected_free[j], now) + rows[idx][j] * factor[j]
            stats["dispatches"] += 1
            wait = now - arrival_time[idx]
            agg["sum_wait"] += wait
            if wait > agg["max_wait"]:
                agg["max_wait"] = wait
            try_start(j)

        def retry_or_drop(idx: int) -> None:
            attempts[idx] = attempts.get(idx, 0) + 1
            if attempts[idx] > self.retry_budget:
                dropped.append(f"t{idx}")
                rows.pop(idx, None)
                arrival_time.pop(idx, None)
                mapped_machine.pop(idx, None)
                if tracer.enabled:
                    tracer.count("rolling.dropped")
                return
            stats["retries"] += 1
            if tracer.enabled:
                tracer.count("rolling.retries")
            sim.schedule(
                self.backoff_delay(attempts[idx]), "task-retry", payload=idx
            )

        def map_pending() -> None:
            nonlocal horizon_scheduled
            live = [j for j in range(num_machines) if up[j]]
            if not live:
                # Defer the whole batch to the next known recovery (the
                # retry-after-recover ordering trick: priority 20 puts
                # this event after the recover at the same instant).
                index = bisect_right(recovery_times, sim.now)
                due = (
                    recovery_times[index]
                    if index < len(recovery_times)
                    else sim.now + self.horizon
                )
                sim.schedule_at(due, "rolling-horizon", priority=20)
                horizon_scheduled = True
                return
            batch = list(pending)
            pending.clear()
            stats["horizons"] += 1
            if len(batch) > stats["batch_max"]:
                stats["batch_max"] = len(batch)
            with tracer.phase(
                "rolling.horizon",
                index=stats["horizons"],
                batch=len(batch),
                live=len(live),
            ):
                values = np.array([rows[idx] for idx in batch], dtype=np.float64)
                if len(live) < num_machines:
                    values = values[:, live]
                values *= np.array([factor[j] for j in live], dtype=np.float64)
                labels = [f"t{idx}" for idx in batch]
                sub = ETCMatrix(
                    values, tasks=labels, machines=[machines[j] for j in live]
                )
                now = sim.now
                ready = [max(expected_free[j], now) for j in live]
                result = scheduler.run(
                    sub, ready_times=ready, max_iterations=self.refine_iterations
                )
                # Commit-order columns index the batch's rows and the
                # live machines, so no label is parsed back.
                tasks, machine_idx = result.final_mapping().commit_order()
                for t, m in zip(tasks, machine_idx):
                    dispatch(batch[t], live[m])

        # --- handlers ---------------------------------------------------
        def on_arrival(payload) -> None:
            idx, chunk, i = payload
            rows[idx] = chunk[i].tolist()
            arrival_time[idx] = sim.now
            pending.append(idx)
            stats["arrived"] += 1
            backlog = backlog_size()
            if backlog > agg["peak_backlog"]:
                agg["peak_backlog"] = backlog
            ensure_horizon()
            if idx == chunk_last_idx:
                try:
                    schedule_chunk(next(chunk_iter))
                except StopIteration:
                    pass
            sample()

        def on_horizon(_) -> None:
            nonlocal horizon_scheduled, last_batch
            horizon_scheduled = False
            last_batch = sim.now
            if pending:
                map_pending()
            sample()

        def on_task_finish(payload) -> None:
            idx, j, start, start_epoch = payload
            if start_epoch != epoch[j]:
                return  # stale: machine failed after this was scheduled
            running[j] = None
            stats["completed"] += 1
            finish = sim.now
            agg["sum_flow"] += finish - arrival_time[idx]
            if finish > agg["makespan"]:
                agg["makespan"] = finish
            rows.pop(idx, None)
            arrival_time.pop(idx, None)
            attempts.pop(idx, None)
            mapped_machine.pop(idx, None)
            try_start(j)
            sample()

        def on_task_retry(idx) -> None:
            if idx not in rows:
                return  # dropped meanwhile
            if self.recovery == "requeue":
                j = mapped_machine[idx]
                queues[j].appendleft(idx)
                try_start(j)
                return
            pending.append(idx)
            ensure_horizon()

        def on_machine_fail(fault) -> None:
            j = machines.index(fault.machine)
            if not up[j]:
                return
            up[j] = False
            epoch[j] += 1
            stats["failures"] += 1
            if tracer.enabled:
                tracer.count("rolling.failures")
            victim = running[j]
            running[j] = None
            if self.recovery == "remap" and queues[j]:
                # Stranded queued tasks never failed: back to the next
                # batch without charging their retry budgets.
                stranded = list(queues[j])
                queues[j].clear()
                pending.extend(stranded)
                ensure_horizon()
            if victim is not None:
                stats["aborted"] += 1
                retry_or_drop(victim[0])
            sample()

        def on_machine_recover(fault) -> None:
            j = machines.index(fault.machine)
            if up[j]:
                return
            up[j] = True
            stats["recoveries"] += 1
            try_start(j)

        def on_machine_slow(fault) -> None:
            j = machines.index(fault.machine)
            factor[j] = fault.factor
            stats["slowdowns"] += 1

        def on_machine_restore(fault) -> None:
            factor[machines.index(fault.machine)] = 1.0

        sim.on("task-arrival", on_arrival)
        sim.on("rolling-horizon", on_horizon)
        sim.on("task-finish", on_task_finish)
        sim.on("task-retry", on_task_retry)
        sim.on("machine-fail", on_machine_fail)
        sim.on("machine-recover", on_machine_recover)
        sim.on("machine-slow", on_machine_slow)
        sim.on("machine-restore", on_machine_restore)

        with tracer.phase(
            "rolling.run",
            tasks=total,
            machines=num_machines,
            horizon=self.horizon,
            heuristic=self.heuristic.name,
        ):
            schedule_chunk(first_chunk)
            # Faults run at a lower priority than same-instant finishes,
            # matching FaultTolerantHCSystem semantics.
            for fault in plan_events:
                sim.schedule_at(
                    fault.time, f"machine-{fault.kind}", payload=fault, priority=10
                )
            sim.run(
                max_events=12 * (total + 1) * (self.retry_budget + 2)
                + 6 * len(plan_events)
                + 50_000,
                progress=progress,
                progress_every=progress_every,
            )

        if stats["completed"] + len(dropped) != total or stats["arrived"] != total:
            raise SimulationError(
                f"rolling accounting failed: arrived {stats['arrived']}, "
                f"completed {stats['completed']}, dropped {len(dropped)} "
                f"of {total} tasks"
            )
        if sampler is not None:
            sample()
        return RollingResult(
            total_tasks=total,
            completed=stats["completed"],
            dropped=tuple(dropped),
            arrival_rate=float(arrival_rate),
            horizon=self.horizon,
            refine_iterations=self.refine_iterations,
            horizons=stats["horizons"],
            dispatches=stats["dispatches"],
            batch_max=stats["batch_max"],
            makespan=agg["makespan"],
            sim_end=sim.now,
            mean_queue_wait=(
                agg["sum_wait"] / stats["dispatches"] if stats["dispatches"] else 0.0
            ),
            max_queue_wait=agg["max_wait"],
            mean_flow=(
                agg["sum_flow"] / stats["completed"] if stats["completed"] else 0.0
            ),
            peak_backlog=agg["peak_backlog"],
            failures=stats["failures"],
            recoveries=stats["recoveries"],
            slowdowns=stats["slowdowns"],
            aborted=stats["aborted"],
            retries=stats["retries"],
        )
