"""Rolling-horizon online serving simulation.

This is the layer that turns the reproduction into a *serving system*:
tasks arrive continuously (Poisson, bursty, or trace-replay gaps from
:mod:`repro.sim.arrivals`), and every ``horizon`` time units the batch
of tasks that arrived since the previous mapping event is mapped by a
pluggable heuristic and then **refined by the paper's iterative
technique** (:class:`~repro.core.iterative.IterativeScheduler`) before
being dispatched to the machines of a
:class:`~repro.sim.executor.MachineExecutor`, the same executor the
static and dynamic simulators run on.  A seeded
:class:`~repro.sim.faults.FaultPlan` may inject faults live; ``remap``
recovery sends displaced tasks to the next horizon batch.

Task definitions stream in bounded windows from a
:class:`TaskSource` — either generated on the fly
(:class:`EnsembleTaskSource`, wrapping ``stream_ensemble``) or
memory-mapped out of an :class:`~repro.etc.store.ETCStore`
(:class:`StoreTaskSource`) — so a million-task run holds one window of
definitions plus the live backlog, never the whole workload.

Observability: one ``rolling.horizon`` span per mapping event under a
``rolling.run`` phase, and an optional :class:`RollingSampler`
throughput log (``repro-timeseries/1``).  See docs/rolling.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.iterative import IterativeScheduler, check_iteration_cap
from repro.core.ties import DeterministicTieBreaker, TieBreaker
from repro.etc.generation import (
    DEFAULT_STREAM_WINDOW,
    Consistency,
    Heterogeneity,
    stream_ensemble,
)
from repro.etc.matrix import ETCMatrix
from repro.exceptions import (
    ConfigurationError,
    ETCShapeError,
    ETCValueError,
    SimulationError,
)
from repro.heuristics.base import Heuristic
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import get_tracer
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.engine import Simulator
from repro.sim.executor import MachineExecutor, Recovery
from repro.sim.faults import FaultPlan

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

    def _rows(self, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Flatten ``blocks`` into task rows, trimmed to ``num_tasks``."""
        emitted = 0
        for block in blocks:
            rows = block.reshape(-1, self.num_machines)
            take = min(rows.shape[0], self.num_tasks - emitted)
            if take <= 0:
                return
            yield np.ascontiguousarray(rows[:take])
            emitted += take


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
        return self._rows(
            stream_ensemble(
                -(-self.num_tasks // self.tasks_per_instance),
                self.tasks_per_instance,
                self.num_machines,
                heterogeneity=self.heterogeneity,
                consistency=self.consistency,
                method=self.method,
                rng=self._rng,
                window=self.window,
            )
        )


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
        return self._rows(
            np.array(values[start : start + self.window], dtype=np.float64)
            for start in range(0, values.shape[0], self.window)
        )


def _checked_chunks(
    chunks: Iterable[np.ndarray], num_machines: int
) -> Iterator[np.ndarray]:
    """``chunks`` after the checks the :class:`ETCMatrix` constructor
    makes, once per window: 2-D rows of ``num_machines`` finite,
    strictly positive ETCs (so horizon batches can skip them)."""
    for chunk in chunks:
        if chunk.ndim != 2 or chunk.shape[1] != num_machines:
            raise ETCShapeError(
                f"task source chunk has shape {chunk.shape}, expected "
                f"(rows, {num_machines})"
            )
        # NaN fails both comparisons.
        if not ((chunk > 0.0).all() and (chunk < np.inf).all()):
            raise ETCValueError("task ETCs must be finite and strictly positive")
        yield chunk


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


class RollingSampler(TimeSeriesSampler):
    """Throttled throughput sampler for rolling runs.

    Fed from the simulation's event handlers, which set the counters
    and call :meth:`note`.  ``tasks_scheduled`` counts *dispatches*
    (tasks handed to a machine queue, the serving-loop headline) and
    ``tasks_per_s`` is its wall-clock rate.  The summary's
    ``peak_rss_bytes`` is the largest RSS any sample read.
    """

    def __init__(self, path, *, total_tasks: int, **options) -> None:
        super().__init__(path, **options)
        self.total_tasks = total_tasks
        self.tasks_arrived = 0
        self.tasks_completed = 0
        self.tasks_dropped = 0
        self.failures = 0
        self.pending = 0
        self.backlog = 0
        self.sim_time = 0.0
        self.peak_rss_bytes = 0

    def metrics(self) -> dict:
        elapsed = self.log.elapsed()
        rate = 1.0 / elapsed if elapsed > 0 else 0.0
        rss = self._rss_fn()
        self.peak_rss_bytes = max(self.peak_rss_bytes, rss)
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
            "rss_bytes": rss,
            "sim_time": self.sim_time,
        }

    def _summary_extra(self, metrics: dict) -> dict:
        return {"peak_rss_bytes": self.peak_rss_bytes}


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
        Live fault injection on the shared executor (as in
        :class:`~repro.sim.hcsystem.FaultTolerantHCSystem`), except that
        ``remap`` sends displaced tasks to the *next horizon batch*.
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
        check_iteration_cap(refine_iterations, "refine_iterations")
        self._recovery = Recovery(recovery, retry_budget, backoff_base, backoff_cap)
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
        self.retry_budget = self._recovery.retry_budget
        self.backoff_base = self._recovery.backoff_base
        self.backoff_cap = self._recovery.backoff_cap
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return self._recovery.backoff_delay(attempt)

    def _make_process(self, first_chunk: np.ndarray) -> tuple[ArrivalProcess, float]:
        rate = calibrate_rate(first_chunk, self.utilization)
        if self.arrival is None:
            return PoissonArrivals(rate), rate
        process = (
            self.arrival if isinstance(self.arrival, ArrivalProcess) else self.arrival(rate)
        )
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
        gen = np.random.default_rng(self._rng)  # a Generator passes through
        scheduler = IterativeScheduler(self.heuristic, tie_breaker=self.tie_breaker)

        sim = Simulator()
        chunk_iter = _checked_chunks(source.chunks(), num_machines)
        try:
            first_chunk = next(chunk_iter)
        except StopIteration:  # pragma: no cover - sources forbid 0 tasks
            raise SimulationError("task source yielded no chunks")
        process, arrival_rate = self._make_process(first_chunk)
        process.reset()

        # Task idx -> ETC row as a list of floats (alive until it
        # completes or is dropped).
        rows: dict[int, list[float]] = {}
        arrival_time: dict[int, float] = {}
        pending: list[int] = []  # awaiting the next mapping event
        agg = {
            "arrived": 0, "dispatches": 0, "horizons": 0, "batch_max": 0,
            "sum_wait": 0.0, "max_wait": 0.0, "sum_flow": 0.0,
            "makespan": 0.0, "peak_backlog": 0,
        }
        horizon_scheduled = False
        last_batch = -np.inf
        next_task_idx = 0

        def on_complete(idx: int, j: int, start: float) -> None:
            finish = sim.now
            agg["sum_flow"] += finish - arrival_time.pop(idx)
            if finish > agg["makespan"]:
                agg["makespan"] = finish
            del rows[idx]
            sample()

        def on_drop(idx: int) -> None:
            del rows[idx], arrival_time[idx]

        def remap(idx: int) -> bool:
            # Interrupted and stranded tasks wait for the next horizon.
            pending.append(idx)
            ensure_horizon()
            return True

        executor = MachineExecutor(
            sim, rows, machines, task_name="t{}".format, on_complete=on_complete,
            remap=remap, on_drop=on_drop, plan=self.plan, recovery=self._recovery,
        )
        stats = executor.stats
        up, factor = executor.up, executor.factor
        expected_free, dispatch = executor.expected_free, executor.dispatch

        def backlog_size() -> int:
            # Tasks in the system (pending + queued + in flight).
            return agg["arrived"] - stats["completed"] - stats["dropped"]

        def sample() -> None:
            if sampler is None:
                return
            sampler.tasks_arrived = agg["arrived"]
            sampler.tasks_scheduled = agg["dispatches"]
            sampler.tasks_completed = stats["completed"]
            sampler.tasks_dropped = stats["dropped"]
            sampler.failures = stats["failures"]
            sampler.pending = len(pending)
            sampler.backlog = backlog_size()
            sampler.sim_time = sim.now
            sampler.note()

        def schedule_chunk(chunk: np.ndarray) -> None:
            nonlocal next_task_idx
            times = float(sim.now) + np.cumsum(process.gaps(len(chunk), gen))
            for i, time in enumerate(times.tolist()):
                sim.schedule_at(time, "task-arrival", (next_task_idx + i, chunk, i))
            next_task_idx += len(chunk)

        def ensure_horizon() -> None:
            nonlocal horizon_scheduled
            if horizon_scheduled:
                return
            due = max(sim.now, last_batch + self.horizon)
            sim.schedule_at(due, "rolling-horizon", priority=10)
            horizon_scheduled = True

        def map_pending() -> None:
            nonlocal horizon_scheduled
            live = [j for j in range(num_machines) if up[j]]
            if not live:
                # Defer the whole batch to the next known recovery
                # (priority 20 puts it after the recover at that instant).
                due = executor.next_recovery(sim.now)
                if due is None:
                    due = sim.now + self.horizon
                sim.schedule_at(due, "rolling-horizon", priority=20)
                horizon_scheduled = True
                return
            batch = list(pending)
            pending.clear()
            agg["horizons"] += 1
            if len(batch) > agg["batch_max"]:
                agg["batch_max"] = len(batch)
            with tracer.phase(
                "rolling.horizon",
                index=agg["horizons"],
                batch=len(batch),
                live=len(live),
            ):
                values = np.array([rows[idx] for idx in batch], dtype=np.float64)
                if len(live) < num_machines:
                    values = values[:, live]
                values *= np.array([factor[j] for j in live], dtype=np.float64)
                # Trusted: the rows come from chunks checked on arrival
                # (_checked_chunks), scaled by the finite positive
                # factors FaultEvent validates; task and machine labels
                # are distinct by construction.
                sub = ETCMatrix._from_trusted(
                    values,
                    tuple([f"t{idx}" for idx in batch]),
                    tuple([machines[j] for j in live]),
                )
                now = sim.now
                ready = [max(expected_free[j], now) for j in live]
                result = scheduler.run(
                    sub, ready_times=ready, max_iterations=self.refine_iterations
                )
                # The technique's commit order indexes the batch's rows
                # and the live machines, so no label is parsed back.
                tasks, machine_idx = result.commit_order()
                agg["dispatches"] += len(tasks)
                for t, m in zip(tasks, machine_idx):
                    idx = batch[t]
                    wait = now - arrival_time[idx]
                    agg["sum_wait"] += wait
                    if wait > agg["max_wait"]:
                        agg["max_wait"] = wait
                    dispatch(idx, live[m])

        def on_arrival(payload) -> None:
            idx, chunk, i = payload
            rows[idx] = chunk[i].tolist()
            arrival_time[idx] = sim.now
            pending.append(idx)
            agg["arrived"] += 1
            backlog = backlog_size()
            if backlog > agg["peak_backlog"]:
                agg["peak_backlog"] = backlog
            ensure_horizon()
            if i == len(chunk) - 1:  # the window's last arrival: stream the next
                chunk = next(chunk_iter, None)
                if chunk is not None:
                    schedule_chunk(chunk)
            sample()

        def on_horizon(_) -> None:
            nonlocal horizon_scheduled, last_batch
            horizon_scheduled = False
            last_batch = sim.now
            if pending:
                map_pending()
            sample()

        sim.on("task-arrival", on_arrival)
        sim.on("rolling-horizon", on_horizon)

        with tracer.phase(
            "rolling.run",
            tasks=total,
            machines=num_machines,
            horizon=self.horizon,
            heuristic=self.heuristic.name,
        ):
            schedule_chunk(first_chunk)
            executor.schedule_plan()
            faults = len(self.plan.events) if self.plan else 0
            sim.run(
                max_events=12 * (total + 1) * (self.retry_budget + 2) + 6 * faults + 50_000,
                progress=progress,
                progress_every=progress_every,
            )

        executor.check_accounting(total)
        if sampler is not None:
            sample()
        dispatches = agg["dispatches"]
        return RollingResult(
            total_tasks=total,
            completed=stats["completed"],
            dropped=tuple(f"t{idx}" for idx in executor.dropped),
            arrival_rate=float(arrival_rate),
            horizon=self.horizon,
            refine_iterations=self.refine_iterations,
            horizons=agg["horizons"],
            dispatches=dispatches,
            batch_max=agg["batch_max"],
            makespan=agg["makespan"],
            sim_end=sim.now,
            mean_queue_wait=agg["sum_wait"] / dispatches if dispatches else 0.0,
            max_queue_wait=agg["max_wait"],
            mean_flow=(
                agg["sum_flow"] / stats["completed"] if stats["completed"] else 0.0
            ),
            peak_backlog=agg["peak_backlog"],
            **executor.fault_counts(),
        )
