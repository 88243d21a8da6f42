"""One machine executor under every simulator.

The static, fault-injected, dynamic and rolling-horizon simulators
differ only in *when* they map tasks to machines (their cadence).  What
happens to a mapped task lives here, in index space: task ``idx`` runs
on machine ``j`` for ``rows[idx][j]`` times the machine's slowdown
factor, in FIFO order per machine, and never before the machine's
initial ready time.

A failure aborts the running task (its finish event goes stale through
the machine's ``epoch``); the task is retried after bounded exponential
backoff until its retry budget is spent, then dropped and reported.
Fault events run at priority 10, after same-instant task finishes, so a
task completing exactly when its machine dies still counts.  Fault
counters, ``sim.fault.*`` events and the ``sim.requeue_latency``
histogram flow through the current :mod:`repro.obs` tracer.

A cadence supplies two callables: ``on_complete(idx, j, start)``, called
at each finish instant, and ``remap(idx)`` for the ``remap`` recovery
policy, which places a displaced task and returns ``False`` when no
machine can take it now.  ``requeue`` recovery is shared: the task goes
back to the head of its mapped machine's queue.  An optional
``on_drop(idx)`` is called once a task is dropped, so a cadence can free
the task's state as it does on completion.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.tracer import get_tracer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan

__all__ = ["RECOVERY_POLICIES", "FAULT_COUNTS", "Recovery", "MachineExecutor"]

#: Recovery policies for tasks interrupted by a machine failure.
RECOVERY_POLICIES = ("requeue", "remap")

#: Fault counters every fault-injected result reports.
FAULT_COUNTS = ("failures", "recoveries", "slowdowns", "aborted", "retries")


@dataclass(frozen=True)
class Recovery:
    """Validated recovery settings (``backoff_cap`` defaults to
    ``32 * backoff_base``)."""

    policy: str = "requeue"
    retry_budget: int = 3
    backoff_base: float = 1.0
    backoff_cap: float | None = None

    def __post_init__(self) -> None:
        if self.policy not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.policy!r}; "
                f"choose from {RECOVERY_POLICIES}"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base <= 0:
            raise ConfigurationError(
                f"backoff_base must be positive, got {self.backoff_base}"
            )
        cap = 32.0 * self.backoff_base if self.backoff_cap is None else self.backoff_cap
        if cap < self.backoff_base:
            raise ConfigurationError(
                f"backoff_cap {cap} must be >= backoff_base {self.backoff_base}"
            )
        object.__setattr__(self, "retry_budget", int(self.retry_budget))
        object.__setattr__(self, "backoff_base", float(self.backoff_base))
        object.__setattr__(self, "backoff_cap", float(cap))

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return min(self.backoff_base * 2.0 ** (attempt - 1), self.backoff_cap)


class MachineExecutor:
    """Per-machine FIFO execution over one :class:`Simulator`.

    ``rows[idx][j]`` is the ETC of task ``idx`` on machine ``j`` (row
    lists, in a list or a dict); ``task_name(idx)`` labels tasks in
    fault events.
    """

    def __init__(
        self,
        sim: Simulator,
        rows,
        machines: Sequence[str],
        *,
        task_name: Callable[[int], str],
        on_complete: Callable[[int, int, float], None],
        remap: Callable[[int], bool] | None = None,
        on_drop: Callable[[int], None] | None = None,
        plan: FaultPlan | None = None,
        recovery: Recovery | None = None,
        ready_at: Sequence[float] | None = None,
    ) -> None:
        count = len(machines)
        self.sim = sim
        self.machines = tuple(machines)
        self.task_name = task_name
        self.plan = plan
        self.recovery = recovery or Recovery()
        self._remap = remap
        self._on_drop = on_drop
        self.queues: list[deque[int]] = [deque() for _ in range(count)]
        #: (task, start, end) of the task each machine runs, else None.
        self.running: list[tuple[int, float, float] | None] = [None] * count
        self.up = up = [True] * count
        self.factor = factor = [1.0] * count
        self.epoch = epoch = [0] * count
        self.ready_at = [0.0] * count if ready_at is None else [float(t) for t in ready_at]
        self.expected_free = list(self.ready_at)
        self.mapped: dict[int, int] = {}
        self.attempts: dict[int, int] = {}
        self.dropped: list[int] = []
        self.stats = dict.fromkeys(("completed", "requeues", "dropped", *FAULT_COUNTS), 0)
        self.tracer = tracer = get_tracer()
        #: Sorted recovery times, so work stuck behind an all-machines-down
        #: outage jumps to the next recovery instead of polling.
        self._recovery_times = sorted(
            e.time for e in (plan.events if plan else ()) if e.kind == "recover"
        )
        #: When each retried task last failed (for sim.requeue_latency).
        self._last_failure: dict[int, float] = {}

        # The hot path runs once or twice per task: closures over the
        # state lists, not methods reading attributes.
        queues, running, ready_at = self.queues, self.running, self.ready_at
        expected_free, mapped, attempts = self.expected_free, self.mapped, self.attempts
        stats, last_failure, schedule = self.stats, self._last_failure, sim.schedule

        def try_start(j: int) -> None:
            if running[j] is not None or not up[j]:
                return
            queue = queues[j]
            if not queue:
                return
            now = sim.now
            if now < ready_at[j]:
                return  # its machine-ready event starts it
            idx = queue.popleft()
            duration = rows[idx][j] * factor[j]
            running[j] = (idx, now, now + duration)
            if last_failure:
                failed_at = last_failure.pop(idx, None)
                if failed_at is not None and tracer.enabled:
                    tracer.observe("sim.requeue_latency", now - failed_at)
            schedule(duration, "task-finish", (idx, j, now, epoch[j]))

        def dispatch(idx: int, j: int) -> None:
            """Append task ``idx`` to machine ``j``'s queue."""
            mapped[idx] = j
            queues[j].append(idx)
            expected_free[j] = max(expected_free[j], sim.now) + rows[idx][j] * factor[j]
            try_start(j)

        def on_task_finish(payload) -> None:
            idx, j, start, start_epoch = payload
            if start_epoch != epoch[j]:
                return  # stale: the machine failed after this was scheduled
            running[j] = None
            stats["completed"] += 1
            attempts.pop(idx, None)
            mapped.pop(idx, None)
            on_complete(idx, j, start)
            try_start(j)

        self.try_start = try_start
        self.dispatch = dispatch
        sim.on("machine-ready", try_start)
        sim.on("task-finish", on_task_finish)
        sim.on("task-retry", self._on_task_retry)
        sim.on("machine-fail", self._on_machine_fail)
        sim.on("machine-recover", self._on_machine_recover)
        sim.on("machine-slow", self._on_machine_slow)
        sim.on("machine-restore", self._on_machine_restore)

    def schedule_plan(self) -> None:
        """Schedule the fault plan's events (priority 10)."""
        index = {machine: j for j, machine in enumerate(self.machines)}
        for fault in self.plan.events if self.plan else ():
            self.sim.schedule_at(
                fault.time,
                f"machine-{fault.kind}",
                (index[fault.machine], fault.factor),
                priority=10,
            )

    def count(self, stat: str, event: str | None = None, **fields) -> None:
        """Count ``stat`` in :attr:`stats` and as ``sim.<stat>``; emit
        ``sim.fault.<event>`` with ``fields`` when tracing."""
        self.stats[stat] += 1
        if self.tracer.enabled:
            self.tracer.count(f"sim.{stat}")
            if event:
                self.tracer.event(f"sim.fault.{event}", **fields)

    def fault_counts(self) -> dict[str, int]:
        return {name: self.stats[name] for name in FAULT_COUNTS}

    def next_recovery(self, now: float) -> float | None:
        """Time of the plan's first recovery after ``now``, if any."""
        index = bisect_right(self._recovery_times, now)
        return self._recovery_times[index] if index < len(self._recovery_times) else None

    def retry_or_drop(self, idx: int) -> None:
        """Charge interrupted task ``idx`` one attempt: schedule its
        retry after backoff, or drop it once the budget is spent."""
        now = self.sim.now
        attempt = self.attempts[idx] = self.attempts.get(idx, 0) + 1
        if attempt > self.recovery.retry_budget:
            self.dropped.append(idx)
            self._last_failure.pop(idx, None)
            del self.attempts[idx]
            self.mapped.pop(idx, None)
            self.count("dropped", "drop", task=self.task_name(idx), time=now)
            if self._on_drop is not None:
                self._on_drop(idx)
            return
        self._last_failure[idx] = now
        delay = self.recovery.backoff_delay(attempt)
        self.count("retries", "retry", task=self.task_name(idx), attempt=attempt, delay=delay)
        self.sim.schedule(delay, "task-retry", idx)

    def check_accounting(self, total: int) -> None:
        """Raise unless each of ``total`` tasks completed or was dropped."""
        completed, dropped = self.stats["completed"], len(self.dropped)
        if completed + dropped != total:
            raise SimulationError(
                f"accounting failed: completed {completed} + dropped "
                f"{dropped} of {total} tasks"
            )

    def _on_task_retry(self, idx: int) -> None:
        if self.recovery.policy == "requeue":
            j = self.mapped[idx]
            self.count("requeues")
            self.queues[j].appendleft(idx)
            self.try_start(j)
        elif not self._remap(idx):
            # Every machine is down: jump to the next recovery in the
            # plan (no budget charge; the task did not fail again).
            # Priority 20 runs the retry after that instant's recover
            # event (priority 10), so the machine is back up.
            due = self.next_recovery(self.sim.now)
            if due is None:  # no recovery on the books: poll instead
                self.sim.schedule(self.recovery.backoff_base, "task-retry", idx)
            else:
                self.sim.schedule_at(due, "task-retry", idx, priority=20)

    def _on_machine_fail(self, payload) -> None:
        j = payload[0]
        if not self.up[j]:
            return
        self.up[j] = False
        self.epoch[j] += 1
        victim, self.running[j] = self.running[j], None
        queue = self.queues[j]
        self.count(
            "failures", "fail", machine=self.machines[j], time=self.sim.now,
            running=self.task_name(victim[0]) if victim else None, queued=len(queue),
        )
        if self.recovery.policy == "remap" and queue:
            # Queued tasks never failed themselves: they move at once,
            # without backoff, and keep their retry budgets.
            stranded = list(queue)
            queue.clear()
            for idx in stranded:
                if not self._remap(idx):
                    queue.append(idx)  # no machine can take it; wait here
        if victim is not None:
            self.stats["aborted"] += 1
            self.retry_or_drop(victim[0])

    def _on_machine_recover(self, payload) -> None:
        j = payload[0]
        if not self.up[j]:
            self.up[j] = True
            self.count("recoveries", "recover", machine=self.machines[j], time=self.sim.now)
            self.try_start(j)

    def _on_machine_slow(self, payload) -> None:
        j, factor = payload
        self.factor[j] = factor
        self.count(
            "slowdowns", "slow", machine=self.machines[j], time=self.sim.now,
            factor=factor,
        )

    def _on_machine_restore(self, payload) -> None:
        self.factor[payload[0]] = 1.0
