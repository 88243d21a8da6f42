"""Execution traces produced by the HC system simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError

__all__ = ["TaskExecution", "ExecutionTrace"]


@dataclass(frozen=True)
class TaskExecution:
    """One task's measured execution interval on a machine.

    The interval is validated on construction: a task cannot finish
    before it starts, nor start before it arrives (the latter would
    silently yield a *negative* :attr:`queue_wait` and corrupt every
    wait-time statistic downstream).
    """

    task: str
    machine: str
    start: float
    finish: float
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise SimulationError(
                f"task {self.task!r} finishes before it starts "
                f"({self.finish} < {self.start})"
            )
        if self.start < self.arrival:
            raise SimulationError(
                f"task {self.task!r} starts before it arrives "
                f"({self.start} < {self.arrival})"
            )

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def queue_wait(self) -> float:
        """Time between arrival (or time 0 for static runs) and start."""
        return self.start - self.arrival


class ExecutionTrace:
    """Ordered record of everything the simulated HC suite executed."""

    def __init__(self, machines: tuple[str, ...]) -> None:
        self._machines = machines
        self._records: list[TaskExecution] = []
        self._by_task: dict[str, TaskExecution] = {}

    @property
    def machines(self) -> tuple[str, ...]:
        return self._machines

    @property
    def records(self) -> tuple[TaskExecution, ...]:
        return tuple(self._records)

    def add(self, record: TaskExecution) -> None:
        if record.task in self._by_task:
            raise SimulationError(f"task {record.task!r} executed twice")
        if record.machine not in self._machines:
            raise SimulationError(f"unknown machine {record.machine!r} in trace")
        self._records.append(record)
        self._by_task[record.task] = record

    def execution_of(self, task: str) -> TaskExecution:
        try:
            return self._by_task[task]
        except KeyError:
            raise SimulationError(f"task {task!r} never executed") from None

    def machine_records(self, machine: str) -> tuple[TaskExecution, ...]:
        """Executions on ``machine`` in start-time order."""
        recs = [r for r in self._records if r.machine == machine]
        recs.sort(key=lambda r: (r.start, r.task))
        return tuple(recs)

    def machine_finish_times(self, initial_ready=None) -> dict[str, float]:
        """Measured finishing time per machine.

        Machines that executed nothing report their initial ready time
        (0 when ``initial_ready`` is omitted).
        """
        base = dict.fromkeys(self._machines, 0.0)
        if initial_ready is not None:
            base.update({m: float(v) for m, v in initial_ready.items()})
        for record in self._records:
            base[record.machine] = max(base[record.machine], record.finish)
        return base

    def makespan(self) -> float:
        """Largest measured finishing time (0 for an empty trace)."""
        return max((r.finish for r in self._records), default=0.0)

    def machine_busy_time(self, machine: str) -> float:
        """Total busy (executing) time of ``machine``."""
        return sum(r.duration for r in self.machine_records(machine))

    def utilisation(self, machine: str) -> float:
        """Busy time over the trace makespan (0 for an empty trace)."""
        span = self.makespan()
        if span <= 0:
            return 0.0
        return self.machine_busy_time(machine) / span

    def mean_queue_wait(self) -> float:
        """Mean time tasks spent waiting to start (dynamic workloads)."""
        if not self._records:
            return 0.0
        return sum(r.queue_wait for r in self._records) / len(self._records)

    def __len__(self) -> int:
        return len(self._records)
