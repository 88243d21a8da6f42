"""Mappings, ready times and completion times (paper Section 2).

A *mapping* assigns each task to one machine.  Machines execute their
tasks one at a time in assignment order starting from their *initial
ready time*; the completion time of a new task ``t`` on machine ``m`` is

    CT(t, m) = ETC(t, m) + RT(m)                         (paper Eq. 1)

where ``RT(m)`` is the machine's current ready time given the tasks
already assigned to it.  A machine's *finishing time* is its ready time
after all of its tasks; the *makespan* is the largest finishing time and
the *makespan machine* is the machine attaining it.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_argmax
from repro.etc.matrix import ETCMatrix
from repro.exceptions import MappingError, UnmappedTaskError

__all__ = [
    "Assignment",
    "Mapping",
    "ready_time_vector",
    "finish_times_for_vector",
]


@dataclass(frozen=True)
class Assignment:
    """One task-to-machine assignment with its timing.

    ``order`` is the global position in the heuristic's assignment
    sequence (0-based); ``start`` is the machine ready time at assignment
    and ``completion = start + ETC(task, machine)``.
    """

    task: str
    machine: str
    start: float
    completion: float
    order: int


def ready_time_vector(
    etc: ETCMatrix,
    ready_times: MappingABC[str, float] | Sequence[float] | None,
) -> np.ndarray:
    """Normalise initial ready times to a float vector over ``etc.machines``.

    ``None`` means all zeros (the common simplifying assumption used in
    the paper's proofs and examples).
    """
    if ready_times is None:
        return np.zeros(etc.num_machines, dtype=np.float64)
    if isinstance(ready_times, MappingABC):
        unknown = set(ready_times) - set(etc.machines)
        if unknown:
            raise MappingError(f"ready times reference unknown machines {sorted(unknown)}")
        vec = np.array(
            [float(ready_times.get(m, 0.0)) for m in etc.machines], dtype=np.float64
        )
    else:
        vec = np.asarray(ready_times, dtype=np.float64)
        if vec.shape != (etc.num_machines,):
            raise MappingError(
                f"ready time vector has shape {vec.shape}, "
                f"expected ({etc.num_machines},)"
            )
        vec = vec.copy()
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise MappingError("ready times must be finite and non-negative")
    return vec


class Mapping:
    """A (possibly partial) resource allocation under construction.

    Heuristics create a ``Mapping`` over a (restricted) ETC matrix and
    call :meth:`assign` once per task; the object maintains machine ready
    times incrementally so each ``CT`` query is O(1).

    The class intentionally supports *only* append-style construction —
    the heuristics in the paper never migrate an already-committed task
    (Sufferage's within-pass preemption is tentative state inside the
    heuristic, committed per pass).
    """

    __slots__ = (
        "_etc",
        "_initial_ready",
        "_ready",
        "_assignments",
        "_by_task",
        "_by_machine",
    )

    def __init__(
        self,
        etc: ETCMatrix,
        ready_times: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self._etc = etc
        self._initial_ready = ready_time_vector(etc, ready_times)
        self._ready = self._initial_ready.copy()
        self._assignments: list[Assignment] = []
        self._by_task: dict[str, Assignment] = {}
        # Per-machine task lists in assignment order, maintained by
        # assign() so machine_tasks() is O(tasks on that machine), not a
        # full scan (the iterative freeze step calls it every iteration).
        self._by_machine: list[list[str]] = [[] for _ in range(etc.num_machines)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def etc(self) -> ETCMatrix:
        return self._etc

    @property
    def machines(self) -> tuple[str, ...]:
        return self._etc.machines

    @property
    def tasks(self) -> tuple[str, ...]:
        """All tasks of the underlying ETC matrix (mapped or not)."""
        return self._etc.tasks

    @property
    def assignments(self) -> tuple[Assignment, ...]:
        """Assignments in the order they were made."""
        return tuple(self._assignments)

    @property
    def num_assigned(self) -> int:
        return len(self._assignments)

    def is_complete(self) -> bool:
        """True when every task of the ETC matrix has been assigned."""
        return len(self._assignments) == self._etc.num_tasks

    def is_assigned(self, task: str) -> bool:
        return task in self._by_task

    def unmapped_tasks(self) -> tuple[str, ...]:
        """Tasks not yet assigned, in ETC row order."""
        return tuple(t for t in self._etc.tasks if t not in self._by_task)

    def assignment_of(self, task: str) -> Assignment:
        try:
            return self._by_task[task]
        except KeyError:
            raise UnmappedTaskError(f"task {task!r} is not mapped") from None

    def machine_of(self, task: str) -> str:
        return self.assignment_of(task).machine

    def machine_tasks(self, machine: str) -> tuple[str, ...]:
        """Tasks on ``machine`` in execution (assignment) order."""
        return tuple(self._by_machine[self._etc.machine_index(machine)])

    # ------------------------------------------------------------------
    # Timing queries — Eq. (1)
    # ------------------------------------------------------------------
    def ready_time(self, machine: str) -> float:
        """Current ready time ``RT(m)`` given tasks assigned so far."""
        return float(self._ready[self._etc.machine_index(machine)])

    def ready_times(self) -> np.ndarray:
        """Copy of the current ready-time vector over ``self.machines``."""
        return self._ready.copy()

    def ready_times_view(self) -> np.ndarray:
        """The *live* internal ready-time vector (no copy).

        Fast path for heuristic kernels that read ready times every
        round: the array mutates as assignments are committed.  Callers
        must treat it as read-only and never hold it across mappings.
        """
        return self._ready

    def initial_ready_times(self) -> np.ndarray:
        """Copy of the initial ready-time vector."""
        return self._initial_ready.copy()

    def completion_time_if(self, task: str, machine: str) -> float:
        """``CT(t, m) = ETC(t, m) + RT(m)`` without committing (Eq. 1)."""
        return self._etc.etc(task, machine) + self.ready_time(machine)

    def completion_times_if(self, task: str) -> np.ndarray:
        """Vector of ``CT(task, m)`` over all machines (vectorised Eq. 1)."""
        return self._etc.task_row(task) + self._ready

    def completion_time(self, task: str) -> float:
        """Committed completion time of an assigned task."""
        return self.assignment_of(task).completion

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def assign(self, task: str, machine: str) -> Assignment:
        """Commit ``task`` to ``machine`` at the machine's ready time."""
        if task in self._by_task:
            raise MappingError(f"task {task!r} is already assigned")
        ti = self._etc.task_index(task)
        mi = self._etc.machine_index(machine)
        return self._commit(ti, mi, task, machine)

    def assign_index(self, task_index: int, machine_index: int) -> Assignment:
        """Index-space :meth:`assign` fast path for heuristic kernels.

        Skips the label→index dictionary lookups; indices refer to the
        ETC matrix's row/column order and must be in range (negative or
        out-of-range indices raise ``IndexError``).  Timing arithmetic is
        identical to :meth:`assign`.
        """
        if task_index < 0 or machine_index < 0:
            raise IndexError(
                f"negative task/machine index ({task_index}, {machine_index})"
            )
        etc = self._etc
        task = etc.tasks[task_index]
        if task in self._by_task:
            raise MappingError(f"task {task!r} is already assigned")
        return self._commit(
            task_index, machine_index, task, etc.machines[machine_index]
        )

    def _commit(self, ti: int, mi: int, task: str, machine: str) -> Assignment:
        start = float(self._ready[mi])
        completion = start + float(self._etc.values[ti, mi])
        assignment = Assignment(
            task=task,
            machine=machine,
            start=start,
            completion=completion,
            order=len(self._assignments),
        )
        self._assignments.append(assignment)
        self._by_task[task] = assignment
        self._by_machine[mi].append(task)
        self._ready[mi] = completion
        return assignment

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def machine_finish_times(self) -> dict[str, float]:
        """Finishing time of every machine (its final ready time).

        A machine with no tasks finishes at its initial ready time.
        """
        return {m: float(self._ready[j]) for j, m in enumerate(self._etc.machines)}

    def finish_time_vector(self) -> np.ndarray:
        """Finishing times as a vector over ``self.machines``."""
        return self._ready.copy()

    def makespan(self) -> float:
        """Largest machine finishing time."""
        return float(self._ready.max())

    def makespan_machine(self, tie_breaker: TieBreaker | None = None) -> str:
        """The machine attaining the makespan.

        Finishing-time ties are resolved by ``tie_breaker`` (default:
        deterministic lowest index, so iterative runs are reproducible).
        """
        breaker = tie_breaker or DeterministicTieBreaker()
        idx = breaker.choose(tied_argmax(self._ready))
        return self._etc.machines[idx]

    def assignment_vector(self) -> np.ndarray:
        """Machine index per task row; ``-1`` for unmapped tasks."""
        vec = np.full(self._etc.num_tasks, -1, dtype=np.int64)
        for a in self._assignments:
            vec[self._etc.task_index(a.task)] = self._etc.machine_index(a.machine)
        return vec

    def to_dict(self) -> dict[str, str]:
        """``{task: machine}`` for all assigned tasks."""
        return {a.task: a.machine for a in self._assignments}

    def same_assignments(self, other: "Mapping") -> bool:
        """True when both mappings place every shared task identically.

        Compares only the task→machine relation (not assignment order),
        which is what the paper's invariance theorems quantify over.
        """
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"Mapping(assigned={self.num_assigned}/{self._etc.num_tasks}, "
            f"makespan={self.makespan():.6g})"
        )


def finish_times_for_vector(
    etc: ETCMatrix,
    assignment: np.ndarray | Sequence[int],
    initial_ready: np.ndarray | None = None,
) -> np.ndarray:
    """Machine finishing times for a dense machine-index vector.

    ``assignment[i]`` is the machine (column) index of task row ``i``.
    This is the vectorised fitness kernel Genitor evaluates thousands of
    times per run: finishing time of machine ``j`` is its initial ready
    time plus the sum of ETCs of tasks assigned to it (order within a
    machine does not change its finishing time).
    """
    vec = np.asarray(assignment, dtype=np.int64)
    if vec.shape != (etc.num_tasks,):
        raise MappingError(
            f"assignment vector has shape {vec.shape}, expected ({etc.num_tasks},)"
        )
    if np.any(vec < 0) or np.any(vec >= etc.num_machines):
        raise MappingError("assignment vector contains out-of-range machine indices")
    task_etc = etc.values[np.arange(etc.num_tasks), vec]
    totals = np.bincount(vec, weights=task_etc, minlength=etc.num_machines)
    if initial_ready is None:
        return totals
    base = np.asarray(initial_ready, dtype=np.float64)
    if base.shape != (etc.num_machines,):
        raise MappingError(
            f"ready vector has shape {base.shape}, expected ({etc.num_machines},)"
        )
    return base + totals
