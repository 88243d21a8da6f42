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

import math
import operator
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
        vec = np.array(ready_times, dtype=np.float64)
        if vec.shape != (etc.num_machines,):
            raise MappingError(
                f"ready time vector has shape {vec.shape}, "
                f"expected ({etc.num_machines},)"
            )
    # A scan of the short list beats two vectorised passes; NaN fails
    # both comparisons.
    if not all(0.0 <= r < math.inf for r in vec.tolist()):
        raise MappingError("ready times must be finite and non-negative")
    return vec


class Mapping:
    """A (possibly partial) resource allocation under construction.

    Heuristics create a ``Mapping`` over a (restricted) ETC matrix and
    call :meth:`assign` (or the index-space :meth:`assign_index`) once
    per task, or commit a whole decided order with :meth:`assign_many`;
    the object maintains machine ready times incrementally so each
    ``CT`` query is O(1).

    Storage is columnar: four commit-order columns (task index, machine
    index, start, finish), a per-task position in that order (``-1``
    while unmapped) and per-machine task-index lists.  A commit appends
    to plain lists; :class:`Assignment` objects, label tuples and dicts
    are built only when read (:attr:`assignments` is cached until the
    next commit).

    The class intentionally supports *only* append-style construction —
    the heuristics in the paper never migrate an already-committed task
    (Sufferage's within-pass preemption is tentative state inside the
    heuristic, committed per pass).  :meth:`restrict` derives a new
    mapping; it never edits this one.

    ``certified`` is set by the kernels of Min-Min, MCT and MET when
    every decision kept the certificate of :mod:`repro.core.ties` (its
    near ties formed one cluster within half a tolerance of the
    minimum); :class:`~repro.core.iterative.IterativeScheduler` then
    derives later iterations from this mapping instead of re-running
    the heuristic.  It defaults to false.
    """

    __slots__ = (
        "_etc",
        "_initial_ready",
        "_ready",
        "_task",
        "_machine",
        "_start",
        "_finish",
        "_position",
        "_by_machine",
        "_assignments",
        "certified",
    )

    def __init__(
        self,
        etc: ETCMatrix,
        ready_times: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self._etc = etc
        self._initial_ready = ready_time_vector(etc, ready_times)
        self._ready = self._initial_ready.copy()
        self._task: list[int] = []
        self._machine: list[int] = []
        self._start: list[float] = []
        self._finish: list[float] = []
        self._position: list[int] = [-1] * etc.num_tasks
        # Per-machine task rows in assignment order, so machine_tasks()
        # is O(tasks on that machine), not a full scan (the iterative
        # freeze step calls it every iteration).
        self._by_machine: list[list[int]] = [[] for _ in range(etc.num_machines)]
        self._assignments: tuple[Assignment, ...] | None = None
        self.certified = False

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
        if self._assignments is None:
            tasks, machines = self._etc.tasks, self._etc.machines
            self._assignments = tuple(
                Assignment(tasks[t], machines[m], s, f, k)
                for k, (t, m, s, f) in enumerate(
                    zip(self._task, self._machine, self._start, self._finish)
                )
            )
        return self._assignments

    @property
    def num_assigned(self) -> int:
        return len(self._task)

    def is_complete(self) -> bool:
        """True when every task of the ETC matrix has been assigned."""
        return len(self._task) == self._etc.num_tasks

    def _position_of(self, task: str) -> int:
        """Commit position of ``task``; ``-1`` when unmapped or unknown."""
        if not self._etc.has_task(task):
            return -1
        return self._position[self._etc.task_index(task)]

    def is_assigned(self, task: str) -> bool:
        return self._position_of(task) >= 0

    def unmapped_tasks(self) -> tuple[str, ...]:
        """Tasks not yet assigned, in ETC row order."""
        return tuple(
            t for t, p in zip(self._etc.tasks, self._position) if p < 0
        )

    def assignment_of(self, task: str) -> Assignment:
        p = self._position_of(task)
        if p < 0:
            raise UnmappedTaskError(f"task {task!r} is not mapped")
        return self._assignment_at(p)

    def _assignment_at(self, p: int) -> Assignment:
        return Assignment(
            self._etc.tasks[self._task[p]],
            self._etc.machines[self._machine[p]],
            self._start[p],
            self._finish[p],
            p,
        )

    def machine_of(self, task: str) -> str:
        return self.assignment_of(task).machine

    def machine_tasks(self, machine: str) -> tuple[str, ...]:
        """Tasks on ``machine`` in execution (assignment) order."""
        tasks = self._etc.tasks
        return tuple(
            tasks[t] for t in self._by_machine[self._etc.machine_index(machine)]
        )

    def column_tasks(self, column: int) -> tuple[int, ...]:
        """Task rows on machine column ``column`` in execution order —
        the index-space :meth:`machine_tasks`."""
        return tuple(self._by_machine[column])

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
        if self.is_assigned(task):
            raise MappingError(f"task {task!r} is already assigned")
        self._commit(self._etc.task_index(task), self._etc.machine_index(machine))
        return self._assignment_at(len(self._task) - 1)

    def assign_index(self, task_index: int, machine_index: int) -> float:
        """Index-space :meth:`assign` fast path for heuristic kernels.

        Skips the label→index dictionary lookups and builds no
        :class:`Assignment`; returns the committed completion time.
        Indices refer to the ETC matrix's row/column order and must be
        in range (negative or out-of-range indices raise
        ``IndexError``).  Timing arithmetic is identical to
        :meth:`assign`.
        """
        if task_index < 0 or machine_index < 0:
            raise IndexError(
                f"negative task/machine index ({task_index}, {machine_index})"
            )
        if self._position[task_index] >= 0:
            raise MappingError(
                f"task {self._etc.tasks[task_index]!r} is already assigned"
            )
        return self._commit(task_index, machine_index)

    def assign_many(
        self, task_idx: Sequence[int], machine_idx: Sequence[int]
    ) -> None:
        """Commit ``task_idx[k]`` to ``machine_idx[k]`` for every ``k``,
        left to right.

        Bit-identical to calling :meth:`assign_index` on each pair in
        turn (the same float additions in the same order), but every
        index is validated before anything is committed: a length
        mismatch, a duplicate or already-assigned task raises
        :class:`MappingError`, a negative or out-of-range index raises
        ``IndexError``, and the mapping is then left unchanged.
        """
        tasks = list(map(operator.index, task_idx))
        machines = list(map(operator.index, machine_idx))
        if len(tasks) != len(machines):
            raise MappingError(
                f"assign_many: {len(tasks)} task indices but "
                f"{len(machines)} machine indices"
            )
        if not tasks:
            return
        num_tasks, num_machines = self._etc.values.shape
        if min(tasks) < 0 or min(machines) < 0:
            raise IndexError("assign_many: negative task/machine index")
        if max(tasks) >= num_tasks or max(machines) >= num_machines:
            raise IndexError(
                f"assign_many: index out of range for a {num_tasks}x"
                f"{num_machines} matrix"
            )
        if len(set(tasks)) != len(tasks):
            raise MappingError("assign_many: a task index appears twice")
        position = self._position
        for ti in tasks:
            if position[ti] >= 0:
                raise MappingError(
                    f"task {self._etc.tasks[ti]!r} is already assigned"
                )
        # Index arrays, not lists: numpy converts lists element by element.
        costs = self._etc.values[
            np.array(tasks, dtype=np.intp), np.array(machines, dtype=np.intp)
        ].tolist()
        ready = self._ready.tolist()
        by_machine = self._by_machine
        starts = []
        finishes = []
        base = len(self._task)
        for k, (ti, mi, cost) in enumerate(zip(tasks, machines, costs), base):
            start = ready[mi]
            ready[mi] = completion = start + cost
            starts.append(start)
            finishes.append(completion)
            position[ti] = k
            by_machine[mi].append(ti)
        self._task += tasks
        self._machine += machines
        self._start += starts
        self._finish += finishes
        self._ready[:] = ready
        self._assignments = None

    def commit_order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(task indices, machine indices)`` of the assignments in
        commit order — the index-space view of :attr:`assignments`."""
        return tuple(self._task), tuple(self._machine)

    def _commit(self, ti: int, mi: int) -> float:
        ready = self._ready
        start = float(ready[mi])
        completion = start + float(self._etc.values[ti, mi])
        self._position[ti] = len(self._task)
        self._task.append(ti)
        self._machine.append(mi)
        self._start.append(start)
        self._finish.append(completion)
        self._by_machine[mi].append(ti)
        ready[mi] = completion
        self._assignments = None
        return completion

    def restrict(self, etc: ETCMatrix, machine: str) -> "Mapping":
        """This mapping without ``machine`` and the tasks on it, over ``etc``.

        ``etc`` must be this mapping's matrix with ``machine`` and its
        tasks dropped, as :meth:`ETCMatrix.without_machine` returns it
        (its shape and machine labels are checked).  The result keeps
        every other assignment in commit order with its start and finish
        copied, so times stay bit-identical to re-committing the
        surviving tasks in that order; ``certified`` carries over.  This
        mapping is left untouched.
        """
        drop = self._etc.machine_index(machine)
        gone = set(self._by_machine[drop])
        machines = self._etc.machines
        if etc.machines != machines[:drop] + machines[drop + 1 :] or (
            etc.num_tasks != self._etc.num_tasks - len(gone)
        ):
            raise MappingError(
                f"restrict: {etc!r} is not this mapping's matrix without "
                f"machine {machine!r} and its tasks"
            )
        rows = [i for i in range(self._etc.num_tasks) if i not in gone]
        cols = [j for j in range(len(machines)) if j != drop]
        return self._restricted(etc, rows, cols)

    def _restricted(
        self, etc: ETCMatrix, rows: Sequence[int], cols: Sequence[int]
    ) -> "Mapping":
        """The assignments on machine columns ``cols``, over ``etc``.

        Trusted fast path of :meth:`restrict` for any number of dropped
        machines: ``etc`` is this mapping's matrix restricted to
        ``rows`` x ``cols`` (both ascending), and ``rows`` holds every
        row not assigned to a dropped column.  Commit order, starts,
        finishes and ``certified`` carry over; nothing is validated.
        """
        row_of = [-1] * self._etc.num_tasks
        for new, old in enumerate(rows):
            row_of[old] = new
        column_of = [-1] * self._etc.num_machines
        for new, old in enumerate(cols):
            column_of[old] = new
        out = object.__new__(type(self))
        out._etc = etc
        out._initial_ready = self._initial_ready[list(cols)]
        out._ready = self._ready[list(cols)]
        out._task, out._machine, out._start, out._finish = [], [], [], []
        out._position = [-1] * len(rows)
        out._by_machine = [[] for _ in cols]
        for t, m, start, finish in zip(
            self._task, self._machine, self._start, self._finish
        ):
            j = column_of[m]
            if j >= 0:
                ti = row_of[t]
                out._position[ti] = len(out._task)
                out._by_machine[j].append(ti)
                out._task.append(ti)
                out._machine.append(j)
                out._start.append(start)
                out._finish.append(finish)
        out._assignments = None
        out.certified = self.certified
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def machine_finish_times(self) -> dict[str, float]:
        """Finishing time of every machine (its final ready time).

        A machine with no tasks finishes at its initial ready time.
        """
        return dict(zip(self._etc.machines, self._ready.tolist()))

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
        vec[self._task] = self._machine
        return vec

    def to_dict(self) -> dict[str, str]:
        """``{task: machine}`` for all assigned tasks, in commit order."""
        tasks, machines = self._etc.tasks, self._etc.machines
        return {tasks[t]: machines[m] for t, m in zip(self._task, self._machine)}

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
