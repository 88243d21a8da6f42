"""Labelled ETC (estimated time to compute) matrices.

The ETC matrix is the single input of every heuristic in the paper: entry
``(t, m)`` is the estimated time to compute task ``t`` on machine ``m``
(paper Section 2, citing Braun et al.).  The class below wraps a numpy
array with task/machine labels, validation, and the *restriction*
operation the iterative technique relies on (drop the makespan machine
and its tasks, keep everybody else's labels stable).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ETCShapeError, ETCValueError, LabelError

__all__ = ["ETCMatrix", "default_task_labels", "default_machine_labels"]


def default_task_labels(count: int) -> tuple[str, ...]:
    """Return the default task labels ``("t0", "t1", ...)``."""
    return tuple(f"t{i}" for i in range(count))


def default_machine_labels(count: int) -> tuple[str, ...]:
    """Return the default machine labels ``("m0", "m1", ...)``."""
    return tuple(f"m{i}" for i in range(count))


def _check_labels(labels: Sequence[str], kind: str, expected: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != expected:
        raise ETCShapeError(
            f"{kind} labels have length {len(labels)}, expected {expected}"
        )
    if len(set(labels)) != len(labels):
        raise ETCShapeError(f"{kind} labels contain duplicates: {labels!r}")
    return labels


class ETCMatrix:
    """An immutable, labelled tasks-by-machines ETC matrix.

    Parameters
    ----------
    values:
        Array-like of shape ``(num_tasks, num_machines)``.  Values must be
        finite and strictly positive (a task always takes some time).
    tasks:
        Optional task labels; defaults to ``t0..t{T-1}``.
    machines:
        Optional machine labels; defaults to ``m0..m{M-1}``.

    Notes
    -----
    The backing array is copied once and marked read-only, so an
    ``ETCMatrix`` can be shared freely between heuristics, iterations and
    threads without defensive copies (hpc guide: prefer views over
    copies; the heuristics read rows/columns as views of this array).
    """

    __slots__ = (
        "_values",
        "_tasks",
        "_machines",
        "_task_index",
        "_machine_index",
        "_hash",
    )

    def __init__(
        self,
        values: Iterable[Iterable[float]] | np.ndarray,
        tasks: Sequence[str] | None = None,
        machines: Sequence[str] | None = None,
    ) -> None:
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ETCShapeError(f"ETC values must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ETCShapeError(f"ETC matrix must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ETCValueError("ETC values must be finite (no NaN/inf)")
        if np.any(arr <= 0.0):
            raise ETCValueError("ETC values must be strictly positive")
        arr.setflags(write=False)
        self._values = arr
        num_tasks, num_machines = arr.shape
        self._tasks = (
            default_task_labels(num_tasks)
            if tasks is None
            else _check_labels(tasks, "task", num_tasks)
        )
        self._machines = (
            default_machine_labels(num_machines)
            if machines is None
            else _check_labels(machines, "machine", num_machines)
        )
        self._task_index = {label: i for i, label in enumerate(self._tasks)}
        self._machine_index = {label: j for j, label in enumerate(self._machines)}
        self._hash = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_trusted(
        cls,
        values: np.ndarray,
        tasks: tuple[str, ...],
        machines: tuple[str, ...],
    ) -> "ETCMatrix":
        """Fast-path constructor for values of a validated matrix.

        Skips the finiteness/positivity scan and label checks (every
        value and label comes from an already-validated parent) and
        defers the label→index dictionaries until a label lookup needs
        them — hot iterative loops that work in index space never pay
        for them.  ``values`` may be a read-only *view* of a parent
        buffer (an instance of a stacked batch); callers must never
        pass a writable array they intend to mutate.

        The array must be 2-D and is adopted only when C-contiguous: an
        arbitrary strided slice of a stacked batch could silently alias
        the wrong elements once kernels assume row-major layout, so
        such input is copied to C order instead.
        """
        if values.ndim != 2:
            raise ETCShapeError(
                f"trusted ETC values must be 2-D, got ndim={values.ndim}"
            )
        if not values.flags.c_contiguous:
            values = np.ascontiguousarray(values)
        self = object.__new__(cls)
        if values.flags.writeable:
            values.setflags(write=False)
        self._values = values
        self._tasks = tasks
        self._machines = machines
        self._task_index = None
        self._machine_index = None
        self._hash = None
        return self

    @classmethod
    def from_dict(
        cls, table: Mapping[str, Mapping[str, float]]
    ) -> "ETCMatrix":
        """Build from ``{task: {machine: etc}}`` nested mappings.

        Machine keys must be identical (same set) across tasks; the
        machine order of the first task is used.
        """
        if not table:
            raise ETCShapeError("empty ETC table")
        tasks = list(table)
        machines = list(next(iter(table.values())))
        rows = []
        for t in tasks:
            row = table[t]
            if set(row) != set(machines):
                raise ETCShapeError(
                    f"task {t!r} has machine set {sorted(row)} != {sorted(machines)}"
                )
            rows.append([row[m] for m in machines])
        return cls(rows, tasks=tasks, machines=machines)

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The read-only ``(num_tasks, num_machines)`` float64 array."""
        return self._values

    @property
    def tasks(self) -> tuple[str, ...]:
        """Task labels, in row order."""
        return self._tasks

    @property
    def machines(self) -> tuple[str, ...]:
        """Machine labels, in column order."""
        return self._machines

    @property
    def num_tasks(self) -> int:
        return self._values.shape[0]

    @property
    def num_machines(self) -> int:
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def _task_lookup(self) -> dict[str, int]:
        index = self._task_index
        if index is None:
            index = self._task_index = {
                label: i for i, label in enumerate(self._tasks)
            }
        return index

    def _machine_lookup(self) -> dict[str, int]:
        index = self._machine_index
        if index is None:
            index = self._machine_index = {
                label: j for j, label in enumerate(self._machines)
            }
        return index

    def task_index(self, task: str) -> int:
        """Row index of ``task``; raises :class:`LabelError` if unknown."""
        try:
            return self._task_lookup()[task]
        except KeyError:
            raise LabelError(f"unknown task label {task!r}") from None

    def machine_index(self, machine: str) -> int:
        """Column index of ``machine``; raises :class:`LabelError`."""
        try:
            return self._machine_lookup()[machine]
        except KeyError:
            raise LabelError(f"unknown machine label {machine!r}") from None

    def has_task(self, task: str) -> bool:
        return task in self._task_lookup()

    def has_machine(self, machine: str) -> bool:
        return machine in self._machine_lookup()

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def etc(self, task: str, machine: str) -> float:
        """ETC of ``task`` on ``machine`` (paper's ``ETC(t, m)``)."""
        return float(
            self._values[self.task_index(task), self.machine_index(machine)]
        )

    def task_row(self, task: str) -> np.ndarray:
        """Read-only view of the ETC of ``task`` on every machine."""
        return self._values[self.task_index(task)]

    def machine_column(self, machine: str) -> np.ndarray:
        """Read-only view of the ETC of every task on ``machine``."""
        return self._values[:, self.machine_index(machine)]

    # ------------------------------------------------------------------
    # Restriction — the operation the iterative technique needs
    # ------------------------------------------------------------------
    def _restricted(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> "ETCMatrix":
        """The restriction to ``rows`` x ``cols`` (trusted indices).

        Nothing is validated: indices must be in range, distinct and
        non-empty.  The values are one C-contiguous copy out of the
        validated buffer — a row ``take`` then a column ``take``, since
        a fancy column index after the row ``take`` would give a
        Fortran-ordered array — and the labels are the parent's own
        objects.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        return ETCMatrix._from_trusted(
            self._values.take(rows, axis=0).take(cols, axis=1),
            tuple(map(self._tasks.__getitem__, rows.tolist())),
            tuple(map(self._machines.__getitem__, cols.tolist())),
        )

    def submatrix(
        self,
        tasks: Sequence[str] | None = None,
        machines: Sequence[str] | None = None,
    ) -> "ETCMatrix":
        """Restrict to the given tasks and/or machines (labels preserved).

        ``None`` keeps the full axis.  Order follows the order given by
        the caller, enabling deterministic "arbitrary but fixed" task
        lists across iterations (paper Section 3.3).  The result is one
        copy out of the parent's validated buffer; values are never
        re-checked.
        """
        if tasks is None and machines is None:
            return self
        rows = (
            range(self.num_tasks)
            if tasks is None
            else [self.task_index(t) for t in tasks]
        )
        cols = (
            range(self.num_machines)
            if machines is None
            else [self.machine_index(m) for m in machines]
        )
        if not rows or not cols:
            raise ETCShapeError("submatrix must keep at least one task and machine")
        if len(set(rows)) != len(rows):
            raise ETCShapeError(f"task labels contain duplicates: {tuple(tasks)!r}")
        if len(set(cols)) != len(cols):
            raise ETCShapeError(
                f"machine labels contain duplicates: {tuple(machines)!r}"
            )
        return self._restricted(rows, cols)

    def without_machine(self, machine: str, dropped_tasks: Iterable[str]) -> "ETCMatrix":
        """Drop ``machine`` and ``dropped_tasks`` — one iterative step."""
        dropped = set(dropped_tasks)
        # Validate every dropped label *before* doing any restriction
        # work, so a typo fails loudly without constructing anything
        # (and without building the label lookup of this matrix).
        unknown = dropped.difference(self._tasks)
        if unknown:
            raise LabelError(f"unknown task label {next(iter(unknown))!r}")
        mj = self.machine_index(machine)
        rows = [i for i, t in enumerate(self._tasks) if t not in dropped]
        cols = [j for j in range(self.num_machines) if j != mj]
        if not rows or not cols:
            raise ETCShapeError("submatrix must keep at least one task and machine")
        return self._restricted(rows, cols)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ETCMatrix):
            return NotImplemented
        return (
            self._tasks == other._tasks
            and self._machines == other._machines
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        # The array is immutable, so the (expensive) byte serialisation
        # is memoized after the first call.
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self._tasks, self._machines, self._values.tobytes())
            )
        return h

    def __repr__(self) -> str:
        return (
            f"ETCMatrix(shape={self.shape}, tasks={list(self._tasks)!r}, "
            f"machines={list(self._machines)!r})"
        )

    def to_dict(self) -> dict[str, dict[str, float]]:
        """Nested ``{task: {machine: etc}}`` representation (JSON-ready)."""
        return {
            t: {m: float(self._values[i, j]) for j, m in enumerate(self._machines)}
            for i, t in enumerate(self._tasks)
        }

    def pretty(self, width: int = 8, precision: int = 3) -> str:
        """Human-readable fixed-width table (used by the bench harness)."""
        header = " " * width + "".join(f"{m:>{width}}" for m in self._machines)
        lines = [header]
        for i, t in enumerate(self._tasks):
            cells = "".join(
                f"{self._values[i, j]:>{width}.{precision}g}"
                for j in range(self.num_machines)
            )
            lines.append(f"{t:<{width}}" + cells)
        return "\n".join(lines)
