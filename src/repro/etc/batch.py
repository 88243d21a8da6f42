"""Read-only stacked views of same-shape ETC matrices.

An :class:`~repro.etc.store.ETCStore` entry holds N same-shape
instances as one C-contiguous ``(batch, tasks, machines)`` float64
block.  :class:`ETCBatch` wraps a memmap window of such a block without
copying or re-scanning it, and :meth:`ETCBatch.instance` hands back
zero-copy :class:`~repro.etc.matrix.ETCMatrix` views for the
single-instance heuristics.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.etc.matrix import ETCMatrix
from repro.exceptions import ETCShapeError

__all__ = ["ETCBatch"]


class ETCBatch:
    """An immutable stack of same-shape, same-label ETC matrices.

    Built only by :meth:`_from_trusted` (the store wraps validated
    on-disk entries); the ``values`` block is a read-only
    ``(batch, num_tasks, num_machines)`` float64 array and every
    instance shares the ``tasks`` / ``machines`` labels.
    """

    __slots__ = ("_values", "_tasks", "_machines")

    @classmethod
    def _from_trusted(
        cls,
        values: np.ndarray,
        tasks: tuple[str, ...],
        machines: tuple[str, ...],
    ) -> "ETCBatch":
        """Adopt an already-validated C-contiguous float64 block (no copy).

        The batch-side twin of :meth:`ETCMatrix._from_trusted`: skips the
        finiteness/positivity scan and label checks.  Used by
        :class:`repro.etc.store.ETCStore` to wrap ``numpy.memmap``
        windows of validated on-disk entries — re-scanning there would
        fault in every page and defeat the out-of-core layout.  Callers
        must never pass a writable array they intend to mutate.
        """
        if values.ndim != 3:
            raise ETCShapeError(
                f"trusted ETC batch values must be 3-D, got ndim={values.ndim}"
            )
        if values.dtype != np.float64 or not values.flags.c_contiguous:
            values = np.ascontiguousarray(values, dtype=np.float64)
        self = object.__new__(cls)
        if values.flags.writeable:
            values.setflags(write=False)
        self._values = values
        self._tasks = tasks
        self._machines = machines
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Read-only ``(batch, num_tasks, num_machines)`` float64 block."""
        return self._values

    @property
    def tasks(self) -> tuple[str, ...]:
        return self._tasks

    @property
    def machines(self) -> tuple[str, ...]:
        return self._machines

    @property
    def num_tasks(self) -> int:
        return self._values.shape[1]

    @property
    def num_machines(self) -> int:
        return self._values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._values.shape

    def __len__(self) -> int:
        return self._values.shape[0]

    # ------------------------------------------------------------------
    # Single-instance access
    # ------------------------------------------------------------------
    def instance(self, index: int) -> ETCMatrix:
        """Zero-copy :class:`ETCMatrix` view of instance ``index``.

        The view shares the stacked buffer (each leading-axis slice of
        a C-contiguous block is itself C-contiguous) and the canonical
        label tuples, so looping ``instance(b)`` over a batch allocates
        no matrix data.
        """
        batch = self._values.shape[0]
        if not -batch <= index < batch:
            raise IndexError(
                f"batch index {index} out of range for batch of {batch}"
            )
        return ETCMatrix._from_trusted(
            self._values[index], self._tasks, self._machines
        )

    def instances(self) -> Iterator[ETCMatrix]:
        """Iterate the batch as zero-copy single-instance matrices."""
        for index in range(self._values.shape[0]):
            yield self.instance(index)

    def __repr__(self) -> str:
        batch, tasks, machines = self._values.shape
        return (
            f"ETCBatch(batch={batch}, num_tasks={tasks}, "
            f"num_machines={machines})"
        )
