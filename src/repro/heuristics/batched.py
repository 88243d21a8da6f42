"""Batched vectorised kernels for the greedy heuristic family.

The single-instance kernels in :mod:`repro.heuristics.kernels` already
make one instance fast; evaluating the paper's tables — or scheduling a
fleet of independent requests — runs the *same heuristic over N
same-shape ETC instances*.  The kernels here map a whole
:class:`~repro.etc.batch.ETCBatch` in stacked 3-D numpy passes: one
``(batch, tasks, machines)`` completion table, one decision per
instance per step, no Python-level per-instance loop on the hot path.

Every batched decision sequence is **bit-identical** to running the
single-instance kernel in a loop.  The same floating-point identities
the incremental kernels rely on carry over unchanged (completion times
are strictly positive, so the reference tie tolerance
``max(abs_tol, rel_tol * max(|v|, |target|))`` collapses to
``max(abs_tol, rel_tol * v)`` and ``|v - target|`` to ``v - target``),
and every arithmetic step — table build, column refresh, ready-time
update — performs the identical IEEE-754 double operations in the same
order, just across the batch axis.  The property suite in
``tests/properties/test_kernel_equivalence.py`` asserts exact mapping
equality against the looped kernels for every heuristic and backend.

The vectorised paths cover the deterministic tie policy with no tracer
attached (the same precondition as the single-instance fast paths);
:func:`map_batch` transparently falls back to the looped single-instance
kernel otherwise, so random tie policies and obs traces keep their
proven decision streams.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping, ready_time_vector
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
)
from repro.etc.batch import ETCBatch
from repro.exceptions import ConfigurationError, MappingError
from repro.heuristics.base import Heuristic, get_heuristic
from repro.heuristics.kpb import kpb_subset_size
from repro.obs.tracer import get_tracer

__all__ = [
    "GREEDY_FAMILY",
    "BatchResult",
    "batch_ready_vector",
    "map_batch",
]

#: The greedy-family heuristics with a batched kernel, in paper order.
GREEDY_FAMILY: tuple[str, ...] = (
    "min-min",
    "max-min",
    "mct",
    "met",
    "k-percent-best",
    "sufferage",
)


@dataclass(frozen=True)
class BatchResult:
    """Decision sequences and timings of one batched heuristic run.

    Arrays are indexed ``[instance, step]``: step ``k`` of instance
    ``b`` assigned task row ``task_sequence[b, k]`` to machine column
    ``machine_sequence[b, k]`` starting at ``start_times[b, k]`` and
    finishing at ``completion_times[b, k]`` — exactly the
    ``(task, machine, start, completion, order)`` tuple the
    single-instance :class:`~repro.core.schedule.Assignment` records.
    """

    batch: ETCBatch
    heuristic: str
    task_sequence: np.ndarray  # (B, T) int64 task row per step
    machine_sequence: np.ndarray  # (B, T) int64 machine column per step
    start_times: np.ndarray  # (B, T) float64
    completion_times: np.ndarray  # (B, T) float64
    finish_times: np.ndarray  # (B, M) final machine ready times
    initial_ready: np.ndarray  # (B, M) initial machine ready times

    def makespans(self) -> np.ndarray:
        """Per-instance makespan (largest machine finishing time)."""
        return self.finish_times.max(axis=1)

    def assignment_tuples(
        self, index: int
    ) -> list[tuple[str, str, float, float, int]]:
        """Instance ``index`` decisions as labelled assignment tuples."""
        tasks, machines = self.batch.tasks, self.batch.machines
        return [
            (
                tasks[int(self.task_sequence[index, k])],
                machines[int(self.machine_sequence[index, k])],
                float(self.start_times[index, k]),
                float(self.completion_times[index, k]),
                k,
            )
            for k in range(self.batch.num_tasks)
        ]

    def mapping(self, index: int) -> Mapping:
        """Replay instance ``index`` into a single-instance mapping."""
        out = Mapping(self.batch.instance(index), self.initial_ready[index])
        for k in range(self.batch.num_tasks):
            out.assign_index(
                int(self.task_sequence[index, k]),
                int(self.machine_sequence[index, k]),
            )
        return out

    def mappings(self) -> list[Mapping]:
        """Replay every instance (see :meth:`mapping`)."""
        return [self.mapping(b) for b in range(len(self.batch))]


def batch_ready_vector(
    batch: ETCBatch,
    ready_times: MappingABC[str, float] | Sequence[float] | np.ndarray | None,
) -> np.ndarray:
    """Normalise initial ready times to an owned ``(B, M)`` float array.

    ``None`` (all zeros), a label mapping, or a length-``M`` vector is
    broadcast to every instance; a ``(B, M)`` array gives each instance
    its own vector.  Validation matches the single-instance
    :func:`repro.core.schedule.ready_time_vector` contract.
    """
    size, num_machines = len(batch), batch.num_machines
    arr = None
    if ready_times is not None and not isinstance(ready_times, MappingABC):
        arr = np.asarray(ready_times, dtype=np.float64)
    if arr is not None and arr.ndim == 2:
        if arr.shape != (size, num_machines):
            raise MappingError(
                f"per-instance ready times have shape {arr.shape}, "
                f"expected ({size}, {num_machines})"
            )
        out = arr.copy()
        if np.any(out < 0) or not np.all(np.isfinite(out)):
            raise MappingError("ready times must be finite and non-negative")
        return out
    vec = ready_time_vector(batch.instance(0), ready_times)
    return np.tile(vec, (size, 1))


def map_batch(
    heuristic: str,
    batch: ETCBatch,
    ready_times: MappingABC[str, float] | Sequence[float] | np.ndarray | None = None,
    tie_breaker: TieBreaker | None = None,
    *,
    make=None,
    vectorize: bool = True,
    nominal_size: int | None = None,
    **kwargs,
) -> BatchResult:
    """Map every instance of ``batch`` with ``heuristic``.

    Dispatches to the stacked 3-D kernel when the heuristic has one and
    the preconditions hold (deterministic tie policy, no tracer
    attached), otherwise loops the single-instance kernel built by
    ``make`` (default: :func:`repro.heuristics.base.get_heuristic`).
    Both routes produce identical :class:`BatchResult` contents.

    ``nominal_size`` is the target batch size of the caller's packing
    scheme; when a tracer listens, ``kernels.batch.*`` counters record
    request counts, batch sizes and fill rates against it.
    """
    breaker = tie_breaker if tie_breaker is not None else DeterministicTieBreaker()
    ready0 = batch_ready_vector(batch, ready_times)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("kernels.batch.requests")
        tracer.count("kernels.batch.instances", len(batch))
        tracer.observe("kernels.batch.size", float(len(batch)))
        if nominal_size:
            tracer.observe(
                "kernels.batch.fill_pct", 100.0 * len(batch) / nominal_size
            )
    use_kernel = (
        vectorize
        and heuristic in _KERNELS
        and type(breaker) is DeterministicTieBreaker
        and not tracer.enabled
    )
    if not use_kernel:
        if tracer.enabled:
            tracer.count("kernels.batch.fallback")
        return _map_batch_looped(heuristic, batch, ready0, breaker, make, **kwargs)
    return _KERNELS[heuristic](batch, ready0, **kwargs)


def _map_batch_looped(
    heuristic: str,
    batch: ETCBatch,
    ready0: np.ndarray,
    breaker: TieBreaker,
    make,
    **kwargs,
) -> BatchResult:
    """Loop the single-instance kernel; shared breaker, sequential draws."""
    if make is None:
        make = get_heuristic
    instance: Heuristic = make(heuristic, **kwargs)
    mappings = [
        instance.map_tasks(batch.instance(b), ready0[b], breaker)
        for b in range(len(batch))
    ]
    return _result_from_mappings(batch, heuristic, mappings, ready0)


def _result_from_mappings(
    batch: ETCBatch,
    heuristic: str,
    mappings: Sequence[Mapping],
    ready0: np.ndarray,
) -> BatchResult:
    size, num_tasks = len(batch), batch.num_tasks
    task_seq = np.empty((size, num_tasks), dtype=np.int64)
    machine_seq = np.empty((size, num_tasks), dtype=np.int64)
    starts = np.empty((size, num_tasks), dtype=np.float64)
    completions = np.empty((size, num_tasks), dtype=np.float64)
    finish = np.empty((size, batch.num_machines), dtype=np.float64)
    task_of = {t: i for i, t in enumerate(batch.tasks)}
    machine_of = {m: j for j, m in enumerate(batch.machines)}
    for b, mapping in enumerate(mappings):
        for a in mapping.assignments:
            task_seq[b, a.order] = task_of[a.task]
            machine_seq[b, a.order] = machine_of[a.machine]
            starts[b, a.order] = a.start
            completions[b, a.order] = a.completion
        finish[b] = mapping.finish_time_vector()
    return BatchResult(
        batch=batch,
        heuristic=heuristic,
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=finish,
        initial_ready=ready0,
    )


# ----------------------------------------------------------------------
# Stacked kernels (deterministic ties, no tracer)
# ----------------------------------------------------------------------
def _first_tied_min(rows: np.ndarray) -> np.ndarray:
    """Per-row first tolerance-tied minimum index for positive rows.

    The batch-axis twin of
    :func:`repro.heuristics.kernels.first_tied_min_index`: identical
    tolerance arithmetic (``v - target <= max(abs_tol, rel_tol * v)``),
    ``argmax`` over the tie mask picks the first tied column.
    """
    target = rows.min(axis=1)
    tied = (rows - target[:, None]) <= np.maximum(
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL * rows
    )
    return tied.argmax(axis=1)


def _alloc(batch: ETCBatch):
    size, num_tasks = len(batch), batch.num_tasks
    return (
        np.empty((size, num_tasks), dtype=np.int64),
        np.empty((size, num_tasks), dtype=np.int64),
        np.empty((size, num_tasks), dtype=np.float64),
        np.empty((size, num_tasks), dtype=np.float64),
    )


def _two_phase_batch(batch: ETCBatch, ready0: np.ndarray, sign: int) -> BatchResult:
    """Stacked Min-Min (``sign=+1``) / Max-Min (``sign=-1``) kernel.

    Maintains the completion table under single-column refreshes exactly
    like :class:`repro.heuristics.kernels.IncrementalCompletionTable`:
    the refreshed column is recomputed as ``ETC + ready`` (never a
    delta), the stale-row test reads the column *before* the scatter,
    and deactivated rows carry the ``±inf`` sentinel in ``best`` (masked
    by ``active`` where the sentinel would falsely tie).

    The table lives machine-major — ``(batch, machines, tasks)`` — so
    the per-step column gather/scatter touches one *contiguous* lane per
    instance (~5x faster than the strided column access of the natural
    task-major layout); min-reductions are order-free in IEEE
    arithmetic, so the transpose changes no decision.  Elementwise
    scratch buffers are preallocated once and reused across steps.
    """
    values = batch.values
    size, num_tasks, _ = values.shape
    ready = ready0.copy()
    values_mt = np.ascontiguousarray(values.transpose(0, 2, 1))  # (B, M, T)
    table = values_mt + ready[:, :, None]
    best = table.min(axis=1)  # (B, T) per-row minima
    active = np.ones((size, num_tasks), dtype=bool)
    fill = np.inf if sign > 0 else -np.inf
    b_idx = np.arange(size)
    task_seq, machine_seq, starts, completions = _alloc(batch)
    diff = np.empty((size, num_tasks))
    tied = np.empty((size, num_tasks), dtype=bool)
    stale = np.empty((size, num_tasks), dtype=bool)
    mdiff = np.empty((size, batch.num_machines))
    mtol = np.empty((size, batch.num_machines))
    mtied = np.empty((size, batch.num_machines), dtype=bool)
    if sign > 0:
        # Maintained elementwise tolerance max(abs_tol, rel_tol*best):
        # best only changes for deactivated rows (tolerance -1 makes the
        # +inf sentinel's diff of +inf fail the tie test, replacing an
        # explicit active mask) and stale rows (recomputed below), so
        # two full passes per step become a handful of scattered writes.
        tol = np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * best)
    for step in range(num_tasks):
        if sign > 0:
            target = best.min(axis=1)
            np.subtract(best, target[:, None], out=diff)
            np.less_equal(diff, tol, out=tied)
        else:
            # The -inf sentinel self-masks: its diff is +inf, never
            # within the finite per-instance scalar tolerance.
            peak = best.max(axis=1)
            scalar_tol = np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * np.abs(peak))
            np.subtract(peak[:, None], best, out=diff)
            np.less_equal(diff, scalar_tol[:, None], out=tied)
        tasks = tied.argmax(axis=1)
        rows = table[b_idx, :, tasks]  # (B, M) completion row per instance
        row_target = rows.min(axis=1)
        np.multiply(rows, DEFAULT_REL_TOL, out=mtol)
        np.maximum(mtol, DEFAULT_ABS_TOL, out=mtol)
        np.subtract(rows, row_target[:, None], out=mdiff)
        np.less_equal(mdiff, mtol, out=mtied)
        machines = mtied.argmax(axis=1)
        start = ready[b_idx, machines]
        completion = start + values[b_idx, tasks, machines]
        ready[b_idx, machines] = completion
        task_seq[:, step] = tasks
        machine_seq[:, step] = machines
        starts[:, step] = start
        completions[:, step] = completion
        active[b_idx, tasks] = False
        best[b_idx, tasks] = fill
        if sign > 0:
            tol[b_idx, tasks] = -1.0  # sentinel rows can never tie
        if step + 1 == num_tasks:
            break
        col_old = table[b_idx, machines]  # (B, T) copy of the old column
        np.less_equal(col_old, best, out=stale)
        stale &= active
        table[b_idx, machines] = values_mt[b_idx, machines] + completion[:, None]
        stale_b, stale_t = stale.nonzero()
        if stale_b.size:
            fresh = table[stale_b, :, stale_t].min(axis=1)
            best[stale_b, stale_t] = fresh
            if sign > 0:
                tol[stale_b, stale_t] = np.maximum(
                    DEFAULT_ABS_TOL, DEFAULT_REL_TOL * fresh
                )
    return BatchResult(
        batch=batch,
        heuristic="min-min" if sign > 0 else "max-min",
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=ready,
        initial_ready=ready0,
    )


def _minmin_batch(batch: ETCBatch, ready0: np.ndarray) -> BatchResult:
    return _two_phase_batch(batch, ready0, +1)


def _maxmin_batch(batch: ETCBatch, ready0: np.ndarray) -> BatchResult:
    return _two_phase_batch(batch, ready0, -1)


def _mct_batch(batch: ETCBatch, ready0: np.ndarray) -> BatchResult:
    """Stacked MCT: tasks in row order, one batched machine pick each."""
    values = batch.values
    size, num_tasks, _ = values.shape
    ready = ready0.copy()
    b_idx = np.arange(size)
    task_seq, machine_seq, starts, completions = _alloc(batch)
    for t in range(num_tasks):
        completion = values[:, t, :] + ready
        machines = _first_tied_min(completion)
        start = ready[b_idx, machines]
        finish = completion[b_idx, machines]
        ready[b_idx, machines] = finish
        task_seq[:, t] = t
        machine_seq[:, t] = machines
        starts[:, t] = start
        completions[:, t] = finish
    return BatchResult(
        batch=batch,
        heuristic="mct",
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=ready,
        initial_ready=ready0,
    )


def _met_batch(batch: ETCBatch, ready0: np.ndarray) -> BatchResult:
    """Stacked MET: machine picks are load-oblivious, so every decision
    of every instance comes from one 3-D tie scan over the raw ETC."""
    values = batch.values
    size, num_tasks, _ = values.shape
    target = values.min(axis=2)
    tied = (values - target[:, :, None]) <= np.maximum(
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL * values
    )
    machines = tied.argmax(axis=2)  # (B, T) first tied minimum per row
    ready = ready0.copy()
    b_idx = np.arange(size)
    task_seq, machine_seq, starts, completions = _alloc(batch)
    for t in range(num_tasks):
        m = machines[:, t]
        start = ready[b_idx, m]
        finish = start + values[b_idx, t, m]
        ready[b_idx, m] = finish
        task_seq[:, t] = t
        machine_seq[:, t] = m
        starts[:, t] = start
        completions[:, t] = finish
    return BatchResult(
        batch=batch,
        heuristic="met",
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=ready,
        initial_ready=ready0,
    )


def _kpb_batch(
    batch: ETCBatch, ready0: np.ndarray, percent: float = 70.0
) -> BatchResult:
    """Stacked K-Percent Best: one 3-D stable argsort builds every
    instance's subsets, then MCT restricted to them."""
    percent = float(percent)
    if not 0.0 < percent <= 100.0:
        raise ConfigurationError(f"percent must be in (0, 100], got {percent}")
    values = batch.values
    size, num_tasks, num_machines = values.shape
    subset_size = kpb_subset_size(num_machines, percent)
    subsets = np.sort(
        np.argsort(values, axis=2, kind="stable")[:, :, :subset_size], axis=2
    )
    ready = ready0.copy()
    b_idx = np.arange(size)
    task_seq, machine_seq, starts, completions = _alloc(batch)
    for t in range(num_tasks):
        subset = subsets[:, t, :]  # (B, subset_size)
        completion = np.take_along_axis(values[:, t, :], subset, axis=1)
        completion += np.take_along_axis(ready, subset, axis=1)
        picks = _first_tied_min(completion)
        m = subset[b_idx, picks]
        start = ready[b_idx, m]
        finish = completion[b_idx, picks]
        ready[b_idx, m] = finish
        task_seq[:, t] = t
        machine_seq[:, t] = m
        starts[:, t] = start
        completions[:, t] = finish
    return BatchResult(
        batch=batch,
        heuristic="k-percent-best",
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=ready,
        initial_ready=ready0,
    )


def _sufferage_batch(batch: ETCBatch, ready0: np.ndarray) -> BatchResult:
    """Stacked Sufferage: the dominant first pass (all tasks pending in
    every instance) runs as one 3-D scan; each instance then finishes on
    the single-instance index-space kernel
    (:func:`repro.heuristics.sufferage._passes`), seeded with its slice
    of that scan, committing through the same float arithmetic as
    :meth:`repro.core.schedule.Mapping.assign_index`.
    """
    from repro.heuristics.sufferage import _fast_decisions, _passes

    values = batch.values
    ready = ready0.copy()
    task_seq, machine_seq, starts, completions = _alloc(batch)
    # Pass 1, batched: the single-instance pass math over the stack.
    chosen, earliest, sufferage = _fast_decisions(values + ready[:, None, :])
    for b in range(len(batch)):
        step = 0
        first = (chosen[b], earliest[b], sufferage[b])
        for tasks, machines in _passes(values[b], ready[b], first=first):
            for task, machine in zip(tasks, machines):
                start = float(ready[b, machine])
                finish = start + float(values[b, task, machine])
                ready[b, machine] = finish
                task_seq[b, step] = task
                machine_seq[b, step] = machine
                starts[b, step] = start
                completions[b, step] = finish
                step += 1
    return BatchResult(
        batch=batch,
        heuristic="sufferage",
        task_sequence=task_seq,
        machine_sequence=machine_seq,
        start_times=starts,
        completion_times=completions,
        finish_times=ready,
        initial_ready=ready0,
    )


_KERNELS = {
    "min-min": _minmin_batch,
    "max-min": _maxmin_batch,
    "mct": _mct_batch,
    "met": _met_batch,
    "k-percent-best": _kpb_batch,
    "sufferage": _sufferage_batch,
}
