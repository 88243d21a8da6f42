"""K-Percent Best heuristic (Maheswaran et al.) — paper Figure 14.

Procedure (verbatim structure):

1. A task list is generated that includes all unmapped tasks in a given
   arbitrary order.
2. A subset is formed by picking the ``M * (k/100)`` best machines
   based on the execution times for the task.
3. The task is assigned to a machine that provides the earliest
   completion time in the subset.
4. The task is removed from the unmapped task list.
5. The ready time of the machine on which the task is mapped is updated.
6. Steps 2–5 are repeated until all tasks have been mapped.

Subset sizing convention: ``floor(M * k / 100)`` clamped to ``[1, M]``.
The paper's example fixes this: with ``k = 70%`` and 3 machines "the
best two machines are used", and with 2 machines "only one machine is
considered" (1.4 → 1), which "forces the K-percent Best Algorithm to
perform like the MET heuristic".  With ``k = 100%`` KPB is identical to
MCT; with ``k = 100/M %`` it is identical to MET (paper Section 3.6).

ETC ties at the subset boundary resolve to the lower machine index
(stable sort); completion-time ties inside the subset go through the
tie-breaking policy.  The per-task subset trace is kept on
:attr:`KPercentBest.last_trace` for paper Tables 13–14.

Kernel (:class:`KPercentBest`).  Subsets depend only on ETC values, so
all T per-task argsorts collapse into one vectorised axis-1 argsort,
and the subset ETCs are read once into lists.  Each task's subset
completion times are a list built against a kernel-owned ready list;
:func:`~repro.core.ties.first_tied_min_index` picks from it (other tie
policies draw from :func:`~repro.core.ties.tied_min_indices`).  The
whole decided order is committed with one :meth:`Mapping.assign_many`.
The trace is a :class:`KPBTrace` that keeps the subset array, the picks
and the completions and builds the :class:`KPBStep` tuple only when it
is first read.  The per-task argsort transcription
(:class:`ReferenceKPercentBest`) is the test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DeterministicTieBreaker,
    TieBreaker,
    first_tied_min_index,
    tied_argmin,
    tied_min_indices,
)
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, LazyTrace, register_heuristic

__all__ = [
    "KPercentBest",
    "ReferenceKPercentBest",
    "KPBStep",
    "KPBTrace",
    "kpb_subset_size",
]


def kpb_subset_size(num_machines: int, percent: float) -> int:
    """Number of machines in the K-percent subset: ``floor(M*k/100)`` in [1, M]."""
    if num_machines < 1:
        raise ConfigurationError(f"need at least one machine, got {num_machines}")
    raw = math.floor(num_machines * percent / 100.0)
    return max(1, min(num_machines, raw))


@dataclass(frozen=True)
class KPBStep:
    """One task's decision: the subset considered and the machine chosen."""

    task: str
    subset: tuple[str, ...]
    machine: str
    completion: float


class KPBTrace(LazyTrace):
    """The ``tuple[KPBStep, ...]`` of one kernel run, built lazily.

    Parts: task and machine labels, the ``(tasks, size)`` subset index
    array, each task's chosen machine index and its completion time.
    """

    __slots__ = ()

    def _build(self, tasks, machines, subsets, picks, completions):
        return tuple(
            KPBStep(
                task=task,
                subset=tuple(machines[j] for j in subset),
                machine=machines[pick],
                completion=completion,
            )
            for task, subset, pick, completion in zip(
                tasks, subsets.tolist(), picks.tolist(), completions.tolist()
            )
        )


@register_heuristic
class KPercentBest(Heuristic):
    """K-Percent Best: MCT restricted to each task's k% fastest machines."""

    name = "k-percent-best"

    def __init__(self, percent: float = 70.0) -> None:
        if not 0.0 < percent <= 100.0:
            raise ConfigurationError(
                f"percent must be in (0, 100], got {percent}"
            )
        self.percent = float(percent)
        self.last_trace: Sequence[KPBStep] = ()

    def subset_for(self, etc: ETCMatrix, task: str) -> tuple[str, ...]:
        """The k% best machines for ``task`` by execution time."""
        size = kpb_subset_size(etc.num_machines, self.percent)
        row = etc.task_row(task)
        best = np.argsort(row, kind="stable")[:size]
        return tuple(etc.machines[int(j)] for j in best)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        size = kpb_subset_size(etc.num_machines, self.percent)
        subsets = np.sort(
            np.argsort(etc.values, axis=1, kind="stable")[:, :size], axis=1
        )
        costs = np.take_along_axis(etc.values, subsets, axis=1).tolist()
        ready = mapping.ready_times_view().tolist()
        fast_ties = type(tie_breaker) is DeterministicTieBreaker
        picks: list[int] = []
        completions: list[float] = []
        for subset, cost in zip(subsets.tolist(), costs):
            completion = [c + ready[j] for c, j in zip(cost, subset)]
            if fast_ties:
                pick = first_tied_min_index(completion)
            else:
                pick = tie_breaker.choose(tied_min_indices(completion))
            machine_idx = subset[pick]
            ready[machine_idx] = finish = completion[pick]
            picks.append(machine_idx)
            completions.append(finish)
        mapping.assign_many(range(len(picks)), picks)
        self.last_trace = KPBTrace(
            etc.tasks, etc.machines, subsets, np.array(picks), np.array(completions)
        )

    def _emit(self, tracer, mapping: Mapping) -> None:
        """One event per step of :attr:`last_trace`."""
        for step in self.last_trace:
            tracer.event(
                "k-percent-best.decision",
                task=step.task,
                subset=step.subset,
                subset_size=len(step.subset),
                machine=step.machine,
                completion=step.completion,
            )
            tracer.count("decisions")
            tracer.observe("kpb.subset_size", len(step.subset))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(percent={self.percent})"


class ReferenceKPercentBest(KPercentBest):
    """Per-task argsort paper transcription of KPB: the test oracle."""

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        size = kpb_subset_size(etc.num_machines, self.percent)
        trace: list[KPBStep] = []
        for task in etc.tasks:
            row = etc.task_row(task)
            subset_idx = np.sort(np.argsort(row, kind="stable")[:size])
            completion = row[subset_idx] + mapping.ready_times()[subset_idx]
            pick = tie_breaker.choose(tied_argmin(completion))
            machine_idx = int(subset_idx[pick])
            assignment = mapping.assign(task, etc.machines[machine_idx])
            trace.append(
                KPBStep(
                    task=task,
                    subset=tuple(etc.machines[int(j)] for j in subset_idx),
                    machine=assignment.machine,
                    completion=assignment.completion,
                )
            )
        self.last_trace = tuple(trace)
