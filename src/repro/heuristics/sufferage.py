"""Sufferage heuristic (Maheswaran et al.; Casanova et al.) — paper Figure 17.

Procedure (verbatim structure):

1. A task list ``L`` is generated that includes all unmapped tasks in a
   given arbitrary order.
2. While there are still unmapped tasks:

   i.   Mark all machines as unassigned.
   ii.  For each task ``t_k`` in ``L``:

        a. The machine ``m_j`` that gives the earliest completion time
           is found.
        b. The *sufferage value* is calculated (second earliest
           completion time minus earliest completion time).
        c. If machine ``m_j`` is unassigned then assign ``t_k`` to
           ``m_j``, delete ``t_k`` from ``L`` and mark ``m_j`` as
           assigned.  Otherwise, if the sufferage value of the task
           ``t_i`` already assigned to ``m_j`` is less than the
           sufferage value of ``t_k``, then unassign ``t_i``, add
           ``t_i`` back to ``L``, assign ``t_k`` to ``m_j`` and remove
           ``t_k`` from ``L``.

   iii. The ready times for all machines are updated.

Conventions (documented, needed for the paper's examples):

* a pass iterates over a snapshot of ``L`` in original task-list order;
  tasks displaced mid-pass re-enter ``L`` (keeping original order) and
  are reconsidered in the *next* pass;
* with a single remaining machine the sufferage value is 0 (there is no
  second-earliest completion time);
* the incumbent keeps the machine on sufferage ties (the paper's
  condition is strictly "less than");
* earliest-completion machine ties go through the tie-breaking policy.

The per-pass decision trace is kept on :attr:`Sufferage.last_trace` so
the bench harness can regenerate the per-pass rows of paper Tables 16
and 17.

Kernel (:class:`Sufferage`).  Pending tasks are an int row array and
the kernel owns a copy of the ready vector.  Ready times are fixed
within a pass, so one vectorised scan (:func:`_fast_decisions`) gives
every pending task its earliest machine, earliest CT and sufferage
value: an ``argmin`` and a runner-up pass, with the full tolerance scan
only for rows whose runner-up is tolerance-tied with the minimum.  The
holder contest (:func:`_contest`) is the paper's sequential scan over
plain lists.  Winners update the kernel's ready vector, drop out of the
pending array, and the whole decided order is committed with one
:meth:`Mapping.assign_many`.  The trace is a :class:`SufferageTrace`
that keeps each pass's arrays and builds the :class:`SufferagePass`
tuple only when it is first read, so untraced runs never build decision
objects.  The paper transcription (:class:`ReferenceSufferage`) is the
test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
    tied_argmin,
)
from repro.heuristics.base import Heuristic, LazyTrace, register_heuristic

__all__ = [
    "Sufferage",
    "ReferenceSufferage",
    "SufferageDecision",
    "SufferagePass",
    "SufferageTrace",
]


@dataclass(frozen=True)
class SufferageDecision:
    """One task's examination within a pass.

    ``outcome`` is one of ``"claimed"`` (machine was free),
    ``"displaced"`` (evicted the incumbent), ``"rejected"`` (incumbent
    kept the machine).
    """

    task: str
    machine: str
    earliest_ct: float
    sufferage: float
    outcome: str
    displaced_task: str | None = None


@dataclass(frozen=True)
class SufferagePass:
    """All decisions of one while-loop pass plus the commits it made."""

    index: int
    decisions: tuple[SufferageDecision, ...]
    committed: tuple[tuple[str, str], ...]  # (task, machine) pairs


@register_heuristic
class Sufferage(Heuristic):
    """Sufferage: greedy with limited local search via sufferage contests."""

    name = "sufferage"

    def __init__(self) -> None:
        self.last_trace: Sequence[SufferagePass] = ()

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        # The deterministic policy picks machines in one vectorised tie
        # scan; other policies draw per task, in snapshot order.
        breaker = None if type(tie_breaker) is DeterministicTieBreaker else tie_breaker
        records: list[tuple] = []
        tasks, machines = _passes(
            etc.values, mapping.ready_times_view().copy(), records, breaker
        )
        mapping.assign_many(tasks, machines)
        self.last_trace = SufferageTrace(etc.tasks, etc.machines, records)

    def _emit(self, tracer, mapping: Mapping) -> None:
        """One event per decision of :attr:`last_trace`, then one per pass."""
        for p in self.last_trace:
            for d in p.decisions:
                # vars() keeps the dataclass field order.
                tracer.event("sufferage.decision", pass_index=p.index, **vars(d))
                tracer.count("decisions")
            tracer.event("sufferage.pass", index=p.index, committed=p.committed)


class ReferenceSufferage(Sufferage):
    """Label-space paper transcription of Figure 17: the test oracle."""

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        order = {t: i for i, t in enumerate(etc.tasks)}
        pending: list[str] = list(etc.tasks)
        passes: list[SufferagePass] = []
        pass_index = 0
        fast_path = type(tie_breaker) is DeterministicTieBreaker
        while pending:
            snapshot = list(pending)
            per_task = (
                _vectorised_decisions(mapping, snapshot) if fast_path else None
            )
            # machine label -> (task, sufferage) tentative holder
            holders: dict[str, tuple[str, float]] = {}
            decisions: list[SufferageDecision] = []
            for position, task in enumerate(snapshot):
                if per_task is not None:
                    machine_idx, earliest, sufferage = per_task[position]
                else:
                    completion = mapping.completion_times_if(task)
                    machine_idx = tie_breaker.choose(tied_argmin(completion))
                    earliest = float(completion[machine_idx])
                    sufferage = _sufferage_value(completion, machine_idx)
                machine = etc.machines[machine_idx]
                incumbent = holders.get(machine)
                if incumbent is None:
                    holders[machine] = (task, sufferage)
                    pending.remove(task)
                    decisions.append(
                        SufferageDecision(task, machine, earliest, sufferage, "claimed")
                    )
                elif incumbent[1] < sufferage - DEFAULT_ABS_TOL:
                    displaced, _ = incumbent
                    holders[machine] = (task, sufferage)
                    pending.remove(task)
                    pending.append(displaced)
                    pending.sort(key=order.__getitem__)
                    decisions.append(
                        SufferageDecision(
                            task,
                            machine,
                            earliest,
                            sufferage,
                            "displaced",
                            displaced_task=displaced,
                        )
                    )
                else:
                    decisions.append(
                        SufferageDecision(
                            task,
                            machine,
                            earliest,
                            sufferage,
                            "rejected",
                            displaced_task=incumbent[0],
                        )
                    )
            # Step iii: commit this pass's holders, then ready times update.
            commits = sorted(
                ((task, machine) for machine, (task, _) in holders.items()),
                key=lambda pair: order[pair[0]],
            )
            for task, machine in commits:
                mapping.assign(task, machine)
            passes.append(
                SufferagePass(pass_index, tuple(decisions), tuple(commits))
            )
            pass_index += 1
        self.last_trace = tuple(passes)


def _sufferage_value(completion: np.ndarray, best_idx: int) -> float:
    """Second-earliest CT minus earliest CT; 0 with a single machine."""
    if completion.size < 2:
        return 0.0
    rest = np.delete(completion, best_idx)
    return float(rest.min() - completion[best_idx])


def _fast_decisions(
    completion: np.ndarray, tie_breaker: TieBreaker | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_vectorised_decisions` with positivity-exact tolerance math.

    Returns ``(chosen, earliest, sufferage)`` per row of an owned
    ``(pending, machines)`` completion array.  Completion times are
    strictly positive and every entry is ``>=`` its row minimum, so the
    reference tolerance scale ``max(|completion|, |best|)`` is exactly
    ``completion`` and ``|completion - best|`` is exactly
    ``completion - best``.  That predicate ``c - best <= max(abs, rel *
    c)`` grows with ``c``, so a row has a second tolerance-tied entry
    exactly when its runner-up is tied: rows without one take
    ``argmin``, ``best`` and ``runner-up - best`` from two full passes,
    and only near-tie rows (exact duplicates included) take the full
    tolerance scan.  With a ``tie_breaker`` each row's machine is drawn
    through ``choose(tied_argmin(row))`` in row order, the reference
    path's draw order.  The buffer is owned, so the runner-up masking
    happens in place.
    """
    num_rows, num_machines = completion.shape
    if tie_breaker is not None:
        chosen = np.array(
            [tie_breaker.choose(tied_argmin(row)) for row in completion],
            dtype=np.intp,
        )
    else:
        chosen = completion.argmin(axis=1)
    if num_machines < 2:
        return chosen, completion[:, 0].copy(), np.zeros(num_rows)
    # Flat indices into the row-major buffer: ``take``/``put`` on them
    # outrun 2-D fancy indexing, and a row argmin outruns a row min.
    flat = completion.reshape(-1)
    starts = np.arange(0, num_rows * num_machines, num_machines)
    at = starts + chosen
    earliest = flat.take(at)
    flat.put(at, np.inf)
    runner_up = flat.take(starts + completion.argmin(axis=1))
    sufferage = runner_up - earliest
    # Every row's tolerance is at most the largest runner-up's, so one
    # comparison of two reductions clears most passes of near ties.
    if tie_breaker is None and sufferage.min() <= max(
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL * runner_up.max()
    ):
        near = np.flatnonzero(
            sufferage <= np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * runner_up)
        )
        flat.put(at[near], earliest[near])
        rows = completion[near]
        tied = (rows - earliest[near, None]) <= np.maximum(
            DEFAULT_ABS_TOL, DEFAULT_REL_TOL * rows
        )
        chosen[near] = pick = tied.argmax(axis=1)  # first tied minimum
        cell = np.arange(near.size), pick
        earliest[near] = rows[cell]
        rows[cell] = np.inf
        sufferage[near] = rows.min(axis=1) - earliest[near]
    return chosen, earliest, sufferage


def _passes(
    values: np.ndarray,
    ready: np.ndarray,
    records: list[tuple],
    tie_breaker: TieBreaker | None = None,
) -> tuple[list[int], list[int]]:
    """The index-space kernel: every pass's winners as ``(tasks, machines)``.

    ``ready`` is owned and updated after each pass.  The winners come
    pass by pass, each pass in task order: the commit order.
    ``records`` collects ``(rows, chosen, earliest, sufferage, winners)``
    per pass for :class:`SufferageTrace`.
    """
    num_tasks, num_machines = values.shape
    pending = np.ones(num_tasks, dtype=bool)
    rows = np.arange(num_tasks)
    tasks: list[int] = []
    machines: list[int] = []
    while rows.size:
        completion = values.take(rows, axis=0)
        completion += ready
        chosen, earliest, sufferage = _fast_decisions(completion, tie_breaker)
        machine_of = chosen.tolist()
        winners = _contest(machine_of, sufferage, num_machines)
        records.append((rows, chosen, earliest, sufferage, winners))
        for position in winners:
            machine = machine_of[position]
            ready[machine] = earliest[position]
            machines.append(machine)
        won = rows.take(winners).tolist()
        tasks += won
        pending[won] = False
        rows = pending.nonzero()[0]
    return tasks, machines


def _contest(
    chosen: list[int], sufferage: np.ndarray, num_machines: int
) -> list[int]:
    """Snapshot positions of every claimed machine's final holder, sorted.

    The paper's sequential scan: a later task displaces the holder only
    with ``holder < s - DEFAULT_ABS_TOL`` (the right-hand sides come
    from one array subtraction, the same float operation); an unclaimed
    machine holds ``-inf``, which every finite sufferage value displaces.
    """
    held = [-math.inf] * num_machines
    holder = [-1] * num_machines
    for position, machine, value, bar in zip(
        count(), chosen, sufferage.tolist(), (sufferage - DEFAULT_ABS_TOL).tolist()
    ):
        if held[machine] < bar:
            held[machine] = value
            holder[machine] = position
    winners = [position for position in holder if position >= 0]
    winners.sort()
    return winners


class SufferageTrace(LazyTrace):
    """The ``tuple[SufferagePass, ...]`` of one kernel run, built lazily.

    Parts: task and machine labels and each pass's ``(rows, chosen,
    earliest, sufferage, winners)`` record; building replays the holder
    contests into the tuple the reference path builds.
    """

    __slots__ = ()

    def _build(self, tasks, machines, records):
        return tuple(
            _build_pass(tasks, machines, index, *record)
            for index, record in enumerate(records)
        )


def _build_pass(tasks, machines, index, rows, chosen, earliest, sufferage, winners):
    holders: dict[int, tuple[int, float]] = {}
    decisions = []
    for task, machine, ct, value in zip(
        rows.tolist(), chosen.tolist(), earliest.tolist(), sufferage.tolist()
    ):
        incumbent = holders.get(machine)
        if incumbent is None:
            holders[machine] = (task, value)
            outcome, other = "claimed", None
        elif incumbent[1] < value - DEFAULT_ABS_TOL:
            holders[machine] = (task, value)
            outcome, other = "displaced", tasks[incumbent[0]]
        else:
            outcome, other = "rejected", tasks[incumbent[0]]
        decisions.append(
            SufferageDecision(
                tasks[task], machines[machine], ct, value, outcome, other
            )
        )
    committed = tuple(
        (tasks[t], machines[m])
        for t, m in zip(rows[winners].tolist(), chosen[winners].tolist())
    )
    return SufferagePass(index, tuple(decisions), committed)


def _vectorised_decisions(
    mapping: Mapping, snapshot: list[str]
) -> list[tuple[int, float, float]]:
    """Per-task (machine index, earliest CT, sufferage) for a whole pass.

    Ready times are fixed within a Sufferage pass, so every task's best
    machine and sufferage value are independent of the scan order — the
    full ``(pending x machines)`` table vectorises.  The machine choice
    reproduces the deterministic policy exactly: lowest index among the
    *tolerance-tied* minima (not plain ``argmin``, which would diverge
    from the per-task path on float-noise ties).
    """
    etc = mapping.etc
    rows = [etc.task_index(t) for t in snapshot]
    completion = etc.values[rows] + mapping.ready_times()[None, :]
    best = completion.min(axis=1)
    tol = np.maximum(
        DEFAULT_ABS_TOL,
        DEFAULT_REL_TOL * np.maximum(np.abs(completion), np.abs(best)[:, None]),
    )
    tied = np.abs(completion - best[:, None]) <= tol
    chosen = tied.argmax(axis=1)  # first tolerance-tied minimum per row
    earliest = completion[np.arange(len(rows)), chosen]
    if completion.shape[1] >= 2:
        # sufferage uses exact values: second smallest excluding the
        # chosen column (paper: "second earliest completion time")
        masked = completion.copy()
        masked[np.arange(len(rows)), chosen] = np.inf
        sufferage = masked.min(axis=1) - earliest
    else:
        sufferage = np.zeros(len(rows))
    return [
        (int(chosen[k]), float(earliest[k]), float(sufferage[k]))
        for k in range(len(rows))
    ]
