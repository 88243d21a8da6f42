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

Kernel (:class:`Sufferage`).  Pending tasks are an int
row array.  Ready times are fixed within a pass, so one vectorised scan
(:func:`_fast_decisions`) gives every pending task its earliest machine,
earliest CT and sufferage value.  The holder contest then runs for all
machines at once: sufferage values scatter into a ``(machines,
pending)`` grid filled with ``-inf`` and each machine's first argmax is
the final holder whenever no other candidate on that machine comes
within ``DEFAULT_ABS_TOL`` of the top; only the remaining machines
replay the sequential scan.  Winners commit in task order and drop out
of the pending array.  The trace is a :class:`SufferageTrace` that keeps
each pass's arrays and builds the :class:`SufferagePass` tuple only when
it is first read, so untraced runs never build decision objects.  The
paper transcription (:class:`ReferenceSufferage`) is the test oracle.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
    tied_argmin,
)
from repro.heuristics.base import Heuristic, register_heuristic
from repro.obs.tracer import get_tracer

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
        seed_mapping: dict[str, str] | None,
    ) -> None:
        etc = mapping.etc
        # The deterministic policy picks machines in one vectorised tie
        # scan; other policies draw per task, in snapshot order.
        breaker = None if type(tie_breaker) is DeterministicTieBreaker else tie_breaker
        records: list[tuple[np.ndarray, ...]] = []
        passes = _passes(etc.values, mapping.ready_times_view(), records, breaker)
        for tasks, machines in passes:
            for task, machine in zip(tasks, machines):
                mapping.assign_index(task, machine)
        self.last_trace = SufferageTrace(etc.tasks, etc.machines, records)
        tracer = get_tracer()
        if tracer.enabled:
            for p in self.last_trace:
                for d in p.decisions:
                    # vars() keeps field order: the reference's kwargs.
                    tracer.event("sufferage.decision", pass_index=p.index, **vars(d))
                    tracer.count("decisions")
                tracer.event("sufferage.pass", index=p.index, committed=p.committed)


class ReferenceSufferage(Sufferage):
    """Label-space paper transcription of Figure 17: the test oracle."""

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed_mapping: dict[str, str] | None,
    ) -> None:
        etc = mapping.etc
        tracer = get_tracer()
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
            if tracer.enabled:
                for d in decisions:
                    tracer.event(
                        "sufferage.decision",
                        pass_index=pass_index,
                        task=d.task,
                        machine=d.machine,
                        earliest_ct=d.earliest_ct,
                        sufferage=d.sufferage,
                        outcome=d.outcome,
                        displaced_task=d.displaced_task,
                    )
                    tracer.count("decisions")
                tracer.event(
                    "sufferage.pass",
                    index=pass_index,
                    committed=tuple(commits),
                )
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
    ``completion - best`` — the same booleans from half the elementwise
    passes.  With a ``tie_breaker`` each row's machine is drawn through
    ``choose(tied_argmin(row))`` in row order, the reference path's draw
    order.  The buffer is owned, so the second-minimum masking happens
    in place.
    """
    if tie_breaker is None:
        best = completion.min(axis=1)
        tied = (completion - best[:, None]) <= np.maximum(
            DEFAULT_ABS_TOL, DEFAULT_REL_TOL * completion
        )
        chosen = tied.argmax(axis=1)  # first tolerance-tied minimum per row
    else:
        chosen = np.array(
            [tie_breaker.choose(tied_argmin(row)) for row in completion],
            dtype=np.intp,
        )
    idx = np.arange(len(completion))
    earliest = completion[idx, chosen]
    if completion.shape[1] >= 2:
        completion[idx, chosen] = np.inf
        sufferage = completion.min(axis=1) - earliest
    else:
        sufferage = np.zeros(len(completion))
    return chosen, earliest, sufferage


def _passes(
    values: np.ndarray,
    ready: np.ndarray,
    records: list[tuple[np.ndarray, ...]] | None = None,
    tie_breaker: TieBreaker | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """The index-space kernel: yield each pass's ``(tasks, machines)``.

    The winners come in task order; the caller commits them into
    ``ready`` (which the next pass reads) before resuming.  ``records``
    collects ``(rows, chosen, earliest, sufferage, winners)`` per pass
    for :class:`SufferageTrace`.
    """
    rows = np.arange(values.shape[0])
    while rows.size:
        chosen, earliest, sufferage = _fast_decisions(
            values[rows] + ready, tie_breaker
        )
        winners = _contest(chosen, sufferage, values.shape[1])
        if records is not None:
            records.append((rows, chosen, earliest, sufferage, winners))
        yield rows[winners].tolist(), chosen[winners].tolist()
        keep = np.ones(rows.size, dtype=bool)
        keep[winners] = False
        rows = rows[keep]


def _contest(
    chosen: np.ndarray, sufferage: np.ndarray, num_machines: int
) -> np.ndarray:
    """Snapshot positions of every claimed machine's final holder, sorted.

    The sequential scan lets a later task displace the holder only with
    ``holder < s - DEFAULT_ABS_TOL``.  A machine's first argmax therefore
    ends up holding it whenever every other candidate has
    ``s < top - DEFAULT_ABS_TOL``: each earlier holder loses to it and
    no later candidate beats it.  Machines with a near-tie replay the
    sequential scan.
    """
    n = chosen.size
    grid = np.full((num_machines, n), -np.inf)
    grid[chosen, np.arange(n)] = sufferage
    holder = grid.argmax(axis=1)
    top = grid[np.arange(num_machines), holder]
    claimed = top > -np.inf
    near = np.count_nonzero(grid >= (top - DEFAULT_ABS_TOL)[:, None], axis=1)
    for machine in np.flatnonzero(claimed & (near > 1)).tolist():
        positions = np.flatnonzero(chosen == machine)
        candidates = zip(positions.tolist(), sufferage[positions].tolist())
        holder[machine], held = next(candidates)
        for position, value in candidates:
            if held < value - DEFAULT_ABS_TOL:
                holder[machine], held = position, value
    return np.sort(holder[claimed])


class SufferageTrace(Sequence):
    """The ``tuple[SufferagePass, ...]`` of one kernel run, built lazily.

    Holds each pass's arrays; the first read (indexing, iteration,
    comparison, hashing) replays the holder contests into the tuple the
    reference path builds and caches it.  Compares and hashes equal to
    that tuple; pickles as its arrays.
    """

    __slots__ = ("_tasks", "_machines", "_records", "_built")

    def __init__(
        self,
        tasks: tuple[str, ...],
        machines: tuple[str, ...],
        records: list[tuple[np.ndarray, ...]],
    ) -> None:
        self._tasks = tasks
        self._machines = machines
        self._records = records
        self._built: tuple[SufferagePass, ...] | None = None

    def _tuple(self) -> tuple[SufferagePass, ...]:
        if self._built is None:
            self._built = tuple(
                self._build(index, *record)
                for index, record in enumerate(self._records)
            )
        return self._built

    def _build(self, index, rows, chosen, earliest, sufferage, winners):
        tasks, machines = self._tasks, self._machines
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

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, SufferageTrace):
            other = other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __reduce__(self):
        return (SufferageTrace, (self._tasks, self._machines, self._records))

    def __repr__(self) -> str:
        return f"SufferageTrace({self._tuple()!r})"


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
