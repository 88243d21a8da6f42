"""Min-Min heuristic (Ibarra & Kim) — paper Figure 2.

Procedure (verbatim structure):

1. A task list is generated that includes all the tasks as unmapped
   tasks.
2. For each task in the task list, the machine that gives the task its
   minimum completion time (*first Min*) is determined (ignoring other
   unmapped tasks).
3. Among all task-machine pairs found in 2, the pair that has the
   minimum completion time (*second Min*) is determined.
4. The task selected in 3 is removed from the task list and is mapped
   to the paired machine.
5. The ready time of the machine on which the task is mapped is updated.
6. Steps 2–5 are repeated until all tasks have been mapped.

Tie handling: *task* ties across pairs (second Min) always go to the
oldest (earliest-listed) task — the paper's canonical deterministic
example ("the oldest task is chosen", Section 2) — while *machine* ties
within the selected task (first Min) are resolved by the supplied
tie-breaking policy.  The worked example in Tables 1–3 exercises exactly
such a machine tie; under the deterministic policy both kinds of tie are
deterministic, as the Theorem in Section 3.2 requires.

Kernels.  ``incremental=False`` is the paper transcription above (a
fresh completion-time table every round) and serves as the test
oracle.  Min-Min's default kernel works on presorted ETC columns: by
Eq. 1, ``CT(t, m) = ETC(t, m) + RT(m)``, so raising ``RT(m)`` shifts
machine ``m``'s whole column and never reorders it.  One stable argsort
per call gives each machine its tasks in CT order; a head pointer per
column skips mapped tasks, and the second Min is the minimum of the
column heads.  A decision needs no row scan unless another head, or the
next task in the winning column, lies inside a tie window of four
tolerances above the minimum; those near ties fall back to the
reference's oldest-task / first-tied-machine rule over the few tasks
inside the window (with a shortcut for exactly equal ETC runs).
Max-Min keeps the incremental completion table of
:mod:`repro.heuristics.kernels`.  Both kernels are decision-for-decision
identical to the oracle (tie-candidate sets, tie-breaker draw order,
obs events).
"""

from __future__ import annotations

import math

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
from repro.heuristics.kernels import (
    IncrementalCompletionTable,
    first_tied_min_index,
    oldest_extremal_row,
    tied_min_indices,
)
from repro.obs.tracer import get_tracer

__all__ = ["MinMin", "MaxMin", "Duplex"]


class _TwoPhaseGreedy(Heuristic):
    """Shared machinery for Min-Min and Max-Min.

    Subclasses choose how the second phase selects among the per-task
    best completion times (min for Min-Min, max for Max-Min).
    """

    #: +1 selects the smallest per-task best CT (Min-Min), -1 the largest.
    _second_phase_sign: float = +1.0

    def __init__(self, *, incremental: bool = True) -> None:
        #: Use the subclass's fast ``_run_incremental`` kernel (default);
        #: the reference per-round rebuild is kept for equivalence tests.
        self.incremental = bool(incremental)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed_mapping: dict[str, str] | None,
    ) -> None:
        if self.incremental:
            self._run_incremental(mapping, tie_breaker)
        else:
            self._run_reference(mapping, tie_breaker)

    def _run_reference(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        """Reference kernel: rebuild the full table every round."""
        etc = mapping.etc
        tracer = get_tracer()
        unmapped = list(range(etc.num_tasks))  # row indices, oldest first
        values = etc.values
        while unmapped:
            ready = mapping.ready_times()
            # Phase 1 (first Min): per-task minimum completion time.
            completion = values[unmapped] + ready[None, :]
            best_ct = completion.min(axis=1)
            # Phase 2 (second Min / Max): select the extremal pair; pair
            # ties go to the oldest task (deterministic, per Section 2).
            signed = self._second_phase_sign * best_ct
            task_pos = int(tied_argmin(signed).min())
            task_idx = unmapped[task_pos]
            # Resolve the machine tie *for the selected task only*, so a
            # random policy consumes draws in the order the paper's
            # examples assume (one machine decision per mapped task).
            candidates = tied_argmin(completion[task_pos])
            machine_idx = tie_breaker.choose(candidates)
            mapping.assign(etc.tasks[task_idx], etc.machines[machine_idx])
            if tracer.enabled:
                tracer.event(
                    f"{self.name}.decision",
                    task=etc.tasks[task_idx],
                    machine=etc.machines[machine_idx],
                    completion=float(completion[task_pos, machine_idx]),
                    tied=tuple(etc.machines[int(j)] for j in candidates),
                )
                tracer.count("decisions")
                tracer.observe("decision.tie_candidates", len(candidates))
            unmapped.pop(task_pos)


@register_heuristic
class MinMin(_TwoPhaseGreedy):
    """Min-Min: repeatedly commit the globally earliest-finishing pair."""

    name = "min-min"
    _second_phase_sign = +1.0

    def _run_incremental(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        """Sorted-column kernel: merge presorted ETC columns by their heads."""
        etc = mapping.etc
        num_tasks = etc.num_tasks
        if not num_tasks:
            return
        values = etc.values
        tracer = get_tracer()
        # With the deterministic policy and no tracer listening, the
        # machine choice is just the first tolerance-tied index — no
        # candidate list, no policy dispatch (identical decision).
        fast_ties = (
            type(tie_breaker) is DeterministicTieBreaker and not tracer.enabled
        )
        # Per machine c: cols[c] lists the task rows in ascending ETC
        # order (stable, so equal ETCs keep task order) and svals[c]
        # their ETCs; pos[c] is the first unmapped position, heads[c]
        # its task and hv[c] its completion time (inf once used up).
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        cols = order.T.tolist()
        svals = sorted_values.T.tolist()
        live_ready = mapping.ready_times_view()
        ready = live_ready.tolist()
        machines = range(etc.num_machines)
        mapped = bytearray(num_tasks)
        pos = [0] * etc.num_machines
        heads = [col[0] for col in cols]
        hv = [svals[c][0] + ready[c] for c in machines]
        run_ends = None
        inf = math.inf
        abs_tol, rel_tol = DEFAULT_ABS_TOL, DEFAULT_REL_TOL

        for _ in range(num_tasks):
            g = min(hv)
            m = hv.index(g)
            # Four tolerances: every CT the reference's test can tie
            # with g (its tolerance scales with the larger value) lies
            # well inside, rounding included.
            tol = rel_tol * g
            window = g + 4.0 * (tol if tol > abs_tol else abs_tol)
            col = cols[m]
            nxt = pos[m] + 1
            while nxt < num_tasks and mapped[col[nxt]]:
                nxt += 1
            hv[m] = inf
            runner_up = min(hv)
            hv[m] = g
            if runner_up > window and (
                nxt == num_tasks or svals[m][nxt] + ready[m] > window
            ):
                # The only pair inside the window: no task or machine tie.
                task_idx = heads[m]
                machine_idx = m
                completion = g
                if not fast_ties:
                    candidates = [m]
                    machine_idx = tie_breaker.choose(candidates)
            else:
                inside = [c for c in machines if hv[c] <= window]
                task_idx = -1
                if hv.count(g) == len(inside):
                    if run_ends is None:
                        run_ends = _run_ends(sorted_values)
                    task_idx = _equal_run_head(
                        inside, window, svals, ready, pos, heads, run_ends
                    )
                if task_idx >= 0:
                    # Every tied pair sits at CT == g; the task's tied
                    # machines are the inside columns it heads.
                    candidates = [c for c in inside if heads[c] == task_idx]
                    row = None
                else:
                    task_idx = _oldest_tied_task(
                        inside, g, window, cols, svals, ready, pos, mapped
                    )
                    row = values[task_idx] + live_ready
                    candidates = tied_min_indices(row)
                machine_idx = (
                    candidates[0] if fast_ties else tie_breaker.choose(candidates)
                )
                completion = g if row is None else float(row[machine_idx])
            ready[machine_idx] = r = mapping.assign_index(
                task_idx, machine_idx
            ).completion
            if tracer.enabled:
                tracer.event(
                    "min-min.decision",
                    task=etc.tasks[task_idx],
                    machine=etc.machines[machine_idx],
                    completion=completion,
                    tied=tuple(etc.machines[j] for j in candidates),
                )
                tracer.count("decisions")
                tracer.observe("decision.tie_candidates", len(candidates))
            mapped[task_idx] = 1
            if (
                machine_idx == m
                and task_idx == heads[m]
                and heads.count(task_idx) == 1
            ):
                # Common case: only the winning column moves; its next
                # unmapped task was found above.
                pos[m] = nxt
                if nxt < num_tasks:
                    heads[m] = col[nxt]
                    hv[m] = svals[m][nxt] + r
                else:
                    heads[m] = -1
                    hv[m] = inf
                continue
            # Advance every column the committed task headed, and
            # refresh the chosen machine's head for its new ready time.
            stale = [c for c in machines if heads[c] == task_idx]
            if machine_idx not in stale:
                stale.append(machine_idx)
            for c in stale:
                col = cols[c]
                p = pos[c]
                while p < num_tasks and mapped[col[p]]:
                    p += 1
                pos[c] = p
                if p < num_tasks:
                    heads[c] = col[p]
                    hv[c] = svals[c][p] + ready[c]
                else:
                    heads[c] = -1
                    hv[c] = inf


def _run_ends(sorted_values: np.ndarray) -> list[list[int]]:
    """Per column, the end position of the equal-ETC run at each position.

    ``ends[c][p]`` is the first position after ``p`` in sorted column
    ``c`` whose ETC differs from position ``p``'s (or ``T``).
    """
    num_tasks = sorted_values.shape[0]
    bounds = np.full(sorted_values.shape, num_tasks, dtype=np.intp)
    bounds[:-1] = np.where(
        sorted_values[1:] != sorted_values[:-1],
        np.arange(1, num_tasks)[:, None],
        num_tasks,
    )
    return np.minimum.accumulate(bounds[::-1], axis=0)[::-1].T.tolist()


def _equal_run_head(inside, window, svals, ready, pos, heads, run_ends) -> int:
    """Oldest tied task when every head inside the window ties exactly.

    If each column's run of equal ETCs starting at its head is followed
    by a CT outside the window, the tied tasks are exactly the unmapped
    tasks of those runs, all at the same CT; the stable sort puts each
    run's oldest unmapped task at the head.  Returns ``-1`` otherwise.
    """
    num_tasks = len(run_ends[0])
    for c in inside:
        end = run_ends[c][pos[c]]
        if end < num_tasks and svals[c][end] + ready[c] <= window:
            return -1
    return min(heads[c] for c in inside)


def _oldest_tied_task(inside, g, window, cols, svals, ready, pos, mapped) -> int:
    """The reference's oldest tolerance-tied task, from the window only.

    Every task whose best CT ties with the global minimum ``g`` has that
    CT inside the window, so it appears in the window prefix of some
    column inside it; its best CT is the least of those appearances.
    """
    num_tasks = len(mapped)
    best: dict[int, float] = {}
    for c in inside:
        col, column_values, r = cols[c], svals[c], ready[c]
        for p in range(pos[c], num_tasks):
            task = col[p]
            if mapped[task]:
                continue
            ct = column_values[p] + r
            if ct > window:
                break
            if ct < best.get(task, math.inf):
                best[task] = ct
    return min(
        task
        for task, ct in best.items()
        if ct - g <= max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * ct)
    )


@register_heuristic
class MaxMin(_TwoPhaseGreedy):
    """Max-Min baseline: commit the pair whose best finish is *latest*.

    Not analysed in the paper but the canonical sibling of Min-Min
    (Ibarra & Kim; Braun et al.); used by the cross-heuristic study.
    """

    name = "max-min"
    _second_phase_sign = -1.0

    def _run_incremental(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        """Incremental kernel: one column refresh per committed pair."""
        etc = mapping.etc
        tracer = get_tracer()
        tasks, machines = etc.tasks, etc.machines
        table = IncrementalCompletionTable(etc.values, mapping.ready_times_view())
        # With the deterministic policy and no tracer listening, the
        # machine choice is just the first tolerance-tied index.
        fast_ties = (
            type(tie_breaker) is DeterministicTieBreaker and not tracer.enabled
        )
        for _ in range(etc.num_tasks):
            task_idx = oldest_extremal_row(table)
            row = table.table[task_idx]
            if fast_ties:
                machine_idx = first_tied_min_index(row)
            else:
                candidates = tied_min_indices(row)
                machine_idx = tie_breaker.choose(candidates)
            assignment = mapping.assign_index(task_idx, machine_idx)
            if tracer.enabled:
                tracer.event(
                    f"{self.name}.decision",
                    task=tasks[task_idx],
                    machine=machines[machine_idx],
                    completion=float(row[machine_idx]),
                    tied=tuple(machines[int(j)] for j in candidates),
                )
                tracer.count("decisions")
                tracer.observe("decision.tie_candidates", len(candidates))
            table.deactivate(task_idx)
            table.refresh_column(machine_idx, assignment.completion)


@register_heuristic
class Duplex(Heuristic):
    """Duplex baseline: run Min-Min and Max-Min, keep the better makespan.

    From Braun et al.; ties in makespan go to Min-Min.  Random policies
    draw from the same stream sequentially (Min-Min first).
    """

    name = "duplex"

    def __init__(self, *, incremental: bool = True) -> None:
        self.incremental = bool(incremental)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed_mapping: dict[str, str] | None,
    ) -> None:
        etc = mapping.etc
        ready = mapping.initial_ready_times()
        min_map = MinMin(incremental=self.incremental).map_tasks(
            etc, ready, tie_breaker
        )
        max_map = MaxMin(incremental=self.incremental).map_tasks(
            etc, ready, tie_breaker
        )
        winner = min_map if min_map.makespan() <= max_map.makespan() else max_map
        for assignment in winner.assignments:
            mapping.assign(assignment.task, assignment.machine)


def minmin_round_table(mapping_so_far: Mapping) -> np.ndarray:
    """Completion-time table for the *next* Min-Min round (diagnostics).

    Returns the ``(num_unmapped, num_machines)`` CT matrix the heuristic
    would inspect, in unmapped-task order — the quantity the paper's
    Table 2/3 rows display per resource allocation step.
    """
    etc = mapping_so_far.etc
    rows = [etc.task_index(t) for t in mapping_so_far.unmapped_tasks()]
    return etc.values[rows] + mapping_so_far.ready_times()[None, :]


__all__.append("minmin_round_table")
