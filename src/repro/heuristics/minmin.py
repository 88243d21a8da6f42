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

Kernels.  :class:`ReferenceMinMin` is the paper transcription above (a
fresh completion-time table every round) and serves as the test
oracle.  :class:`MinMin` works on presorted ETC columns: by Eq. 1,
``CT(t, m) = ETC(t, m) + RT(m)``, so raising ``RT(m)`` shifts machine
``m``'s whole column and never reorders it.  One stable argsort per
call gives each machine its tasks in CT order; a head pointer per
column skips mapped tasks, and the second Min is the minimum of the
column heads.  A decision needs no row scan unless another head, or the
next task in the winning column, lies inside a tie window of four
tolerances above the minimum; those near ties fall back to the
reference's oldest-task / first-tied-machine rule over the few tasks
inside the window (with a shortcut for exactly equal ETC runs).  The
mapping is certified for iteration by restriction when every window
held one tie cluster, all within half a tolerance of its minimum (the
rule in :mod:`repro.core.ties`): a single pair, an equal-ETC run, or a
scan whose largest CT stays inside the cluster.
:class:`MaxMin` keeps an :class:`IncrementalCompletionTable` (one
column refresh per committed pair).  Both kernels are
decision-for-decision identical to the oracle (tie-candidate sets and
tie-breaker draw order).  No kernel reads the tracer: kernels and
oracles share :func:`~repro.heuristics.base.emit_commit_decisions`,
which replays a finished mapping as decision events.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    CERTIFIED_SPREAD,
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
    first_tied_min_index,
    tied_argmin,
    tied_min_indices,
)
from repro.heuristics.base import Heuristic, emit_commit_decisions, register_heuristic

__all__ = [
    "MinMin",
    "MaxMin",
    "Duplex",
    "ReferenceMinMin",
    "ReferenceMaxMin",
    "ReferenceDuplex",
    "IncrementalCompletionTable",
    "oldest_extremal_row",
]


class _TwoPhaseReference(Heuristic):
    """Paper-transcription kernel shared by Min-Min and Max-Min.

    Rebuilds the full completion-time table every round; the second
    phase selects among the per-task best completion times by
    ``_second_phase_sign`` (min for Min-Min, max for Max-Min).
    """

    #: +1 selects the smallest per-task best CT (Min-Min), -1 the largest.
    _second_phase_sign: float = +1.0

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
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
            unmapped.pop(task_pos)


@register_heuristic
class MinMin(Heuristic):
    """Min-Min: repeatedly commit the globally earliest-finishing pair."""

    name = "min-min"

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        """Sorted-column kernel: merge presorted ETC columns by their heads."""
        etc = mapping.etc
        num_tasks = etc.num_tasks
        if not num_tasks:
            return
        values = etc.values
        # With the deterministic policy the machine choice is just the
        # first tolerance-tied index — no candidate list, no policy
        # dispatch (identical decision).
        fast_ties = type(tie_breaker) is DeterministicTieBreaker
        # Certified while every decision's tie window holds one tie
        # cluster (the rule in repro.core.ties; see Mapping.certified);
        # only under fast_ties.
        certified = fast_ties
        # Per machine c: cols[c] lists the task rows in ascending ETC
        # order (stable, so equal ETCs keep task order) and svals[c]
        # their ETCs; pos[c] is the first unmapped position, heads[c]
        # its task and hv[c] its completion time (inf once used up).
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        cols = order.T.tolist()
        svals = sorted_values.T.tolist()
        # The kernel keeps its own ready times with Mapping's commit
        # arithmetic and commits the decided pairs once at the end, so
        # the mapping's times are bit-identical to per-task commits.
        ready = mapping.ready_times_view().tolist()
        committed_tasks: list[int] = []
        committed_machines: list[int] = []
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
            if tol < abs_tol:
                tol = abs_tol
            window = g + 4.0 * tol
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
                machine_idx = m if fast_ties else tie_breaker.choose([m])
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
                    # Every pair in the window sits at CT == g (a tie
                    # cluster of spread 0, so the certificate holds);
                    # the task's tied machines are the inside columns
                    # it heads.
                    candidates = [c for c in inside if heads[c] == task_idx]
                else:
                    task_idx, top = _oldest_tied_task(
                        inside, g, window, cols, svals, ready, pos, mapped
                    )
                    if top > g + CERTIFIED_SPREAD * tol:
                        certified = False
                    candidates = tied_min_indices(values[task_idx] + np.array(ready))
                machine_idx = (
                    candidates[0] if fast_ties else tie_breaker.choose(candidates)
                )
            at_head = machine_idx == m and task_idx == heads[m]
            cost = svals[m][pos[m]] if at_head else float(values[task_idx, machine_idx])
            ready[machine_idx] = r = ready[machine_idx] + cost
            committed_tasks.append(task_idx)
            committed_machines.append(machine_idx)
            mapped[task_idx] = 1
            if at_head and heads.count(task_idx) == 1:
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
        mapping.assign_many(committed_tasks, committed_machines)
        mapping.certified = certified

    def _emit(self, tracer, mapping: Mapping) -> None:
        emit_commit_decisions(tracer, mapping, f"{self.name}.decision")


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


def _oldest_tied_task(
    inside, g, window, cols, svals, ready, pos, mapped
) -> tuple[int, float]:
    """The reference's oldest tolerance-tied task, from the window only,
    and the largest CT of an unmapped pair inside the window.

    Every task whose best CT ties with the global minimum ``g`` has that
    CT inside the window, so it appears in the window prefix of some
    column inside it; its best CT is the least of those appearances.
    Columns outside ``inside`` hold no CT inside the window.
    """
    num_tasks = len(mapped)
    best: dict[int, float] = {}
    top = g
    for c in inside:
        col, column_values, r = cols[c], svals[c], ready[c]
        for p in range(pos[c], num_tasks):
            task = col[p]
            if mapped[task]:
                continue
            ct = column_values[p] + r
            if ct > window:
                break
            if ct > top:
                top = ct
            if ct < best.get(task, math.inf):
                best[task] = ct
    oldest = min(
        task
        for task, ct in best.items()
        if ct - g <= max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * ct)
    )
    return oldest, top


@register_heuristic
class MaxMin(Heuristic):
    """Max-Min baseline: commit the pair whose best finish is *latest*.

    Not analysed in the paper but the canonical sibling of Min-Min
    (Ibarra & Kim; Braun et al.); used by the cross-heuristic study.
    """

    name = "max-min"

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        """Incremental kernel: one column refresh per committed pair."""
        etc = mapping.etc
        table = IncrementalCompletionTable(etc.values, mapping.ready_times_view())
        # With the deterministic policy the machine choice is just the
        # first tolerance-tied index.
        fast_ties = type(tie_breaker) is DeterministicTieBreaker
        for _ in range(etc.num_tasks):
            task_idx = oldest_extremal_row(table)
            row = table.table[task_idx]
            if fast_ties:
                machine_idx = first_tied_min_index(row)
            else:
                candidates = tied_min_indices(row)
                machine_idx = tie_breaker.choose(candidates)
            finish = mapping.assign_index(task_idx, machine_idx)
            table.deactivate(task_idx)
            table.refresh_column(machine_idx, finish)

    _emit = MinMin._emit


@register_heuristic
class Duplex(Heuristic):
    """Duplex baseline: run Min-Min and Max-Min, keep the better makespan.

    From Braun et al.; ties in makespan go to Min-Min.  Random policies
    draw from the same stream sequentially (Min-Min first).
    """

    name = "duplex"

    #: The two heuristics raced, Min-Min first.
    _parts: tuple[type[Heuristic], type[Heuristic]] = (MinMin, MaxMin)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        ready = mapping.initial_ready_times()
        min_map, max_map = [
            part().map_tasks(etc, ready, tie_breaker) for part in self._parts
        ]
        winner = min_map if min_map.makespan() <= max_map.makespan() else max_map
        mapping.assign_many(*winner.commit_order())


class ReferenceMinMin(_TwoPhaseReference, MinMin):
    """Paper-transcription Min-Min (Figure 2): the test oracle."""

    _second_phase_sign = +1.0


class ReferenceMaxMin(_TwoPhaseReference, MaxMin):
    """Full-table-rebuild Max-Min: the test oracle."""

    _second_phase_sign = -1.0


class ReferenceDuplex(Duplex):
    """Duplex over the reference Min-Min and Max-Min."""

    _parts = (ReferenceMinMin, ReferenceMaxMin)


class IncrementalCompletionTable:
    """``CT(t, m) = ETC(t, m) + ready(m)`` under single-column updates.

    The reference Max-Min rebuilds the ``(unmapped x machines)`` table
    every round, O(T*M) per round.  One assignment changes the ready
    time of exactly one machine, so only that column (and the per-row
    minima it held) can change.  :meth:`refresh_column` recomputes the
    column exactly as ``ETC[:, m] + ready[m]`` (never by adding a delta,
    which would drift by one float rounding), so every entry stays
    bit-identical to a fresh rebuild.  Because ETC values are strictly
    positive, a committed assignment strictly raises the machine's ready
    time, so only rows whose minimum sat in that column are re-reduced.
    Deactivated rows hold a ``-inf`` sentinel in ``best`` so selection is
    a plain ``max()`` (a ``where=``-masked reduction is ~7x slower at
    paper scale), and per-round elementwise ops write into preallocated
    scratch buffers.

    Parameters
    ----------
    values:
        The read-only ``(T, M)`` ETC array.
    ready:
        Initial ready-time vector (length ``M``); only read once — the
        table is kept current through :meth:`refresh_column`.

    Attributes
    ----------
    table:
        The maintained ``(T, M)`` completion-time table.  Entries of
        *inactive* (already-mapped) rows are still refreshed (cheaper
        than masking) but their ``best`` entries hold the sentinel.
    best:
        Per-row minimum of ``table`` for active rows; ``-inf`` (never a
        real completion time) for inactive ones.
    active:
        Boolean mask of not-yet-mapped rows.
    """

    __slots__ = ("values", "table", "best", "active", "_stale", "_buf", "_tied")

    def __init__(self, values: np.ndarray, ready: np.ndarray) -> None:
        num_tasks = values.shape[0]
        self.values = values
        self.table = values + np.asarray(ready, dtype=np.float64)[None, :]
        self.best = self.table.min(axis=1)
        self.active = np.ones(num_tasks, dtype=bool)
        self._stale = np.empty(num_tasks, dtype=bool)
        self._buf = np.empty(num_tasks, dtype=np.float64)
        self._tied = np.empty(num_tasks, dtype=bool)

    def deactivate(self, row: int) -> None:
        """Mark ``row`` as mapped; its ``best`` entry becomes the sentinel."""
        self.active[row] = False
        self.best[row] = -np.inf

    def refresh_column(self, col: int, new_ready: float) -> None:
        """Recompute column ``col`` for ready time ``new_ready``.

        ``new_ready`` must be strictly greater than the ready time the
        column currently reflects (always true after an assignment,
        since ETC values are strictly positive) — the row-min patching
        below relies on column values only ever increasing.
        """
        column = self.table[:, col]
        # Rows whose minimum lives in this column (column == best) are
        # the only ones whose best can change when the column rises.
        # Inactive rows are masked out (their sentinel must survive).
        stale = np.less_equal(column, self.best, out=self._stale)
        stale &= self.active
        np.add(self.values[:, col], new_ready, out=column)
        rows = stale.nonzero()[0]
        if rows.size:
            self.best[rows] = self.table[rows].min(axis=1)


def oldest_extremal_row(table: IncrementalCompletionTable) -> int:
    """Oldest active row attaining the tolerance-tied maximum of ``best``.

    Exactly reproduces ``int(tied_argmin(-best[unmapped]).min())`` from
    the reference Max-Min kernel for strictly positive completion
    times, where ``unmapped`` is the ascending list of active rows.
    """
    best = table.best
    # signed = -best (< 0): |signed| <= |target| everywhere, so the
    # tolerance scale collapses to the scalar |target| = max(best).
    # The -inf sentinel yields diff = +inf > tol, masking itself —
    # and peak - prefix_max is the elementwise expression evaluated
    # at the prefix's closest element, so the prefix check is exact.
    j = int(best.argmax())
    if j:
        peak = best[j]
        tol = max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * abs(peak))
        if peak - best[:j].max() <= tol:
            diff = np.subtract(peak, best, out=table._buf)
            tied = np.less_equal(diff, tol, out=table._tied)
            return int(tied.argmax())
    return j


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
