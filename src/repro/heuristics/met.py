"""Minimum Execution Time (MET) heuristic — paper Figure 8.

Procedure (verbatim structure):

1. A task list is generated that includes all unmapped tasks in a given
   arbitrary order (we use ETC row order).
2. The first task in the list is mapped to its minimum *execution* time
   machine — machine load (ready time) is ignored entirely.
3. The task is removed from the list.
4. Steps 2–3 are repeated until all tasks have been mapped.

MET is O(T·M) and load-oblivious, so it can pile every task onto one
fast machine; the paper proves its mapping never changes across
iterations of the iterative technique under deterministic ties
(Section 3.4) and shows by example that random tie-breaking can
increase makespan.

Kernels.  :class:`ReferenceMET` is the label-space transcription above
and serves as the test oracle.  :class:`MET` never reads ready times to
decide, so under the deterministic policy it takes one row argmin over
the whole ETC matrix, re-deciding only rows with a near tie (a second
value within two tolerances of the row minimum) through the tolerance
rule, since inside a tie cluster ``argmin`` can differ from the first
tied index.  The mapping is certified for iteration by restriction
when every such row passes MCT's per-row check, ``separated_min_index``:
its near ties lie within half a tolerance of its minimum (the rule in
:mod:`repro.core.ties`).  Other policies take the transcription's
per-task loop.  Both kernels share one decision-event emitter, run
after the mapping is complete, so a tracer never changes the path.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
    first_tied_min_index,
    separated_min_index,
    tied_argmin,
)
from repro.heuristics.base import Heuristic, emit_commit_decisions, register_heuristic

__all__ = ["MET", "ReferenceMET"]


@register_heuristic
class MET(Heuristic):
    """Minimum Execution Time: each task to its fastest machine."""

    name = "met"

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        """One vectorised argmin under the deterministic policy; the
        transcription otherwise (random draws are per task anyway)."""
        if type(tie_breaker) is not DeterministicTieBreaker:
            _map_in_task_order(mapping, tie_breaker)
            return
        values = mapping.etc.values
        best = values.min(axis=1)
        limit = best + 2.0 * np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * best)
        near = (values <= limit[:, None]) & (values != best[:, None])
        choice = values.argmin(axis=1)
        certified = True
        for ti in np.flatnonzero(near.any(axis=1)).tolist():
            choice[ti] = first_tied_min_index(values[ti])
            certified = certified and separated_min_index(values[ti]) >= 0
        mapping.assign_many(range(len(choice)), choice.tolist())
        mapping.certified = certified

    def _emit(self, tracer, mapping: Mapping) -> None:
        emit_commit_decisions(tracer, mapping, "met.decision", execution=True)


class ReferenceMET(MET):
    """Label-space paper transcription of MET: the test oracle."""

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        _map_in_task_order(mapping, tie_breaker)


def _map_in_task_order(mapping: Mapping, tie_breaker: TieBreaker) -> None:
    """The paper's procedure, one label-space decision per task."""
    etc = mapping.etc
    for task in etc.tasks:
        machine_idx = tie_breaker.choose(tied_argmin(etc.task_row(task)))
        mapping.assign(task, etc.machines[machine_idx])
