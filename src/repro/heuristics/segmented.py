"""Segmented Min-Min (Wu & Shu, HCW 2000 — the paper's reference [18]).

Min-Min favours short tasks early, which can strand long tasks on
loaded machines; Segmented Min-Min counteracts this by sorting tasks by
a per-task key (average / minimum / maximum ETC, descending), splitting
the sorted list into N equal segments, and running Min-Min on each
segment in turn (ready times carry across segments).  With one segment
it degenerates to plain Min-Min over the whole task set.

Wu & Shu report Segmented Min-Min beating Min-Min chiefly on
*consistent* ETC matrices with many tasks; the cross-heuristic bench
reproduces that shape.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import TieBreaker, tied_argmin
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["SegmentedMinMin"]

_KEYS = ("average", "minimum", "maximum")


@register_heuristic
class SegmentedMinMin(Heuristic):
    """Segmented Min-Min: sort by ETC key, split, Min-Min per segment.

    Parameters
    ----------
    segments:
        Number of equal-size segments (last one takes the remainder).
    key:
        Per-task sort key: ``"average"`` (Wu & Shu's Smm-avg, default),
        ``"minimum"`` (Smm-min) or ``"maximum"`` (Smm-max).  Tasks are
        processed in *descending* key order so expensive tasks are
        placed while machines are still lightly loaded.
    """

    name = "segmented-min-min"

    def __init__(self, segments: int = 4, key: str = "average") -> None:
        if segments < 1:
            raise ConfigurationError(f"segments must be >= 1, got {segments}")
        if key not in _KEYS:
            raise ConfigurationError(f"key must be one of {_KEYS}, got {key!r}")
        self.segments = int(segments)
        self.key = key

    def _sort_keys(self, values: np.ndarray) -> np.ndarray:
        if self.key == "average":
            return values.mean(axis=1)
        if self.key == "minimum":
            return values.min(axis=1)
        return values.max(axis=1)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        keys = self._sort_keys(etc.values)
        # descending by key; stable so equal keys keep task-list order
        order = np.argsort(-keys, kind="stable")
        segment_count = min(self.segments, etc.num_tasks)
        segments = np.array_split(order, segment_count)
        for segment in segments:
            self._minmin_segment(mapping, tie_breaker, [int(i) for i in segment])

    @staticmethod
    def _minmin_segment(
        mapping: Mapping, tie_breaker: TieBreaker, task_indices: list[int]
    ) -> None:
        """Plain Min-Min restricted to the given task rows."""
        etc = mapping.etc
        values = etc.values
        remaining = list(task_indices)
        while remaining:
            ready = mapping.ready_times()
            completion = values[remaining] + ready[None, :]
            best_ct = completion.min(axis=1)
            pos = int(tied_argmin(best_ct).min())  # oldest-task pair tie
            machine_idx = tie_breaker.choose(tied_argmin(completion[pos]))
            mapping.assign(etc.tasks[remaining[pos]], etc.machines[machine_idx])
            remaining.pop(pos)

    def __repr__(self) -> str:
        return f"SegmentedMinMin(segments={self.segments}, key={self.key!r})"
