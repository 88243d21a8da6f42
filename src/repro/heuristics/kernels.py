"""Incremental completion-table kernel (Max-Min) and short-row tie scans.

The reference Max-Min kernel rebuilds the full ``(unmapped ×
machines)`` completion-time table from scratch every round — a
fancy-index copy plus a broadcast add plus a full row-min, O(T·M) per
round and O(T²·M) per run.  But one assignment changes the ready time
of exactly *one* machine, so only one column of the table (and the
per-row minima that column held) can change.  The kernel here
maintains the table in place:

* :meth:`IncrementalCompletionTable.refresh_column` recomputes the
  changed column **exactly** as ``ETC[:, m] + ready[m]`` (never by
  adding a delta, which would drift from the reference by one float
  rounding) so every entry stays bit-identical to a fresh rebuild;
* per-row minima are patched incrementally: because ETC values are
  strictly positive, a committed assignment strictly *raises* the
  machine's ready time, so a row's minimum can only change if the
  refreshed column held it — those rows (typically ``U/M`` of them) are
  re-reduced, everything else is untouched.

Constant-factor discipline matters as much as the asymptotics at paper
scale (512×32): per-round numpy call overhead dominates once the
element counts drop to hundreds.  Three measures keep it down:

* deactivated rows have a ``-inf`` sentinel written into ``best`` so
  the selection can use a plain ``max()`` reduction instead of a
  ``where=``-masked one (~7x slower at this size);
* every per-round elementwise op writes into preallocated scratch
  buffers (no allocation churn);
* tolerance tie detection over a single short row uses
  :func:`tied_min_indices` — a plain Python scan that beats the numpy
  pipeline below ~100 elements.  MCT, KPB and Min-Min's sorted-column
  kernel (:mod:`repro.heuristics.minmin`) share these scans.

Every shortcut is an exact floating-point identity with the reference
code (completion times are strictly positive because ETC values are
validated positive and ready times non-negative; max selection and
negation are exact in IEEE arithmetic), not an approximation; the
property suite asserts byte-identical decisions and obs traces against
the retained reference paths under random ETCs, ready times, and tie
policies.
"""

from __future__ import annotations

import numpy as np

from repro.core.ties import DEFAULT_ABS_TOL, DEFAULT_REL_TOL

__all__ = [
    "IncrementalCompletionTable",
    "oldest_extremal_row",
    "tied_min_indices",
    "first_tied_min_index",
]


class IncrementalCompletionTable:
    """``CT(t, m) = ETC(t, m) + ready(m)`` under single-column updates.

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


def tied_min_indices(row: np.ndarray) -> list[int]:
    """Exact :func:`repro.core.ties.tied_argmin` for short positive rows.

    A plain Python scan over ``row.tolist()`` outruns the vectorised
    pipeline below ~100 elements (the machine axis is 32 at paper
    scale).  For strictly positive values the reference tolerance
    ``max(abs_tol, rel_tol * max(|v|, |target|))`` is exactly
    ``max(abs_tol, rel_tol * v)`` because ``v >= target > 0``, and
    ``|v - target|`` is exactly ``v - target``; both simplifications
    are value-identical, so the returned candidate list matches the
    reference's element for element.
    """
    lst = row.tolist()
    target = min(lst)
    out = []
    for j, v in enumerate(lst):
        tol = DEFAULT_REL_TOL * v
        if tol < DEFAULT_ABS_TOL:
            tol = DEFAULT_ABS_TOL
        if v - target <= tol:
            out.append(j)
    return out


def first_tied_min_index(row: np.ndarray) -> int:
    """First index of :func:`tied_min_indices` without building the list.

    Exactly what ``DeterministicTieBreaker.choose(tied_min_indices(row))``
    returns (the candidate list ascends, so its minimum is its first
    element); used on the deterministic fast paths when no tracer needs
    the full candidate set.  Early-exits at the first tied element.
    """
    lst = row.tolist()
    target = min(lst)
    for j, v in enumerate(lst):
        tol = DEFAULT_REL_TOL * v
        if tol < DEFAULT_ABS_TOL:
            tol = DEFAULT_ABS_TOL
        if v - target <= tol:
            return j
    raise AssertionError("unreachable: the minimum always ties with itself")
