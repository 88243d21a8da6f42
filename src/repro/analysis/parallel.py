"""Grid cells: the unit of parallel experiment execution.

Experiment grids are embarrassingly parallel across (heterogeneity,
consistency) cells: each cell owns an independent, stably-seeded RNG
stream (see :mod:`repro.analysis.experiments`), so cells can run in
separate processes and the merged result is *bit-identical* to the
serial run — the equivalence is asserted by the test suite.

:func:`split_into_cells` cuts a grid into those cells; the execution
engine that runs them — serially or on a process pool, with an optional
on-disk cell cache, resume, timeouts and quarantine — is
:func:`repro.analysis.runner.run_grid`.  Pooled runs need a picklable
config — in particular, pass heuristic kwargs as plain values (ints,
floats, strings), not live ``numpy.random.Generator`` objects
(stochastic heuristics are seeded internally per cell anyway).

Observability: when the caller's current tracer (see
:mod:`repro.obs.tracer`) is enabled, each worker process runs its cell
under a fresh :class:`~repro.obs.tracer.CollectingTracer`, ships the
resulting :class:`~repro.obs.tracer.ObsSnapshot` back with the records,
and the parent merges the snapshots **in cell order** — so the merged
event stream and counter totals are identical to a serial run under the
same tracer (asserted by the property suite).  Worker span records
(:mod:`repro.obs.spans`) merge the same way; cache-backed runs
additionally thread one trace id through every worker so the merged
spans form a single tree.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments import ExperimentConfig

__all__ = ["split_into_cells"]


def split_into_cells(config: ExperimentConfig) -> list[ExperimentConfig]:
    """One sub-config per (heterogeneity, consistency) cell.

    Because per-cell seed streams are keyed by the cell's own labels
    (not by grid position), each sub-config reproduces exactly the
    records the full grid would produce for that cell.  An empty grid
    (no heterogeneities or no consistencies) yields no cells.
    """
    return [
        dataclasses.replace(
            config, heterogeneities=(het,), consistencies=(cons,)
        )
        for het in config.heterogeneities
        for cons in config.consistencies
    ]
