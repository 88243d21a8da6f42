"""Parallel experiment execution (compatibility surface).

Experiment grids are embarrassingly parallel across (heterogeneity,
consistency) cells: each cell owns an independent, stably-seeded RNG
stream (see :mod:`repro.analysis.experiments`), so cells can run in
separate processes and the merged result is *bit-identical* to the
serial run — the equivalence is asserted by the test suite.

The execution engine lives in :mod:`repro.analysis.runner` (sharded
work queue, on-disk cell cache, resume, timeouts and quarantine);
:func:`run_experiment_parallel` is retained as the historical drop-in
replacement for :func:`repro.analysis.experiments.run_experiment` with
the legacy contract: no cache side effects, and a failing cell
re-raises its original exception.

Constraint: the config must be picklable — in particular, pass
heuristic kwargs as plain values (ints, floats, strings), not live
``numpy.random.Generator`` objects (stochastic heuristics are seeded
internally per cell anyway).

Observability: when the caller's current tracer (see
:mod:`repro.obs.tracer`) is enabled, each worker process runs its cell
under a fresh :class:`~repro.obs.tracer.CollectingTracer`, ships the
resulting :class:`~repro.obs.tracer.ObsSnapshot` back with the records,
and the parent merges the snapshots **in cell order** — so the merged
event stream and counter totals are identical to a serial run under the
same tracer (asserted by the property suite).  Worker span records
(:mod:`repro.obs.spans`) merge the same way; cache-backed
:func:`~repro.analysis.runner.run_grid` runs additionally thread one
trace id through every worker so the merged spans form a single tree.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments import ExperimentConfig, RunRecord

__all__ = [
    "split_into_cells",
    "run_experiment_parallel",
]


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


def run_experiment_parallel(
    config: ExperimentConfig,
    max_workers: int | None = None,
    progress=None,
) -> list[RunRecord]:
    """Run the grid across processes; output order matches the serial run.

    ``progress`` is an optional :class:`~repro.obs.progress.ProgressReporter`
    advanced once per completed (heterogeneity, consistency) cell.  It
    renders to its own stream and never touches the tracer, so the
    merged event stream stays byte-identical with progress on or off.

    This is a thin wrapper over :func:`repro.analysis.runner.run_grid`
    with caching disabled and ``on_error="raise"`` — existing callers
    see exactly the pre-runner behaviour.  Use ``run_grid`` directly
    for resumable, cached, quarantining execution.
    """
    from repro.analysis.runner import run_grid

    result = run_grid(
        config,
        max_workers=max_workers,
        progress=progress,
        cache_dir=None,
        retries=0,
        on_error="raise",
    )
    return list(result.records)
