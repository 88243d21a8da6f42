"""grid-cold: ``run_grid`` on a fresh cell cache and a fresh ``ETCStore``.

``--seed`` draws four grid seeds.  One sweep publishes each grid's
ensembles into a new store (the set-up), runs each grid serially
against its store with a new cell cache (every cell a miss), then
resumes it from that cache twice (every cell a hit); throughput is one
sample per sweep.  The expected records of each grid come, untimed,
from ``run_experiment`` with the ``reference`` backend, which generates
its instances in process and never touches the runner, the store or
the cell cache.  The benchmark's metric list asks every workload for
``hit_*`` and ``miss_*`` latencies; here they are per-cell latencies of
the cell cache's two paths.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench.common import (
    Outcome,
    TimedHeuristic,
    digest,
    gauged,
    median,
    p90,
    peak_rss_mb,
    run_for,
)
from perfbench.layers import layer_metrics, run_traced

from repro.analysis.experiments import (
    ExperimentConfig,
    RunRecord,
    cell_instance_rng,
    run_experiment,
    run_record_to_dict,
)
from repro.analysis.parallel import split_into_cells
from repro.analysis.runner import run_grid, store_entry_key
from repro.core.iterative import IterativeScheduler
from repro.core.metrics import compare_iterative
from repro.core.ties import DeterministicTieBreaker
from repro.etc.generation import (
    Consistency,
    Heterogeneity,
    generate_ensemble,
    generate_ensemble_into,
)
from repro.etc.store import ETCStore
from repro.heuristics.backends import get_backend

HEURISTICS = ("min-min", "mct", "sufferage", "k-percent-best")

SIZES = {
    # ~0.75 s per cold grid on a 2-core x86 VM; 4 grids per sweep.
    "full": {"tasks": 256, "machines": 16, "instances": 1, "seeds": 4, "resumes": 2},
    "tiny": {"tasks": 12, "machines": 3, "instances": 1, "seeds": 2, "resumes": 2},
}


def make_configs(seed: int, size: dict) -> list[ExperimentConfig]:
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size["seeds"])
    return [
        ExperimentConfig(
            heuristics=HEURISTICS,
            num_tasks=size["tasks"],
            num_machines=size["machines"],
            heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
            consistencies=(Consistency.CONSISTENT, Consistency.INCONSISTENT),
            instances_per_cell=size["instances"],
            seed=int(grid_seed),
        )
        for grid_seed in seeds
    ]


def records_digest(records) -> str:
    return digest([run_record_to_dict(record) for record in records])


def publish(config: ExperimentConfig, store_dir: Path) -> None:
    """Publish every cell's ensemble under the runner's own entry keys."""
    store = ETCStore(store_dir)
    try:
        for cell in split_into_cells(config):
            het, cons = cell.heterogeneities[0], cell.consistencies[0]
            generate_ensemble_into(
                store,
                store_entry_key(cell, het, cons),
                cell.instances_per_cell,
                cell.num_tasks,
                cell.num_machines,
                heterogeneity=het,
                consistency=cons,
                method=cell.generation_method,
                rng=cell_instance_rng(cell, het, cons),
            )
    finally:
        store.close()


class CellClock:
    """``run_grid`` progress hook: timestamps each finished cell."""

    enabled = True
    total = 0

    def __init__(self) -> None:
        self.marks: list[float] = []

    def start(self) -> None:
        self.marks = [time.perf_counter()]

    def advance(self, label: str = "") -> None:
        self.marks.append(time.perf_counter())

    def finish(self) -> None:
        pass

    def latencies_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.marks, self.marks[1:])]


def run(seed: int, seconds: float, trace: bool, size: str, work: Path,
        out) -> Outcome:
    spec = SIZES[size]
    configs = make_configs(seed, spec)
    cells = len(split_into_cells(configs[0]))
    records_per_grid = cells * len(HEURISTICS) * spec["instances"]
    outcome = Outcome()

    # Untimed: the expected digests, from the reference backend run by
    # the runner-free path.
    expected = [
        records_digest(run_experiment(dataclasses.replace(config, backend="reference")))
        for config in configs
    ]

    setup_s: list[float] = []
    throughput: list[float] = []
    miss_ms: list[float] = []
    hit_ms: list[float] = []

    def one_grid(k: int, tmp: Path, timed: bool) -> float:
        """Cold grid, then resumed grids, on one published store; returns
        the cold grid's time at reference speed."""
        config, want = configs[k], expected[k]
        clock = CellClock()
        cold, cold_s, factor = gauged(
            run_grid, config, max_workers=1, cache_dir=tmp / "cells",
            store_dir=tmp / "store", progress=clock,
        )
        ok = outcome.check(
            cold.ok and cold.computed_cells == cells and cold.store_reused == cells,
            f"grid {k}: cold grid did not compute every cell from the store",
        )
        ok = outcome.check(
            records_digest(cold.records) == want,
            f"grid {k}: cold grid records differ from the reference backend's",
        ) and ok
        resumed = []  # (clock, factor) of each resumed grid
        for _ in range(spec["resumes"]):
            warm_clock = CellClock()
            warm, _, warm_factor = gauged(
                run_grid, config, max_workers=1, cache_dir=tmp / "cells",
                resume=True, progress=warm_clock,
            )
            resumed.append((warm_clock, warm_factor))
            ok = outcome.check(
                warm.cached_cells == cells and records_digest(warm.records) == want,
                f"grid {k}: resumed grid differs from the cold grid",
            ) and ok
        if timed:
            outcome.attempted += records_per_grid * (1 + spec["resumes"])
            if not ok:
                outcome.failed += records_per_grid * (1 + spec["resumes"])
            miss_ms.extend(ms * factor for ms in clock.latencies_ms())
            for warm_clock, warm_factor in resumed:
                hit_ms.extend(ms * warm_factor for ms in warm_clock.latencies_ms())
        return cold_s

    def sweep(index: int, timed: bool = True) -> None:
        """Publishes every grid's store (one set-up sample each), then
        runs each grid."""
        tmp = Path(tempfile.mkdtemp(dir=work))
        dirs = [tmp / str(k) for k in range(len(configs))]
        try:
            publish_s = [gauged(publish, c, d / "store")[1] for c, d in zip(configs, dirs)]
            run_s = sum(one_grid(k, d, timed) for k, d in enumerate(dirs))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if timed:
            setup_s.extend(publish_s)
            throughput.append(len(configs) * records_per_grid / run_s)

    sweep(0, timed=False)  # warm-up, set-up included
    sweeps = run_for(seconds, sweep)
    outcome.metrics = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
        "throughput_per_s": (median(throughput), "1/s"),
        "hit_p50_ms": (median(hit_ms), "ms"),
        "hit_p90_ms": (p90(hit_ms, "hit_p90_ms"), "ms"),
        "miss_p50_ms": (median(miss_ms), "ms"),
        "miss_p90_ms": (p90(miss_ms, "miss_p90_ms"), "ms"),
    }
    print(
        f"grid-cold: {sweeps} sweeps over {len(configs)} grids of {cells} cells x "
        f"{len(HEURISTICS)} heuristics at {spec['tasks']}x{spec['machines']}; "
        f"{len(miss_ms)} miss and {len(hit_ms)} hit cell samples",
        file=out,
    )
    if trace:
        outcome.metrics = traced_metrics(configs[0], expected[0], work, outcome, out)
    return outcome


def traced_metrics(config, want, work: Path, outcome: Outcome, out) -> dict:
    """One traced pass; the experiment layer is replayed through
    ``run_grid(cell_fn=...)`` so its inner calls can be wrapped."""

    def traced_pass(recorder):
        tmp = Path(tempfile.mkdtemp(dir=work))
        try:
            with recorder.span("grid-cold"):
                with recorder.span("etc.store_publish"):
                    publish(config, tmp / "store")
                store = ETCStore(tmp / "store", create=False)
                try:
                    with recorder.span("replay"):
                        generated = {
                            key: _generate(cell, recorder)
                            for key, cell in _cells_by_key(config).items()
                        }
                    outcome.check(
                        all(
                            np.array_equal(batch, store.batch(key).values)
                            for key, batch in generated.items()
                        ),
                        "traced pass: generate_ensemble differs from the store",
                    )
                    with recorder.span("analysis.runner"):
                        grid = run_grid(
                            config, max_workers=1, cache_dir=tmp / "cells",
                            cell_fn=lambda cell: _replay_cell(cell, store, recorder),
                        )
                finally:
                    store.close()
            return grid
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    grid, recorder, overhead = run_traced(traced_pass)
    outcome.check(
        records_digest(grid.records) == want,
        "traced pass: records differ from the untraced run",
    )
    recorder.write_jsonl(work / "spans-grid-cold.jsonl")
    print("per-layer breakdown (experiment layer replayed via run_grid(cell_fn=...)):",
          file=out)
    return layer_metrics(
        recorder,
        counts={
            "etc.instances": len(split_into_cells(config)) * config.instances_per_cell,
            "core.iterations": sum(record.num_iterations for record in grid.records),
        },
        overhead=overhead,
        out=out,
    )


def _cells_by_key(config) -> dict:
    return {
        store_entry_key(cell, cell.heterogeneities[0], cell.consistencies[0]): cell
        for cell in split_into_cells(config)
    }


def _generate(cell, recorder) -> np.ndarray:
    het, cons = cell.heterogeneities[0], cell.consistencies[0]
    with recorder.span("etc.generate"):
        instances = generate_ensemble(
            cell.instances_per_cell, cell.num_tasks, cell.num_machines,
            heterogeneity=het, consistency=cons, method=cell.generation_method,
            rng=cell_instance_rng(cell, het, cons),
        )
    return np.stack([etc.values for etc in instances])


def _replay_cell(cell: ExperimentConfig, store: ETCStore, recorder) -> list[RunRecord]:
    """``run_experiment`` for one cell of a deterministic-tie grid of
    non-stochastic heuristics, with every layer call wrapped in a span."""
    het, cons = cell.heterogeneities[0], cell.consistencies[0]
    records = []
    with recorder.span("analysis.experiment"):
        with recorder.span("etc.store_read"):
            instances = list(store.instances(store_entry_key(cell, het, cons)))
        for name in cell.heuristics:
            for index, etc in enumerate(instances):
                with recorder.span("core.iterate"):
                    heuristic = TimedHeuristic(
                        get_backend(cell.backend).make(name), recorder
                    )
                    result = IterativeScheduler(
                        heuristic, tie_breaker=DeterministicTieBreaker()
                    ).run(etc)
                    comparison = compare_iterative(result)
                records.append(
                    RunRecord(
                        heuristic=name,
                        heterogeneity=het,
                        consistency=cons,
                        instance_index=index,
                        tie_policy=cell.tie_policy,
                        comparison=comparison,
                        num_iterations=result.num_iterations,
                    )
                )
    return records
