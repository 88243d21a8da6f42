"""Scaling benches: empirical complexity of the heuristics and the
parallel experiment runner.

Verifies the complexity classes documented in docs/algorithms.md:
MCT/MET scale ~linearly in T, Min-Min ~quadratically; and demonstrates
the multiprocess grid runner's serial-equivalence at scale.
"""

import time

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import run_grid
from repro.etc.generation import Heterogeneity, generate_range_based
from repro.heuristics import get_heuristic


@pytest.mark.parametrize("tasks", [100, 400])
@pytest.mark.parametrize("name", ["mct", "min-min"])
def test_bench_heuristic_scaling(benchmark, name, tasks):
    etc = generate_range_based(tasks, 12, rng=0)
    heuristic = get_heuristic(name)
    mapping = benchmark(heuristic.map_tasks, etc)
    assert mapping.is_complete()


def test_bench_complexity_classes(benchmark, paper_output):
    """Growth-factor sanity: quadrupling T should grow Min-Min's cost
    much faster than MCT's (quadratic vs linear, loose envelope)."""
    def timed(name, tasks, repeats=3):
        etc = generate_range_based(tasks, 12, rng=1)
        heuristic = get_heuristic(name)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            heuristic.map_tasks(etc)
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        return {
            name: (timed(name, 100), timed(name, 400))
            for name in ("mct", "min-min", "sufferage")
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"{name:<12} T=100: {small * 1e3:8.2f} ms   T=400: {large * 1e3:8.2f} ms   "
        f"growth x{large / small:.1f}"
        for name, (small, large) in times.items()
    ]
    paper_output("Scaling — heuristic cost vs task count (M=12)", "\n".join(lines))
    mct_growth = times["mct"][1] / times["mct"][0]
    minmin_growth = times["min-min"][1] / times["min-min"][0]
    sufferage_growth = times["sufferage"][1] / times["sufferage"][0]
    # quadratic algorithms must grow faster than linear MCT; Min-Min's
    # vectorised rounds damp its constant, so only require a strict
    # ordering there, and a clear super-linear factor for Sufferage
    # (whose per-pass python loop exposes the T^2 term).
    assert minmin_growth > mct_growth
    assert sufferage_growth > 1.5 * mct_growth


def test_bench_parallel_grid_runner(benchmark, paper_output):
    config = ExperimentConfig(
        heuristics=("mct", "sufferage"),
        num_tasks=25,
        num_machines=6,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        instances_per_cell=6,
        seed=0,
    )

    def run():
        return run_grid(config, max_workers=2).records

    parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = run_experiment(config)
    assert [r.comparison for r in parallel] == [r.comparison for r in serial]
    paper_output(
        "Scaling — multiprocess experiment grid",
        f"{len(parallel)} records across 2 cells; parallel output "
        "bit-identical to the serial run",
    )
