"""Scaling benches: empirical complexity of the heuristics and the
parallel experiment runner.

Checks the operation counts behind the complexity classes documented
in docs/algorithms.md (MCT linear in T, Min-Min and Sufferage
super-linear) and prints their timings; and demonstrates
the multiprocess grid runner's serial-equivalence at scale.
"""

import time

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import run_grid
from repro.etc.generation import Heterogeneity, generate_range_based
from repro.heuristics import get_heuristic
from repro.obs.tracer import CollectingTracer, use_tracer


@pytest.mark.parametrize("tasks", [100, 400])
@pytest.mark.parametrize("name", ["mct", "min-min"])
def test_bench_heuristic_scaling(benchmark, name, tasks):
    etc = generate_range_based(tasks, 12, rng=0)
    heuristic = get_heuristic(name)
    mapping = benchmark(heuristic.map_tasks, etc)
    assert mapping.is_complete()


def test_bench_complexity_classes(benchmark, paper_output):
    """Operation counts behind the complexity classes, T=100 vs T=400.

    MCT makes one O(M) decision per task and Min-Min one round per task
    (each round choosing among every unmapped task, T(T+1)/2 candidates
    in all); Sufferage repeats whole passes over the unmapped tasks, so
    its decisions summed over passes grow super-linearly.  The counts
    are deterministic; the timings are printed only, since the kernels'
    constant factors no longer show the growth ratios reliably.
    """
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

    def counts(tasks):
        etc = generate_range_based(tasks, 12, rng=1)
        decisions = {}
        for name in ("mct", "min-min"):
            tracer = CollectingTracer()
            with use_tracer(tracer):
                get_heuristic(name).map_tasks(etc)
            decisions[name] = len(tracer.events_of(f"{name}.decision"))
        sufferage = get_heuristic("sufferage")
        sufferage.map_tasks(etc)
        passes = sufferage.last_trace
        return decisions, len(passes), sum(len(p.decisions) for p in passes)

    (small, small_passes, small_work) = counts(100)
    (large, large_passes, large_work) = counts(400)
    assert small == {"mct": 100, "min-min": 100}
    assert large == {"mct": 400, "min-min": 400}
    assert (small_passes, large_passes) == (17, 57)
    # Quadrupling T multiplies Sufferage's decisions by well over 4^1.5.
    assert (small_work, large_work) == (690, 9519)
    assert large_work > 8 * small_work


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
