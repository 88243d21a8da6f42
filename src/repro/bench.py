"""Benchmark-regression harness for the scheduling hot paths.

The kernels in :mod:`repro.heuristics` keep *reference* implementations
alongside the optimised defaults (the ``reference`` kernel backend), so
every tracked workload can time both variants in the same process and
report the speedup directly — the checked-in ``BENCH_baseline.json``
therefore records pre- **and** post-optimisation numbers for the
paper-scale workloads.

Three entry points:

* :func:`run_bench` executes the workload registry and returns a
  machine-readable report (see ``SCHEMA``);
* :func:`compare_reports` checks a fresh report against a baseline and
  lists every tracked workload that regressed beyond the tolerance;
* the ``repro bench`` CLI subcommand (and ``make bench`` /
  ``make bench-smoke``) wraps both, exiting non-zero on regression.

Workloads use ``time.perf_counter`` around whole mapper runs; ``best_s``
(minimum over repeats) is the comparison statistic because it is the
least noise-sensitive on shared machines, with ``median_s`` recorded
alongside for context.  Smoke mode shrinks every workload (64×8 instead
of 512×32) so the harness itself can run inside the test suite; smoke
and full reports are never comparable (`compare_reports` refuses).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SPEEDUP_TOLERANCE",
    "TRACING_OVERHEAD_BUDGET",
    "BenchOptions",
    "Workload",
    "WORKLOADS",
    "workload_names",
    "run_bench",
    "compare_reports",
    "compare_speedups",
    "load_report",
    "write_report",
    "format_report",
]

#: Report format identifier; bump when the JSON layout changes.
SCHEMA = "repro-bench/1"

#: Default allowed slowdown before ``compare_reports`` flags a workload
#: (0.5 = 50%, generous because wall-clock timing on shared hardware is
#: noisy; the optimisations being guarded are 2–10x, not 1.1x).
DEFAULT_TOLERANCE = 0.5

#: Default allowed *speedup-ratio* shrink before ``compare_speedups``
#: flags a workload (0.25 = the optimised-vs-reference ratio may lose a
#: quarter).  Ratios divide out absolute machine speed, so this gate is
#: usable on shared CI runners where raw ``best_s`` comparisons are not.
DEFAULT_SPEEDUP_TOLERANCE = 0.25

DEFAULT_REPEATS = 5

_FULL_SHAPE = (512, 32)
_SMOKE_SHAPE = (64, 8)
_ETC_SEED = 20070612  # fixed: every run times the same instance


@dataclass(frozen=True)
class BenchOptions:
    """Knobs a :class:`Workload` build receives.

    ``backend=None`` means the incremental kernels, so reports stay
    comparable run to run unless a backend is chosen deliberately.
    """

    smoke: bool = False
    backend: str | None = None


def _bench_etc(smoke: bool):
    from repro.etc.generation import (
        Consistency,
        Heterogeneity,
        generate_range_based,
    )

    tasks, machines = _SMOKE_SHAPE if smoke else _FULL_SHAPE
    return generate_range_based(
        tasks,
        machines,
        Heterogeneity.HIHI,
        Consistency.INCONSISTENT,
        rng=_ETC_SEED,
    )


@dataclass(frozen=True)
class Workload:
    """One tracked timing target.

    ``build(options)`` returns ``(run, run_reference)`` thunks — the
    optimised path and the retained pre-optimisation path (``None``
    when the workload has no reference variant).
    """

    name: str
    description: str
    build: Callable[
        [BenchOptions], tuple[Callable[[], object], Callable[[], object] | None]
    ]


def _mapper_workload(heuristic: str) -> Callable:
    def build(options: BenchOptions):
        from repro.core.ties import DeterministicTieBreaker
        from repro.heuristics.backends import get_backend

        etc = _bench_etc(options.smoke)
        # These workloads time a *fixed* kernel pair (incremental vs
        # reference) so their speedup column stays meaningful; the
        # backend knob drives the experiment workload instead.
        def run():
            return get_backend("incremental").make(heuristic).map_tasks(
                etc, tie_breaker=DeterministicTieBreaker()
            )

        def run_reference():
            return get_backend("reference").make(heuristic).map_tasks(
                etc, tie_breaker=DeterministicTieBreaker()
            )

        return run, run_reference

    return build


def _iterative_workload(options: BenchOptions):
    from repro.core.iterative import IterativeScheduler
    from repro.heuristics.minmin import MinMin, ReferenceMinMin

    etc = _bench_etc(options.smoke)

    def run():
        return IterativeScheduler(MinMin()).run(etc)

    def run_reference():
        return IterativeScheduler(ReferenceMinMin()).run(etc)

    return run, run_reference


def _experiment_workload(options: BenchOptions):
    from repro.analysis.experiments import ExperimentConfig, run_experiment

    smoke = options.smoke
    config = ExperimentConfig(
        heuristics=("min-min", "mct", "sufferage"),
        num_tasks=16 if smoke else 48,
        num_machines=4 if smoke else 8,
        instances_per_cell=1 if smoke else 3,
        seed=_ETC_SEED,
        backend=options.backend or "incremental",
    )

    def run():
        return run_experiment(config)

    return run, None


def _cached_grid_workload(options: BenchOptions):
    """Cached re-run through the resumable runner vs full recompute.

    ``build`` pre-populates a throwaway cell cache once; the optimised
    thunk then resumes from it (every cell a cache hit), while the
    reference thunk recomputes the same grid uncached.  The speedup
    column is the direct measure of the runner's near-zero recompute
    cost on a warm cache.
    """
    import atexit
    import shutil
    import tempfile

    from repro.analysis.experiments import ExperimentConfig
    from repro.analysis.runner import run_grid
    from repro.etc.generation import Heterogeneity

    smoke = options.smoke
    config = ExperimentConfig(
        heuristics=("min-min", "mct"),
        num_tasks=12 if smoke else 32,
        num_machines=4 if smoke else 8,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        instances_per_cell=1 if smoke else 2,
        seed=_ETC_SEED,
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cells-")
    run_grid(config, max_workers=1, cache_dir=cache_dir)
    atexit.register(shutil.rmtree, cache_dir, ignore_errors=True)

    def run():
        return run_grid(
            config, max_workers=1, cache_dir=cache_dir, resume=True
        )

    def run_reference():
        return run_grid(config, max_workers=1, cache_dir=None)

    return run, run_reference


#: Streamed-generation memory budget: the streamed path must stay under
#: ``baseline + payload/2`` while the payload itself exceeds that budget
#: — so finishing under budget is impossible for a path that
#: materialises the whole ensemble.
_STREAM_CHILD = r"""
import json, resource, shutil, sys

mode, root, count, tasks, machines, window, seed = sys.argv[1:8]
from repro.etc.generation import generate_ensemble, generate_ensemble_into
from repro.etc.store import ETCStore

store = ETCStore(root)
try:
    if mode == "streamed":
        generate_ensemble_into(
            store, "bench", int(count), int(tasks), int(machines),
            rng=int(seed), window=int(window),
        )
    else:
        store.put_matrices(
            "bench",
            generate_ensemble(int(count), int(tasks), int(machines), rng=int(seed)),
        )
finally:
    store.close()
    shutil.rmtree(root, ignore_errors=True)
print(json.dumps(
    {"maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024}
))
"""

_STREAM_BASELINE_CHILD = (
    "import json, resource; import numpy; import repro.etc.store; "
    "print(json.dumps({'maxrss_bytes': "
    "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024}))"
)


def _child_env() -> dict:
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def _child_maxrss(argv: list[str], env: dict) -> int:
    out = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True
    )
    if out.returncode != 0:
        raise ConfigurationError(
            f"bench child process failed (rc={out.returncode}): "
            f"{out.stderr.strip()[-500:]}"
        )
    return int(json.loads(out.stdout.strip().splitlines()[-1])["maxrss_bytes"])


def _streamed_generation_workload(options: BenchOptions):
    """Out-of-core ensemble generation under a hard peak-RSS budget.

    Each repeat spawns a *fresh* interpreter (fork would inherit the
    parent's RSS high-water mark) that pours one ensemble — sized to
    exceed the memory budget — into a throwaway ETC store.  The
    optimised thunk streams it in bounded windows
    (:func:`~repro.etc.generation.generate_ensemble_into`) and **fails
    the bench** if the child's ``ru_maxrss`` reaches the budget; the
    reference thunk materialises the full ensemble first
    (``generate_ensemble`` + ``put_matrices``), demonstrating the peak
    the streamed path avoids.  Budget: interpreter baseline (measured
    per run) + half the payload.
    """
    import atexit
    import shutil
    import tempfile

    tasks, machines = (256, 32) if options.smoke else _FULL_SHAPE
    instance_bytes = tasks * machines * 8
    env = _child_env()
    baseline = _child_maxrss(["-c", _STREAM_BASELINE_CHILD], env)
    # Payload > budget by at least 32 MiB by construction, and the
    # streamed child's peak (baseline + a few windows' worth of copies,
    # ~32 MiB over baseline in practice) clears the budget with the
    # same margin however fat the interpreter baseline is.
    floor = (128 if options.smoke else 256) << 20
    payload = max(floor, 2 * baseline + (64 << 20))
    count = -(-payload // instance_bytes)
    payload = count * instance_bytes
    budget = baseline + payload // 2
    window = max(1, (8 << 20) // instance_bytes)
    base = tempfile.mkdtemp(prefix="repro-bench-stream-")
    atexit.register(shutil.rmtree, base, ignore_errors=True)
    counter = iter(range(10**9))

    def child(mode: str) -> int:
        root = os.path.join(base, f"{mode}-{next(counter)}")
        return _child_maxrss(
            [
                "-c",
                _STREAM_CHILD,
                mode,
                root,
                str(count),
                str(tasks),
                str(machines),
                str(window),
                str(_ETC_SEED),
            ],
            env,
        )

    def run():
        maxrss = child("streamed")
        if maxrss >= budget:
            raise ConfigurationError(
                f"streamed generation peaked at {maxrss >> 20} MiB, over the "
                f"{budget >> 20} MiB budget ({payload >> 20} MiB payload, "
                f"{baseline >> 20} MiB interpreter baseline)"
            )
        return maxrss

    def run_reference():
        return child("eager")

    return run, run_reference


#: Hard ceiling on the instrumented-vs-null-tracer wall-clock ratio of
#: the iterative workload.  Tracing a 512x32 iterative run measures
#: ~1.7x (the event stream dominates); the budget is deliberately loose
#: so shared-runner noise never trips it while a pathological tracer
#: regression (accidental per-event quadratic work, spans on the null
#: path) still fails the bench loudly.
TRACING_OVERHEAD_BUDGET = 3.0


def _tracing_overhead_workload(options: BenchOptions):
    """Instrumented-vs-null-tracer cost of the full iterative run.

    The optimised thunk runs the 512x32 (64x8 smoke) iterative
    technique under a fresh :class:`~repro.obs.tracer.CollectingTracer`
    (events, counters, histograms, spans all live); the reference thunk
    runs the identical schedule under the default null tracer, so the
    ``speedup`` column is *null / instrumented* — the fraction of null
    throughput the instrumentation retains.  Both thunks run the
    scheduler :func:`~repro.analysis.invariance.verify_invariance` uses,
    which re-runs Min-Min at every iteration: an untraced default
    scheduler would derive the iterations of a certified mapping, and
    the ratio would then price that shortcut, not the tracer.
    ``build`` additionally
    measures a best-of-3 pair up front and **fails the bench** when the
    ratio exceeds :data:`TRACING_OVERHEAD_BUDGET`, making the gate
    self-contained (no baseline file needed) for CI smoke runs.
    """
    from repro.analysis.invariance import _FullLoopScheduler
    from repro.heuristics.minmin import MinMin
    from repro.obs.tracer import CollectingTracer, use_tracer

    etc = _bench_etc(options.smoke)
    scheduler = _FullLoopScheduler(MinMin())

    def run():
        with use_tracer(CollectingTracer()):
            return scheduler.run(etc)

    def run_reference():
        return scheduler.run(etc)

    def best_of(thunk, n=3):
        return min(_time_thunk(thunk, n)["samples"])

    null_s = best_of(run_reference)
    instrumented_s = best_of(run)
    ratio = instrumented_s / null_s if null_s > 0 else float("inf")
    if ratio > TRACING_OVERHEAD_BUDGET:
        raise ConfigurationError(
            f"tracing overhead {ratio:.2f}x exceeds the "
            f"{TRACING_OVERHEAD_BUDGET:.1f}x budget "
            f"(instrumented {instrumented_s * 1e3:.2f} ms vs null "
            f"{null_s * 1e3:.2f} ms on "
            f"{etc.num_tasks}x{etc.num_machines})"
        )
    return run, run_reference


def _rolling_serving_workload(options: BenchOptions):
    """Horizon-batched rolling serve vs per-task mapping cadence.

    Both thunks serve the identical streamed workload through
    :class:`~repro.sim.rolling.RollingSimulation` (map + 2-iteration
    refine per mapping event).  The optimised thunk batches ~64 tasks
    per horizon; the reference thunk shrinks the horizon to one mean
    inter-arrival gap so every mapping event holds ~1 task, paying the
    per-event mapping overhead once per task.  The ``speedup`` column is
    the direct measure of what horizon batching buys the serving loop.
    """
    from repro.heuristics.minmin import MinMin
    from repro.sim.rolling import (
        EnsembleTaskSource,
        RollingSimulation,
        calibrate_rate,
    )

    tasks, machines = (400, 4) if options.smoke else (4000, 8)

    def make_source():
        return EnsembleTaskSource(
            tasks, machines, tasks_per_instance=64, rng=_ETC_SEED
        )

    rate = calibrate_rate(next(make_source().chunks()))

    def serve(horizon: float):
        return RollingSimulation(
            make_source(),
            MinMin(),
            horizon=horizon,
            refine_iterations=2,
            rng=_ETC_SEED,
        ).run()

    def run():
        return serve(64.0 / rate)

    def run_reference():
        return serve(1.0 / rate)

    return run, run_reference


def _serve_load_workload(options: BenchOptions):
    """Warm-cache scheduling service vs a no-cache twin, same traffic.

    ``build`` starts two in-process :class:`~repro.serve.service.
    SchedulingService` instances behind one event loop on a daemon
    thread: the optimised variant with a pre-warmed content-addressed
    response cache, the reference with caching disabled.  Both thunks
    replay identical synthetic traffic (a compute-dominated study-kind
    payload) through :func:`~repro.serve.load.run_load` over real HTTP,
    so the ``speedup`` column is the end-to-end value of serving repeat
    requests from the response cache instead of recomputing — with the
    request/latency headline recorded in the entry's ``extra`` field.
    """
    import asyncio
    import atexit
    import shutil
    import tempfile
    import threading

    from repro.serve.http import start_server
    from repro.serve.load import post_json, run_load
    from repro.serve.service import SchedulingService

    smoke = options.smoke
    payload = {
        "kind": "study",
        "ensemble": {
            "tasks": 24 if smoke else 48,
            "machines": 6 if smoke else 8,
            "instances": 4 if smoke else 10,
        },
        "heuristic": "min-min",
        "seed": _ETC_SEED,
    }
    requests = 32 if smoke else 160
    concurrency = 8

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    atexit.register(shutil.rmtree, cache_dir, ignore_errors=True)
    cached_service = SchedulingService(cache_dir, max_workers=4)
    nocache_service = SchedulingService(None, max_workers=4)

    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-bench-serve", daemon=True
    )
    thread.start()

    def _start(service):
        return asyncio.run_coroutine_threadsafe(
            start_server(service), loop
        ).result(timeout=30)

    cached_server = _start(cached_service)
    nocache_server = _start(nocache_service)

    def _url(server) -> str:
        port = server.sockets[0].getsockname()[1]
        return f"http://127.0.0.1:{port}/v1/schedule"

    cached_url, nocache_url = _url(cached_server), _url(nocache_server)

    def _shutdown():
        async def _close():
            for server in (cached_server, nocache_server):
                server.close()
                await server.wait_closed()
            # 3.11's wait_closed() does not wait for in-flight
            # connection handlers; cancel stragglers so the loop stops
            # clean instead of warning about destroyed pending tasks.
            for task in asyncio.all_tasks():
                if task is not asyncio.current_task():
                    task.cancel()

        asyncio.run_coroutine_threadsafe(_close(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        cached_service.close()
        nocache_service.close()

    atexit.register(_shutdown)

    # Warm the cache so the optimised thunk times pure cache serving.
    status, _body = post_json(cached_url, payload)
    if status != 200:
        raise ConfigurationError(
            f"serve-load warmup request failed with HTTP {status}"
        )

    last_report: dict = {}

    def _load(url: str) -> dict:
        report = run_load(
            url, payload, requests=requests, concurrency=concurrency
        )
        if report["errors"]:
            raise ConfigurationError(
                f"serve-load saw {report['errors']} failed request(s)"
            )
        return report

    def run():
        report = _load(cached_url)
        last_report.clear()
        last_report.update(report)
        return report

    def run_reference():
        return _load(nocache_url)

    def bench_extra() -> dict:
        return {
            "requests": last_report.get("requests"),
            "requests_per_s": last_report.get("requests_per_s"),
            "latency_ms": dict(last_report.get("latency_ms", {})),
            "cached": last_report.get("cached"),
        }

    run.bench_extra = bench_extra
    return run, run_reference


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "minmin-512x32",
        "Min-Min mapper, 512 tasks x 32 machines (64x8 in smoke mode)",
        _mapper_workload("min-min"),
    ),
    Workload(
        "mct-512x32",
        "MCT mapper, 512 tasks x 32 machines",
        _mapper_workload("mct"),
    ),
    Workload(
        "sufferage-512x32",
        "Sufferage mapper, 512 tasks x 32 machines",
        _mapper_workload("sufferage"),
    ),
    Workload(
        "kpb-512x32",
        "K-Percent Best (70%) mapper, 512 tasks x 32 machines",
        _mapper_workload("k-percent-best"),
    ),
    Workload(
        "iterative-minmin-512x32",
        "Full iterative technique with Min-Min, 512 tasks x 32 machines",
        _iterative_workload,
    ),
    Workload(
        "experiment-grid-small",
        "Serial experiment grid (3 heuristics, no reference variant)",
        _experiment_workload,
    ),
    Workload(
        "runner-cached-grid",
        "Warm-cache resume via run_grid vs uncached recompute (the "
        "reference variant)",
        _cached_grid_workload,
    ),
    Workload(
        "tracing-overhead",
        "Iterative 512x32 run under a live CollectingTracer vs the null "
        "tracer (the reference variant); fails the bench when the "
        "overhead ratio exceeds the checked-in budget",
        _tracing_overhead_workload,
    ),
    Workload(
        "streamed-generation",
        "Out-of-core ensemble streaming into an ETC store in a fresh "
        "subprocess, asserted under a peak-RSS budget the payload "
        "exceeds, vs materialising the whole ensemble first (the "
        "reference variant)",
        _streamed_generation_workload,
    ),
    Workload(
        "rolling-horizon",
        "Rolling-horizon serve of 4000 streamed tasks x 8 machines "
        "(400x4 in smoke mode), ~64 tasks mapped+refined per horizon, "
        "vs a per-task mapping cadence (the reference variant)",
        _rolling_serving_workload,
    ),
    Workload(
        "serve-load",
        "Synthetic HTTP traffic against the scheduling service with a "
        "warm content-addressed response cache (160 study requests at "
        "concurrency 8; 32 in smoke mode), vs an identical no-cache "
        "service that recomputes every request (the reference variant)",
        _serve_load_workload,
    ),
)


def workload_names() -> tuple[str, ...]:
    return tuple(w.name for w in WORKLOADS)


def _time_thunk(thunk: Callable[[], object], repeats: int) -> dict:
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "median_s": statistics.median(samples),
        "samples": [round(s, 6) for s in samples],
    }


def _profile_thunk(thunk: Callable[[], object], top_n: int) -> list[str]:
    """One profiled invocation; top ``top_n`` cumulative-time entries.

    Runs *after* the timing loop so the profiler's overhead never
    contaminates the recorded samples.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        thunk()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(
        top_n
    )
    return [line.rstrip() for line in buffer.getvalue().splitlines() if line.strip()]


def run_bench(
    *,
    smoke: bool = False,
    repeats: int = DEFAULT_REPEATS,
    with_reference: bool = True,
    only: Sequence[str] | None = None,
    backend: str | None = None,
    profile: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Time every registered workload and return the report dict.

    ``only`` restricts the run to a subset of workload names;
    ``with_reference=False`` skips the pre-optimisation variants (halves
    runtime, but the report then carries no speedup figures);
    ``backend`` reaches the workload builds as :class:`BenchOptions`; ``profile=N`` additionally runs each
    optimised thunk once under :mod:`cProfile` after timing and stores
    the top-``N`` cumulative entries in the workload's ``profile``
    field; ``progress`` receives one line per finished workload.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if profile is not None and profile < 1:
        raise ConfigurationError(f"profile must be >= 1, got {profile}")
    options = BenchOptions(smoke=smoke, backend=backend)
    selected = WORKLOADS
    if only is not None:
        known = {w.name: w for w in WORKLOADS}
        missing = [name for name in only if name not in known]
        if missing:
            raise ConfigurationError(
                f"unknown bench workloads {missing!r}; "
                f"choose from {sorted(known)}"
            )
        selected = tuple(known[name] for name in only)

    import numpy as np

    results: dict[str, dict] = {}
    for workload in selected:
        run, run_reference = workload.build(options)
        entry = dict(_time_thunk(run, repeats))
        entry["description"] = workload.description
        if with_reference and run_reference is not None:
            reference = _time_thunk(run_reference, repeats)
            entry["reference_best_s"] = reference["best_s"]
            entry["reference_median_s"] = reference["median_s"]
            entry["speedup"] = reference["best_s"] / entry["best_s"]
        if profile is not None:
            entry["profile"] = _profile_thunk(run, profile)
        # Workloads may attach a ``bench_extra`` callable to the run
        # thunk to publish headline figures beyond wall-clock (the
        # serve-load workload records its requests/s and latency
        # percentiles this way).
        extra_fn = getattr(run, "bench_extra", None)
        if callable(extra_fn):
            entry["extra"] = extra_fn()
        results[workload.name] = entry
        if progress is not None:
            speedup = entry.get("speedup")
            note = f"  ({speedup:.2f}x vs reference)" if speedup else ""
            progress(
                f"{workload.name:<28} best {entry['best_s'] * 1e3:9.3f} ms"
                f"{note}"
            )

    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "repeats": repeats,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "results": results,
    }


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path}: not a {SCHEMA} report "
            f"(schema={report.get('schema')!r})"
        )
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare_reports(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regression messages for every tracked workload that got slower.

    A workload regresses when ``current best_s > baseline best_s *
    (1 + tolerance)``; workloads present in the baseline but missing
    from the current run are regressions too (a deleted workload must
    be removed from the baseline deliberately).  Comparing a smoke
    report against a full one (or vice versa) is a configuration error.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        raise ConfigurationError(
            "cannot compare reports with different smoke flags "
            f"(current smoke={bool(current.get('smoke'))}, "
            f"baseline smoke={bool(baseline.get('smoke'))})"
        )
    regressions: list[str] = []
    current_results = current.get("results", {})
    for name, base in baseline.get("results", {}).items():
        entry = current_results.get(name)
        if entry is None:
            regressions.append(f"{name}: missing from current run")
            continue
        limit = base["best_s"] * (1.0 + tolerance)
        if entry["best_s"] > limit:
            regressions.append(
                f"{name}: best {entry['best_s'] * 1e3:.3f} ms exceeds "
                f"baseline {base['best_s'] * 1e3:.3f} ms "
                f"x {1.0 + tolerance:.2f} = {limit * 1e3:.3f} ms"
            )
    return regressions


def compare_speedups(
    current: dict, baseline: dict, tolerance: float = DEFAULT_SPEEDUP_TOLERANCE
) -> list[str]:
    """Regression messages for shrunken optimised-vs-reference ratios.

    Only workloads carrying a ``speedup`` figure in the baseline are
    gated: a workload regresses when its current ratio drops below
    ``baseline speedup * (1 - tolerance)`` — or when its current run
    lost the reference timing entirely.  Because both variants run on
    the same machine in the same process, the ratio divides out
    absolute hardware speed, making this gate stable on heterogeneous
    CI runners where :func:`compare_reports`' wall-clock bound is not.
    Smoke/full reports remain incomparable, as with
    :func:`compare_reports`.
    """
    if not 0 <= tolerance < 1:
        raise ConfigurationError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        raise ConfigurationError(
            "cannot compare reports with different smoke flags "
            f"(current smoke={bool(current.get('smoke'))}, "
            f"baseline smoke={bool(baseline.get('smoke'))})"
        )
    regressions: list[str] = []
    current_results = current.get("results", {})
    for name, base in baseline.get("results", {}).items():
        base_speedup = base.get("speedup")
        if base_speedup is None:
            continue
        entry = current_results.get(name)
        if entry is None:
            regressions.append(f"{name}: missing from current run")
            continue
        speedup = entry.get("speedup")
        if speedup is None:
            regressions.append(
                f"{name}: current run carries no reference timing "
                f"(baseline speedup {base_speedup:.2f}x)"
            )
            continue
        floor = base_speedup * (1.0 - tolerance)
        if speedup < floor:
            regressions.append(
                f"{name}: speedup {speedup:.2f}x fell below baseline "
                f"{base_speedup:.2f}x x {1.0 - tolerance:.2f} = {floor:.2f}x"
            )
    return regressions


def format_report(report: dict) -> str:
    """Human-readable table of one report."""
    lines = [
        f"bench report  (smoke={report['smoke']}, repeats={report['repeats']}, "
        f"python {report['env']['python']}, numpy {report['env']['numpy']})",
        f"{'workload':<28} {'best':>12} {'median':>12} "
        f"{'reference':>12} {'speedup':>8}",
    ]
    for name, entry in sorted(report["results"].items()):
        reference = entry.get("reference_best_s")
        lines.append(
            f"{name:<28} {entry['best_s'] * 1e3:>9.3f} ms "
            f"{entry['median_s'] * 1e3:>9.3f} ms "
            + (
                f"{reference * 1e3:>9.3f} ms {entry['speedup']:>7.2f}x"
                if reference is not None
                else f"{'-':>12} {'-':>8}"
            )
        )
    for name, entry in sorted(report["results"].items()):
        extra = entry.get("extra") or {}
        if extra.get("requests_per_s") is not None:
            latency = extra.get("latency_ms", {})
            lines.append(
                f"{name}: {extra['requests_per_s']:.1f} requests/s "
                f"(p50 {latency.get('p50', 0):.3f} ms, "
                f"p95 {latency.get('p95', 0):.3f} ms, "
                f"{extra.get('cached', 0)} cached)"
            )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Allow ``python -m repro.bench`` as a thin alias of ``repro bench``."""
    from repro.cli import main as cli_main

    return cli_main(["bench", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
