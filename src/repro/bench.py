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

The registry holds only the gates nothing else provides: each fast
kernel's speed ratio against its paper transcription, and the
tracing-overhead budget.  The end-to-end paths (grid runner, rolling
loop, scheduling service, ETC store) are timed by ``perfbench/``.
"""

from __future__ import annotations

import json
import platform
import statistics
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

    ``build(smoke)`` returns ``(run, run_reference)`` thunks — the
    optimised path and the retained pre-optimisation path.
    """

    name: str
    description: str
    build: Callable[[bool], tuple[Callable[[], object], Callable[[], object]]]


def _mapper_workload(heuristic: str) -> Callable:
    def build(smoke: bool):
        from repro.core.ties import DeterministicTieBreaker
        from repro.heuristics.backends import get_backend

        etc = _bench_etc(smoke)

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


def _iterative_workload(smoke: bool):
    from repro.core.iterative import IterativeScheduler
    from repro.heuristics.minmin import MinMin, ReferenceMinMin

    etc = _bench_etc(smoke)

    def run():
        return IterativeScheduler(MinMin()).run(etc)

    def run_reference():
        return IterativeScheduler(ReferenceMinMin()).run(etc)

    return run, run_reference


#: Hard ceiling on the instrumented-vs-null-tracer wall-clock ratio of
#: the iterative workload.  Tracing a 512x32 full-loop iterative run
#: measures ~1.6x (best of 5 bench runs on a 2-vCPU container, 88 ms
#: against 55 ms; the kernel runs untouched and the replayed event
#: stream dominates the difference); the budget is deliberately loose
#: so shared-runner noise never trips it while a pathological tracer
#: regression (accidental per-event quadratic work, spans on the null
#: path) still fails the bench loudly.
TRACING_OVERHEAD_BUDGET = 3.0


def _tracing_overhead_workload(smoke: bool):
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

    etc = _bench_etc(smoke)
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
        "tracing-overhead",
        "Iterative 512x32 run under a live CollectingTracer vs the null "
        "tracer (the reference variant); fails the bench when the "
        "overhead ratio exceeds the checked-in budget",
        _tracing_overhead_workload,
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
    profile: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Time every registered workload and return the report dict.

    ``only`` restricts the run to a subset of workload names;
    ``with_reference=False`` skips the pre-optimisation variants (halves
    runtime, but the report then carries no speedup figures);
    ``profile=N`` additionally runs each
    optimised thunk once under :mod:`cProfile` after timing and stores
    the top-``N`` cumulative entries in the workload's ``profile``
    field; ``progress`` receives one line per finished workload.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if profile is not None and profile < 1:
        raise ConfigurationError(f"profile must be >= 1, got {profile}")
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
        run, run_reference = workload.build(smoke)
        entry = dict(_time_thunk(run, repeats))
        entry["description"] = workload.description
        if with_reference:
            reference = _time_thunk(run_reference, repeats)
            entry["reference_best_s"] = reference["best_s"]
            entry["reference_median_s"] = reference["median_s"]
            entry["speedup"] = reference["best_s"] / entry["best_s"]
        if profile is not None:
            entry["profile"] = _profile_thunk(run, profile)
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
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Allow ``python -m repro.bench`` as a thin alias of ``repro bench``."""
    from repro.cli import main as cli_main

    return cli_main(["bench", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
