"""Shared pieces of the benchmark: statistics, digests, results, wrappers."""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: A percentile is only trusted when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples).
MIN_TAIL_SAMPLES = 10


def median(samples) -> float:
    return float(statistics.median(samples))


def p90(samples, label: str = "") -> float:
    """90th percentile (inclusive method); warns when the tail is thin."""
    samples = list(samples)
    if len(samples) * 0.1 < MIN_TAIL_SAMPLES:
        print(
            f"warning: {label or 'p90'} rests on {len(samples)} samples "
            f"(fewer than {MIN_TAIL_SAMPLES} beyond it)",
            file=sys.stderr,
        )
    if len(samples) == 1:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=10, method="inclusive")[8])


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)  # failed check messages
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.checks.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.checks and self.failed == 0 and self.attempted > 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


class TimedHeuristic:
    """Wraps a heuristic so every ``map_tasks`` call is a span.

    Everything else is delegated, so :class:`~repro.core.iterative.IterativeScheduler`
    and :class:`~repro.sim.rolling.RollingSimulation` drive it exactly
    like the wrapped heuristic.  ``on_call`` (optional) sees each call's
    arguments and its wall-clock start and end.
    """

    def __init__(self, inner, recorder, on_call=None) -> None:
        self._inner = inner
        self._recorder = recorder
        self._on_call = on_call

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def map_tasks(self, etc, *args, **kwargs):
        started = time.perf_counter()
        with self._recorder.span("heuristics.map"):
            mapping = self._inner.map_tasks(etc, *args, **kwargs)
        if self._on_call is not None:
            self._on_call(etc, args, kwargs, started, time.perf_counter())
        return mapping


def run_for(seconds: float, step) -> int:
    """Call ``step(i)`` until ``seconds`` of wall time have passed (at
    least once); returns the number of calls."""
    started = time.perf_counter()
    count = 0
    while True:
        step(count)
        count += 1
        if time.perf_counter() - started >= seconds:
            return count


_GAUGE_ARRAY = np.arange(256 * 16, dtype=np.float64).reshape(256, 16)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y) -> None:
        self.x = x
        self.y = y


def _affine(point: _Point, t: float) -> float:
    return point.x * t + point.y


def _gauge_job() -> None:
    """A fixed job with the program's mix: small objects, calls, dicts,
    lists, a sort and small-array numpy reductions."""
    counts: dict[int, int] = {}
    keys = []
    total = 0.0
    for i in range(1000):
        total += _affine(_Point(i, 1.5), 0.5)
        counts[i & 255] = counts.get(i & 255, 0) + i
        keys.append((i * 7919) % 1000)
    keys.sort()
    set(keys[:200])
    for _ in range(20):
        row = int(_GAUGE_ARRAY.min(axis=1).argmin())
        np.minimum(_GAUGE_ARRAY[:, 0], _GAUGE_ARRAY[:, row % 16])


#: Seconds the gauge job takes on an idle 2-core x86 VM.  It only sets
#: the scale of the normalised times; its exact value does not matter.
GAUGE_REFERENCE_S = 0.0009
GAUGE_REPEATS = 7


def speed_factor() -> float:
    """How fast this machine runs right now, relative to the reference.

    The benchmark shares its machine with other tenants, and their load
    makes the same code run up to ~1.6x slower for tens of seconds at a
    time.  Every timing is multiplied by the factor measured right
    before and after it, so it reads as if taken at reference speed:
    a slow spell lengthens the gauge job and the timed work alike.  The
    garbage collector is paused meanwhile, so the size of the heap the
    benchmark has built up cannot slow the gauge.
    """
    samples = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(GAUGE_REPEATS):
            started = time.perf_counter()
            _gauge_job()
            samples.append(time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return GAUGE_REFERENCE_S / median(samples)


def gauged(fn, *args, **kwargs):
    """``(result, seconds at reference speed, factor)`` of one call."""
    before = speed_factor()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    factor = (before + speed_factor()) / 2
    return result, elapsed * factor, factor


#: Per-layer metric names (the ``per_layer`` list of BENCHMARK.json);
#: a workload reports 0 for a layer it does not exercise.
PER_LAYER_UNITS = {
    "etc.instances": "count",
    "etc.generate_s": "s",
    "etc.store_publish_s": "s",
    "heuristics.map_calls": "count",
    "heuristics.map_self_s": "s",
    "heuristics.map_p50_ms": "ms",
    "core.iterations": "count",
    "core.driver_self_s": "s",
    "analysis.cells": "count",
    "analysis.cell_s": "s",
    "analysis.runner_self_s": "s",
    "analysis.experiment_self_s": "s",
    "sim.horizons": "count",
    "sim.dispatches": "count",
    "sim.mean_batch": "count",
    "sim.failures": "count",
    "sim.retries": "count",
    "sim.dropped": "count",
    "sim.self_s": "s",
    "serve.parse_ms": "ms",
    "serve.key_ms": "ms",
    "serve.cache_read_ms": "ms",
    "serve.cache_write_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.handle_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.shed": "count",
    "obs.trace_overhead": "ratio",
    "obs.root_s": "s",
    "obs.unattributed_s": "s",
}
