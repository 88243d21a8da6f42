"""rolling-faults: ``RollingSimulation`` under bursty arrivals and faults.

``--seed`` draws twenty-four simulation seeds.  One sweep builds a task
source, a seeded fault plan and the arrival rate for each (the set-up),
then serves each stream with Min-Min refined by two iterations of the
technique, with ``remap`` recovery; throughput is one sample per sweep.
Every ``RollingResult`` must equal that of the same scenario served
with the ``reference`` backend (untimed, before anything is timed) and
must account for every task.

A *horizon* is one mapping event: the heuristic's calls for one batch,
timed from outside by wrapping the heuristic.  The benchmark's metric
list asks every workload for ``hit_*`` and ``miss_*`` latencies; here
they are horizons mapped while every machine is up (``hit``) and while
a fault holds a machine down, the remap path (``miss``).
"""

from __future__ import annotations

import dataclasses
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
from perfbench.spans import NullRecorder

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker
from repro.etc.generation import Consistency, Heterogeneity, generate_range_based
from repro.heuristics.backends import get_backend
from repro.sim.arrivals import make_arrival_process
from repro.sim.faults import FaultConfig, generate_fault_plan
from repro.sim.rolling import EnsembleTaskSource, RollingSimulation, calibrate_rate

UTILIZATION = 0.7
REFINE_ITERATIONS = 2
#: Large enough that no task exhausts its retries, so every task completes.
RETRY_BUDGET = 32

SIZES = {
    # ~0.3 s per scenario on a 2-core x86 VM; 24 scenarios per sweep, so
    # the horizon latencies pool enough arrival and fault draws that the
    # seed moves their percentiles little.
    "full": {"tasks": 4096, "machines": 16, "batch": 256, "failures": 1.0,
             "downtime": 0.04, "seeds": 24},
    "tiny": {"tasks": 512, "machines": 4, "batch": 32, "failures": 1.0,
             "downtime": 0.04, "seeds": 2},
}


@dataclasses.dataclass
class Scenario:
    seed: int
    source: EnsembleTaskSource
    plan: object
    horizon: float
    mean_downtime: float


def build(seed: int, spec: dict) -> Scenario:
    """Task source, fault plan and arrival rate for one simulation seed."""
    machines = spec["machines"]
    sample = generate_range_based(
        spec["batch"], machines, Heterogeneity.HIHI, Consistency.INCONSISTENT,
        rng=np.random.default_rng(seed),
    )
    rate = calibrate_rate(sample.values, UTILIZATION)
    duration = spec["tasks"] / rate
    mean_downtime = spec["downtime"] * duration
    plan = generate_fault_plan(
        [f"m{j}" for j in range(machines)],
        FaultConfig(failure_rate=spec["failures"] / duration,
                    mean_downtime=mean_downtime),
        duration,
        rng=np.random.default_rng(seed + 1),
    )
    source = EnsembleTaskSource(
        spec["tasks"], machines, tasks_per_instance=spec["batch"], rng=seed
    )
    return Scenario(seed, source, plan, spec["batch"] / rate, mean_downtime)


def simulate(scenario: Scenario, heuristic, source=None):
    simulation = RollingSimulation(
        source if source is not None else scenario.source,
        heuristic,
        horizon=scenario.horizon,
        arrival=lambda rate: make_arrival_process("bursty", rate),
        utilization=UTILIZATION,
        refine_iterations=REFINE_ITERATIONS,
        rng=scenario.seed + 2,
        plan=scenario.plan,
        recovery="remap",
        retry_budget=RETRY_BUDGET,
        backoff_base=0.25 * scenario.mean_downtime,
        backoff_cap=4.0 * scenario.mean_downtime,
    )
    return simulation.run()


def result_digest(result) -> str:
    return digest(dataclasses.asdict(result))


class HorizonClock:
    """Groups the heuristic's calls into horizons.

    Within one horizon the iterative driver re-maps the survivors of the
    previous call: one machine fewer, a subset of its tasks and the same
    initial ready times.  Any other call starts a new horizon.
    """

    def __init__(self, machines: int, keep_inputs: bool = False) -> None:
        self.machines = machines
        self.keep_inputs = keep_inputs
        self.horizons: list[list] = []  # [start, end, live machines]
        self.inputs: list[tuple] = []  # (etc, ready) of each horizon
        self.calls = 0
        self._last = None

    def __call__(self, etc, args, kwargs, started, ended) -> None:
        self.calls += 1
        ready = dict(zip(etc.machines, args[0]))
        last = self._last
        self._last = (set(etc.tasks), etc.machines, ready)
        if last is not None:
            tasks, machines, last_ready = last
            if (
                len(etc.machines) == len(machines) - 1
                and set(etc.machines) <= set(machines)
                and set(etc.tasks) <= tasks
                and all(last_ready[m] == t for m, t in ready.items())
            ):
                self.horizons[-1][1] = ended
                return
        self.horizons.append([started, ended, etc.num_machines])
        if self.keep_inputs:
            self.inputs.append((etc, list(args[0])))

    def latencies_ms(self, degraded: bool) -> list[float]:
        return [
            (end - start) * 1e3
            for start, end, live in self.horizons
            if (live < self.machines) == degraded
        ]


def _heuristic(recorder, clock, backend: str = "incremental"):
    return TimedHeuristic(get_backend(backend).make("min-min"), recorder, clock)


def run(seed: int, seconds: float, trace: bool, size: str, work: Path,
        out) -> Outcome:
    spec = SIZES[size]
    seeds = [
        int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 2, spec["seeds"])
    ]
    outcome = Outcome()
    null = NullRecorder()

    # Untimed: the reference backend gives every scenario's expected digest.
    expected = [
        result_digest(simulate(build(s, spec), _heuristic(null, None, "reference")))
        for s in seeds
    ]

    setup_s: list[float] = []
    throughput: list[float] = []
    hit_ms: list[float] = []
    miss_ms: list[float] = []

    def one_pass(k: int, scenario: Scenario, timed: bool) -> float:
        """Serves one scenario; returns its run time at reference speed."""
        clock = HorizonClock(spec["machines"])
        result, run_s, factor = gauged(simulate, scenario, _heuristic(null, clock))
        total = result.total_tasks
        ok = outcome.check(
            result.completed + len(result.dropped) == total,
            f"seed {seeds[k]}: completed + dropped != total",
        )
        ok = outcome.check(
            result_digest(result) == expected[k],
            f"seed {seeds[k]}: RollingResult differs from the reference backend's",
        ) and ok
        if timed:
            outcome.attempted += total
            outcome.failed += total if not ok else total - result.completed
            hit_ms.extend(ms * factor for ms in clock.latencies_ms(degraded=False))
            miss_ms.extend(ms * factor for ms in clock.latencies_ms(degraded=True))
        return run_s

    def sweep(index: int, timed: bool = True, count: int | None = None) -> None:
        """Builds every scenario, or the first ``count`` (one set-up
        sample), then serves each."""
        chosen = seeds[:count]
        scenarios, built_s, _ = gauged(lambda: [build(s, spec) for s in chosen])
        run_s = sum(one_pass(k, sc, timed) for k, sc in enumerate(scenarios))
        if timed:
            setup_s.append(built_s)
            throughput.append(len(chosen) * spec["tasks"] / run_s)

    sweep(0, timed=False, count=2)  # warm-up on two scenarios, set-up included
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
        f"rolling-faults: {sweeps} sweeps over {len(seeds)} scenarios of "
        f"{spec['tasks']} tasks on {spec['machines']} machines; {len(hit_ms)} "
        f"healthy (hit) and {len(miss_ms)} degraded (miss) horizons",
        file=out,
    )
    if trace:
        outcome.metrics = traced_metrics(seeds[0], expected[0], spec, work, outcome, out)
    return outcome


class TimedSource:
    """Task source wrapper: every window drawn from the inner source is
    an ``etc.generate`` span."""

    def __init__(self, inner, recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.num_tasks = inner.num_tasks
        self.num_machines = inner.num_machines

    def chunks(self):
        chunks = self._inner.chunks()
        while True:
            with self._recorder.span("etc.generate"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk


def traced_metrics(seed, want, spec, work: Path, outcome: Outcome, out) -> dict:
    """One traced pass.  The iterative driver runs inside
    ``RollingSimulation.run``, so it is measured by replaying the
    recorded horizon batches through ``IterativeScheduler.run``."""

    def traced_pass(recorder):
        clock = HorizonClock(spec["machines"], keep_inputs=True)
        with recorder.span("rolling-faults"):
            with recorder.span("sim.setup"):
                scenario = build(seed, spec)
            with recorder.span("sim.run"):
                result = simulate(
                    scenario,
                    _heuristic(recorder, clock),
                    source=TimedSource(scenario.source, recorder),
                )
            with recorder.span("replay"):
                for etc, ready in clock.inputs:
                    with recorder.span("core.iterate"):
                        scheduler = IterativeScheduler(
                            _heuristic(recorder, None),
                            tie_breaker=DeterministicTieBreaker(),
                        )
                        scheduler.run(
                            etc, ready_times=ready, max_iterations=REFINE_ITERATIONS
                        ).final_mapping()
        return result, clock

    (result, clock), recorder, overhead = run_traced(traced_pass)
    outcome.check(
        result_digest(result) == want,
        "traced pass: RollingResult differs from the untraced run",
    )
    recorder.write_jsonl(work / "spans-rolling-faults.jsonl")
    print("per-layer breakdown (core.iterate replayed from the recorded horizons; "
          "sim.run self time includes the live driver):", file=out)
    return layer_metrics(
        recorder,
        counts={
            "etc.instances": -(-spec["tasks"] // spec["batch"]),
            "core.iterations": clock.calls,
            "sim.horizons": result.horizons,
            "sim.dispatches": result.dispatches,
            "sim.mean_batch": result.mean_batch,
            "sim.failures": result.failures,
            "sim.retries": result.retries,
            "sim.dropped": len(result.dropped),
        },
        overhead=overhead,
        out=out,
    )
