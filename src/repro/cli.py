"""Command-line interface.

Usage (after install)::

    python -m repro generate --tasks 40 --machines 8 -o suite.csv
    python -m repro map      --etc suite.csv --heuristic min-min --gantt
    python -m repro iterate  --etc suite.csv --heuristic sufferage
    python -m repro study    --tasks 30 --machines 8 --instances 20
    python -m repro compare  --heuristics min-min,mct,met,olb
    python -m repro simulate --tasks 100 --machines 8 --policy mct
    python -m repro simulate --faults --failures 3 --recovery remap
    python -m repro study    --faults --heuristics min-min --instances 5
    python -m repro run-grid --heterogeneities hihi,lolo --resume
    python -m repro run-grid --trace-out trace.jsonl --timeseries ts.jsonl
    python -m repro serve    --port 8351 --append-ledger
    python -m repro serve-load --url http://127.0.0.1:8351/v1/schedule -n 200
    python -m repro trace    --example min-min
    python -m repro bench    --baseline BENCH_baseline.json --append-ledger
    python -m repro obs      tail --follow
    python -m repro obs      summary
    python -m repro obs      diff -2 -1
    python -m repro obs      timeline trace.jsonl --html trace.html
    python -m repro paper

Every subcommand accepts ``--seed`` and is fully reproducible.  The
result-producing subcommands (``bench``, ``study``, ``compare``,
``export``, ``run-grid``, ``report``) accept ``--append-ledger`` to
append one fingerprinted ``repro-ledger/1`` record to the run ledger
(default ``.repro/ledger.jsonl``; relocatable with ``--ledger-path``),
which the ``obs`` family inspects.  ``study``, ``export`` and
``run-grid`` execute their grids through one
:func:`repro.analysis.runner.run_grid` call each; ``run-grid`` caches
cells by default, ``study`` / ``export`` under ``--cache-dir`` /
``--resume``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Sequence
from contextlib import ExitStack
from enum import Enum

from repro import __version__

from repro.analysis.gantt import render_gantt
from repro.analysis.report import PAPER_EXAMPLES
from repro.analysis.study import (
    format_comparison_table,
    format_improvement_table,
    heuristic_comparison,
    improvement_study,
)
from repro.analysis.tables import (
    render_allocation_table,
    render_comparison,
    render_etc_table,
    render_finish_times,
    render_iteration_overview,
)
from repro.core.iterative import IterativeScheduler
from repro.core.metrics import compare_iterative
from repro.core.seeding import SeededIterativeScheduler
from repro.core.ties import make_tie_breaker
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc import generation, io as etc_io
from repro.exceptions import ConfigurationError, ReproError
from repro.heuristics import get_heuristic, heuristic_names

__all__ = ["main", "build_parser"]


def _heterogeneity(value: str) -> Heterogeneity:
    try:
        return Heterogeneity(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown heterogeneity {value!r}; choose from "
            f"{[h.value for h in Heterogeneity]}"
        ) from None


def _consistency(value: str) -> Consistency:
    try:
        return Consistency(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown consistency {value!r}; choose from "
            f"{[c.value for c in Consistency]}"
        ) from None


def _comma_list(parse):
    """argparse type: a comma list whose every item ``parse`` accepts.

    The value stays the string as given (the ledger records it so).
    """
    def check(value: str) -> str:
        for item in value.split(","):
            parse(item)
        return value

    return check


def _positive_rate(value: str) -> float:
    """argparse type: a positive finite float."""
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not (math.isfinite(rate) and rate > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value!r}"
        )
    return rate


def _load_etc(path: str):
    if path.endswith(".json"):
        return etc_io.load_json(path)
    return etc_io.load_csv(path)


def _make_heuristic(name: str, seed: int):
    kwargs = {}
    if name in ("genitor", "random", "simulated-annealing", "tabu-search"):
        kwargs["rng"] = seed
    return get_heuristic(name, **kwargs)


# ----------------------------------------------------------------------
# run bookkeeping shared by the result-producing subcommands
# ----------------------------------------------------------------------
def _ledger_config(args: argparse.Namespace, names, **computed) -> dict:
    """A ledger ``config``: the named args plus values the command
    computed itself, with enums recorded by value."""
    config = {name: getattr(args, name) for name in names} | computed
    return {k: v.value if isinstance(v, Enum) else v for k, v in config.items()}


def _write_trace(tracer, path: str) -> None:
    """Export ``tracer``'s records as obs JSONL to ``path``."""
    from repro.obs import write_jsonl

    lines = write_jsonl(tracer, path)
    print(f"trace: wrote {lines} JSONL records to {path} "
          "(render with `repro obs timeline`)")


class _Run:
    """Start time, tracer, sampler and ledger row of one command run.

    A collecting tracer is created when ``--trace-out`` is given, or for
    ``--append-ledger`` when the ledger row should carry the run's
    counters (``ledger_counters``).  Entering the run installs the
    tracer; leaving it closes :attr:`sampler` and, on success, exports
    the trace to ``--trace-out``.  :meth:`append` writes the ledger row.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        command: str,
        *,
        ledger_counters: bool = False,
    ) -> None:
        from repro.obs import CollectingTracer

        self.args = args
        self.command = command
        self.started = time.perf_counter()
        self.trace_out = getattr(args, "trace_out", None)
        collect = self.trace_out or (ledger_counters and args.append_ledger)
        self.tracer = CollectingTracer() if collect else None
        self.sampler = None
        self._stack = ExitStack()

    def __enter__(self) -> _Run:
        from repro.obs import use_tracer

        if self.tracer is not None:
            self._stack.enter_context(use_tracer(self.tracer))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self.sampler is not None:
                self.sampler.close()
        finally:
            self._stack.close()
        if exc_type is None and self.trace_out:
            _write_trace(self.tracer, self.trace_out)

    def append(self, config: dict, metrics: dict, extra: dict | None = None) -> None:
        """Append the run's ledger row (only under ``--append-ledger``)."""
        if not self.args.append_ledger:
            return
        from repro.obs.ledger import build_record

        self.append_record(build_record(
            self.command,
            seed=getattr(self.args, "seed", None),
            config=config,
            metrics=metrics,
            counters=(
                self.tracer.counters.as_dict() if self.tracer is not None else None
            ),
            duration_s=round(time.perf_counter() - self.started, 6),
            extra=extra,
        ))

    def append_record(self, record: dict) -> None:
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(self.args.ledger)
        ledger.append(record)
        print(f"ledger: appended run {record['run_id']} to {ledger.path}",
              flush=True)


def _runner_cache_dir(args: argparse.Namespace):
    """study/export cell cache: ``--cache-dir``, or the default cache
    directory when only ``--resume`` is given, else none."""
    from repro.analysis.runner import DEFAULT_CACHE_DIR

    if args.cache_dir is not None:
        return args.cache_dir
    return DEFAULT_CACHE_DIR if args.resume else None


def _grid_means(records) -> dict:
    """Grid-level means of a run's records (empty without records)."""
    import numpy as np

    comparisons = [r.comparison for r in records]
    if not comparisons:
        return {}
    return {
        "original_makespan_mean": float(
            np.mean([c.original_makespan for c in comparisons])
        ),
        "final_makespan_mean": float(
            np.mean([c.final_makespan for c in comparisons])
        ),
        "makespan_increase_rate": float(
            np.mean([c.makespan_increased for c in comparisons])
        ),
        "non_makespan_improvement_mean": float(
            np.mean([c.mean_delta for c in comparisons])
        ),
    }


def _fault_plan(args: argparse.Namespace, machines, horizon: float):
    """Seeded fault plan over ``horizon`` from the fault-shape flags.

    Returns the plan and the recovery backoff bounds scaled to its
    mean downtime (keyword arguments of the simulators).
    """
    import numpy as np

    from repro.sim.faults import FaultConfig, generate_fault_plan

    mean_downtime = args.downtime_frac * horizon
    config = FaultConfig(
        failure_rate=args.failures / horizon,
        mean_downtime=mean_downtime,
        slowdown_rate=args.slowdowns / horizon if args.slowdowns else 0.0,
        slowdown_factor=args.slowdown_factor,
        mean_slowdown=mean_downtime if args.slowdowns else 0.0,
    )
    plan = generate_fault_plan(
        machines, config, horizon, rng=np.random.default_rng(args.seed + 1)
    )
    backoff = {
        "backoff_base": max(0.25 * mean_downtime, 1e-9),
        "backoff_cap": max(4.0 * mean_downtime, 1e-9),
    }
    return plan, backoff


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    if args.method == "range":
        etc = generation.generate_range_based(
            args.tasks, args.machines, args.heterogeneity, args.consistency,
            rng=args.seed,
        )
    else:
        etc = generation.generate_cvb(
            args.tasks, args.machines, args.heterogeneity, args.consistency,
            rng=args.seed,
        )
    if args.output:
        if args.output.endswith(".json"):
            etc_io.save_json(etc, args.output)
        else:
            etc_io.save_csv(etc, args.output)
        print(f"wrote {etc.num_tasks}x{etc.num_machines} ETC matrix to {args.output}")
    else:
        print(etc_io.to_csv(etc), end="")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    etc = _load_etc(args.etc)
    heuristic = _make_heuristic(args.heuristic, args.seed)
    breaker = make_tie_breaker(args.ties, rng=args.seed)
    mapping = heuristic.map_tasks(etc, tie_breaker=breaker)
    if args.show_etc:
        print(render_etc_table(etc, "ETC matrix"))
        print()
    print(render_allocation_table(mapping, f"{args.heuristic} mapping"))
    print()
    print(render_finish_times(mapping))
    if args.gantt:
        print()
        print(render_gantt(mapping))
    return 0


def cmd_iterate(args: argparse.Namespace) -> int:
    etc = _load_etc(args.etc)
    heuristic = _make_heuristic(args.heuristic, args.seed)
    breaker = make_tie_breaker(args.ties, rng=args.seed)
    scheduler_cls = SeededIterativeScheduler if args.seeded else IterativeScheduler
    result = scheduler_cls(heuristic, tie_breaker=breaker).run(etc)
    print(render_iteration_overview(result))
    print()
    print(render_comparison(compare_iterative(result),
                            "original vs iterative finishing times"))
    if args.chart and result.num_iterations > 1:
        from repro.analysis.trajectory import render_series, trajectory_of

        print()
        print(render_series(
            trajectory_of(result).makespans,
            label="per-iteration makespan",
            width=max(10, 2 * result.num_iterations),
        ))
    if result.makespan_increased():
        print("\nWARNING: the iterative technique INCREASED the makespan "
              "on this instance (see the paper, Sections 3.5-3.7).")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    if args.faults:
        return _cmd_study_faults(args)
    import numpy as np

    from repro.analysis.runner import run_grid

    def run_fn(config):
        return run_grid(
            config,
            cache_dir=_runner_cache_dir(args),
            resume=args.resume,
            retries=0,
            on_error="raise",
        ).records

    with _Run(args, "study", ledger_counters=True) as run:
        rows = improvement_study(
            heuristics=tuple(args.heuristics.split(",")),
            num_tasks=args.tasks,
            num_machines=args.machines,
            instances=args.instances,
            heterogeneity=args.heterogeneity,
            consistency=args.consistency,
            tie_policies=tuple(args.ties.split(",")),
            seeded_iterations=args.seeded,
            seed=args.seed,
            backend=args.backend,
            run_fn=run_fn,
        )
    print(format_improvement_table(rows))
    metrics = {}
    for r in rows:
        prefix = f"{r.heuristic}.{r.tie_policy}"
        metrics[f"{prefix}.mapping_change_rate"] = r.mapping_change_rate
        metrics[f"{prefix}.makespan_increase_rate"] = r.makespan_increase_rate
        metrics[f"{prefix}.machine_improved_rate"] = r.machine_improved_rate
        metrics[f"{prefix}.non_makespan_improvement_mean"] = (
            r.mean_improvement.mean
        )
    metrics["makespan_increase_rate_mean"] = float(
        np.mean([r.makespan_increase_rate for r in rows])
    )
    metrics["non_makespan_improvement_mean"] = float(
        np.mean([r.mean_improvement.mean for r in rows])
    )
    run.append(
        _ledger_config(args, ("heuristics", "tasks", "machines", "instances",
                              "heterogeneity", "consistency", "ties",
                              "seeded", "backend")),
        metrics,
    )
    return 0


def _cmd_study_faults(args: argparse.Namespace) -> int:
    """``study --faults``: original-vs-iterative fault degradation."""
    from repro.analysis.robustness import (
        fault_degradation_study,
        format_fault_table,
    )

    rates = tuple(float(r) for r in args.failure_rates.split(","))
    rows = []
    with _Run(args, "study-faults", ledger_counters=True) as run:
        for heuristic in args.heuristics.split(","):
            rows.extend(fault_degradation_study(
                heuristic,
                failure_rates=rates,
                num_tasks=args.tasks,
                num_machines=args.machines,
                instances=args.instances,
                policy=args.recovery,
                retry_budget=args.retry_budget,
                downtime_frac=args.downtime_frac,
                heterogeneity=args.heterogeneity,
                consistency=args.consistency,
                seed=args.seed,
            ))
    print(format_fault_table(rows))
    metrics = {}
    for r in rows:
        prefix = f"{r.heuristic}.{r.mapping_kind}.rate_{r.failure_rate:g}"
        metrics[f"{prefix}.makespan_degradation"] = r.makespan_degradation
        metrics[f"{prefix}.non_makespan_degradation"] = (
            r.non_makespan_degradation
        )
        metrics[f"{prefix}.failures"] = r.failures
        metrics[f"{prefix}.dropped"] = r.dropped
    run.append(
        _ledger_config(args, ("heuristics", "tasks", "machines", "instances",
                              "failure_rates", "recovery", "retry_budget",
                              "downtime_frac", "heterogeneity",
                              "consistency")),
        metrics,
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import numpy as np

    run = _Run(args, "compare")
    rows = heuristic_comparison(
        tuple(args.heuristics.split(",")),
        num_tasks=args.tasks,
        num_machines=args.machines,
        instances=args.instances,
        heterogeneities=(args.heterogeneity,),
        consistencies=(args.consistency,),
        seed=args.seed,
    )
    print(format_comparison_table(rows))
    metrics = {
        f"{r.heuristic}.{r.etc_class}.makespan_mean": r.mean_makespan
        for r in rows
    }
    metrics["makespan_mean_overall"] = float(
        np.mean([r.mean_makespan for r in rows])
    )
    run.append(
        _ledger_config(args, ("heuristics", "tasks", "machines", "instances",
                              "heterogeneity", "consistency")),
        metrics,
    )
    return 0


def _cmd_simulate_faults(args: argparse.Namespace) -> int:
    """``simulate --faults``: execute a static mapping under a seeded
    fault plan and report how recovery coped."""
    from repro.sim.hcsystem import FaultTolerantHCSystem

    run = _Run(args, "simulate-faults", ledger_counters=True)
    etc = generation.generate_range_based(
        args.tasks, args.machines, args.heterogeneity, args.consistency,
        rng=args.seed,
    )
    heuristic = _make_heuristic(args.heuristic, args.seed)
    mapping = heuristic.map_tasks(etc)
    horizon = mapping.makespan()
    plan, backoff = _fault_plan(args, etc.machines, horizon)
    with run:
        system = FaultTolerantHCSystem(
            etc, plan, policy=args.recovery, retry_budget=args.retry_budget,
            **backoff,
        )
        result = system.execute(mapping)
    degradation = result.makespan / horizon if horizon > 0 else 1.0
    print(f"heuristic           : {args.heuristic}")
    print(f"recovery policy     : {args.recovery} "
          f"(retry budget {args.retry_budget})")
    print(f"fault plan          : {plan.num_failures} failures, "
          f"{plan.num_slowdowns} slowdowns over horizon {horizon:.6g}")
    print(f"plan signature      : {plan.signature()}")
    print(f"fault-free makespan : {horizon:.6g}")
    print(f"faulty makespan     : {result.makespan:.6g} "
          f"(x{degradation:.3f})")
    print(f"tasks completed     : {result.completed}/{mapping.num_assigned} "
          f"(dropped {len(result.dropped)})")
    print(f"failures hit        : {result.failures}  "
          f"retries: {result.retries}  requeues: {result.requeues}")
    for machine, finish in sorted(result.finish_times().items()):
        print(f"  {machine:<6} finish {finish:.6g}")
    run.append(
        _ledger_config(args, ("heuristic", "tasks", "machines", "failures",
                              "downtime_frac", "slowdowns", "recovery",
                              "retry_budget", "heterogeneity", "consistency")),
        {
            "fault_free_makespan": horizon,
            "faulty_makespan": result.makespan,
            "makespan_degradation": degradation,
            "failures": result.failures,
            "retries": result.retries,
            "requeues": result.requeues,
            "dropped": len(result.dropped),
        },
        extra={"plan_signature": plan.signature()},
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.faults:
        return _cmd_simulate_faults(args)
    from repro.sim.hcsystem import (
        DynamicHCSimulation,
        KPBOnline,
        MCTOnline,
        METOnline,
        OLBOnline,
        SWAOnline,
        poisson_workload,
    )

    etc = generation.generate_range_based(
        args.tasks, args.machines, args.heterogeneity, args.consistency,
        rng=args.seed,
    )
    workload = poisson_workload(etc, rate=args.rate, rng=args.seed + 1)
    policies = {
        "mct": lambda: DynamicHCSimulation(workload, policy=MCTOnline()),
        "met": lambda: DynamicHCSimulation(workload, policy=METOnline()),
        "olb": lambda: DynamicHCSimulation(workload, policy=OLBOnline()),
        "kpb": lambda: DynamicHCSimulation(
            workload, policy=KPBOnline(percent=args.kpb_percent)
        ),
        "swa": lambda: DynamicHCSimulation(workload, policy=SWAOnline()),
        "batch-min-min": lambda: DynamicHCSimulation(
            workload,
            batch_heuristic=get_heuristic("min-min"),
            batch_interval=args.batch_interval,
        ),
        "batch-sufferage": lambda: DynamicHCSimulation(
            workload,
            batch_heuristic=get_heuristic("sufferage"),
            batch_interval=args.batch_interval,
        ),
    }
    if args.policy not in policies:
        print(f"unknown policy {args.policy!r}; choose from {sorted(policies)}",
              file=sys.stderr)
        return 2
    from repro.obs.progress import make_progress

    trace = policies[args.policy]().run(
        progress=make_progress(args.progress, label=f"sim {args.policy}"),
        progress_every=max(1, args.tasks // 10),
    )
    print(f"policy          : {args.policy}")
    print(f"tasks executed  : {len(trace)}")
    print(f"makespan        : {trace.makespan():.6g}")
    print(f"mean queue wait : {trace.mean_queue_wait():.6g}")
    for machine in etc.machines:
        print(f"  {machine:<6} utilisation {100 * trace.utilisation(machine):5.1f}%  "
              f"busy {trace.machine_busy_time(machine):.6g}")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    """Search for a makespan-increase counterexample."""
    from repro.analysis.counterexamples import find_makespan_increase
    from repro.core.ties import RandomTieBreaker

    import numpy as np

    tie_factory = None
    if args.ties == "random":
        shared_rng = np.random.default_rng(args.seed + 1)
        tie_factory = lambda: RandomTieBreaker(shared_rng)  # noqa: E731
    witness = find_makespan_increase(
        _make_heuristic(args.heuristic, args.seed),
        num_tasks=args.tasks,
        num_machines=args.machines,
        trials=args.trials,
        tie_breaker_factory=tie_factory,
        value_grid=(
            [float(x) for x in args.grid.split(",")] if args.grid else None
        ),
        rng=args.seed,
    )
    if witness is None:
        print(f"no makespan-increase witness found in {args.trials} trials "
              f"for {args.heuristic} ({args.ties} ties)")
        return 3
    print(witness.describe())
    print()
    print(witness.etc.pretty())
    print(f"\nmakespans per iteration: {witness.result.makespans()}")
    if args.output:
        if args.output.endswith(".json"):
            etc_io.save_json(witness.etc, args.output)
        else:
            etc_io.save_csv(witness.etc, args.output)
        print(f"witness ETC matrix written to {args.output}")
    return 0


def _write_records(records, path: str) -> None:
    from repro.analysis.export import run_records_to_rows, write_csv, write_json

    rows = run_records_to_rows(list(records))
    if path.endswith(".json"):
        write_json(rows, path)
    else:
        write_csv(rows, path)
    print(f"wrote {len(rows)} run records to {path}")


def cmd_export(args: argparse.Namespace) -> int:
    """Run an experiment grid and write per-run records to CSV/JSON."""
    from repro.analysis.experiments import ExperimentConfig
    from repro.analysis.runner import run_grid
    from repro.obs.progress import make_progress

    run = _Run(args, "export", ledger_counters=True)
    config = ExperimentConfig(
        heuristics=tuple(args.heuristics.split(",")),
        num_tasks=args.tasks,
        num_machines=args.machines,
        heterogeneities=(args.heterogeneity,),
        consistencies=(args.consistency,),
        instances_per_cell=args.instances,
        tie_policy=args.ties,
        seeded_iterations=args.seeded,
        seed=args.seed,
        backend=args.backend,
    )
    with run:
        records = run_grid(
            config,
            max_workers=args.workers,
            progress=make_progress(args.progress, label="cells"),
            cache_dir=_runner_cache_dir(args),
            resume=args.resume,
            retries=0,
            on_error="raise",
        ).records
    _write_records(records, args.output)
    run.append(
        _ledger_config(args, ("heuristics", "tasks", "machines", "instances",
                              "heterogeneity", "consistency", "ties",
                              "seeded", "workers", "backend")),
        {**_grid_means(records), "runs": len(records)},
    )
    return 0


def cmd_run_grid(args: argparse.Namespace) -> int:
    """Execute a full experiment grid through the resumable cached runner."""
    from repro.analysis.experiments import ExperimentConfig
    from repro.analysis.runner import run_grid
    from repro.obs.progress import make_progress

    if args.no_cache and args.resume:
        print("error: --resume needs the cell cache (drop --no-cache)",
              file=sys.stderr)
        return 2
    if args.stream_chunk is not None and args.store_dir is None:
        print("error: --stream needs the ETC store (add --store DIR)",
              file=sys.stderr)
        return 2
    run = _Run(args, "run-grid", ledger_counters=True)
    config = ExperimentConfig(
        heuristics=tuple(args.heuristics.split(",")),
        num_tasks=args.tasks,
        num_machines=args.machines,
        heterogeneities=tuple(
            _heterogeneity(h) for h in args.heterogeneities.split(",")
        ),
        consistencies=tuple(
            _consistency(c) for c in args.consistencies.split(",")
        ),
        instances_per_cell=args.instances,
        tie_policy=args.ties,
        seeded_iterations=args.seeded,
        seed=args.seed,
        backend=args.backend,
    )
    cache_dir = None if args.no_cache else args.cache_dir
    with run:
        result = run_grid(
            config,
            max_workers=args.workers,
            progress=make_progress(args.progress, label="cells"),
            cache_dir=cache_dir,
            resume=args.resume,
            timeout_s=args.timeout,
            retries=args.retries,
            store_dir=args.store_dir,
            stream_chunk=args.stream_chunk,
            timeseries=args.timeseries,
            sample_interval_s=args.sample_interval,
        )
    print(f"grid: {result.total_cells} cell(s) — "
          f"{result.cached_cells} cached, {result.computed_cells} computed, "
          f"{result.retried} retried, {len(result.quarantined)} quarantined; "
          f"{len(result.records)} records")
    if args.store_dir is not None:
        print(f"store: {result.store_published} ensemble(s) published, "
              f"{result.store_reused} reused from {args.store_dir}")
    ts = result.timeseries_summary
    if ts is not None:
        print(f"timeseries: {ts['samples']} sample(s) to {ts['path']} — "
              f"{ts['tasks_per_s']:.6g} tasks scheduled/s, "
              f"{100 * ts['cache_hit_rate']:.0f}% cache hits")
    for q in result.quarantined:
        print(f"quarantined: {q.label} [{q.key[:12]}] after "
              f"{q.attempts} attempt(s): {q.error}", file=sys.stderr)
    if args.output:
        _write_records(result.records, args.output)
    metrics = {
        "cells_total": result.total_cells,
        "cells_cached": result.cached_cells,
        "cells_computed": result.computed_cells,
        "cells_retried": result.retried,
        "cells_quarantined": len(result.quarantined),
        "runs": len(result.records),
    }
    if args.store_dir is not None:
        metrics["store_published"] = result.store_published
        metrics["store_reused"] = result.store_reused
    metrics.update(_grid_means(result.records))
    # Headline throughput: every record schedules the cell's full
    # task set once, so records x tasks over the wall clock is the
    # grid-level tasks-scheduled-per-second figure.
    duration = time.perf_counter() - run.started
    tasks_scheduled = len(result.records) * args.tasks
    metrics["tasks_scheduled"] = tasks_scheduled
    metrics["tasks_scheduled_per_s"] = (
        tasks_scheduled / duration if duration > 0 else 0.0
    )
    extra = {}
    if run.tracer is not None:
        from repro.obs.ledger import histogram_summaries

        extra["histograms"] = histogram_summaries(run.tracer.histograms.as_dict())
    if ts is not None:
        extra["timeseries"] = ts
    run.append(
        _ledger_config(args, ("heuristics", "tasks", "machines", "instances",
                              "heterogeneities", "consistencies", "ties",
                              "seeded", "workers", "backend", "resume",
                              "store_dir", "stream_chunk"),
                       cache_dir=cache_dir),
        metrics,
        extra,
    )
    return 0 if result.ok else 1


def cmd_run_rolling(args: argparse.Namespace) -> int:
    """Serve a streamed workload through the rolling-horizon loop."""
    import numpy as np

    from repro.etc.generation import DEFAULT_STREAM_WINDOW
    from repro.obs.progress import make_progress
    from repro.sim.arrivals import TraceArrivals, make_arrival_process
    from repro.sim.rolling import (
        EnsembleTaskSource,
        RollingSampler,
        RollingSimulation,
        StoreTaskSource,
        calibrate_rate,
    )

    if args.arrival == "trace" and not args.arrival_trace:
        print("error: --arrival trace needs --arrival-trace PATH",
              file=sys.stderr)
        return 2
    window = (
        DEFAULT_STREAM_WINDOW if args.stream_chunk is None else args.stream_chunk
    )
    # Checked up front so a bad shape never leaves a half-made --store.
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if args.chunk_tasks < 1:
        raise ConfigurationError(
            f"tasks_per_instance must be >= 1, got {args.chunk_tasks}"
        )
    # Event collection is opt-in via --trace-out only: a collecting
    # tracer holds every per-decision event in memory, which would
    # break the bounded-RSS guarantee on million-task serving runs.
    run = _Run(args, "run-rolling")
    heuristic = _make_heuristic(args.heuristic, args.seed)
    refine = None if args.refine_iterations == 0 else args.refine_iterations

    # Estimate the arrival rate up front (one sample instance from the
    # same seed, so the estimate matches the real stream's statistics
    # without consuming its randomness) — it anchors the default
    # horizon and the fault-plan horizon.
    sample = generation.generate_range_based(
        min(args.tasks, max(args.chunk_tasks, 32)), args.machines,
        args.heterogeneity, args.consistency, rng=np.random.default_rng(args.seed),
    )
    rate_est = args.rate if args.rate is not None else calibrate_rate(
        sample.values, args.utilization
    )
    horizon = (
        args.horizon if args.horizon is not None
        else args.batch_target / rate_est
    )

    if args.arrival == "trace":
        arrival = TraceArrivals.from_file(args.arrival_trace)
    elif args.rate is not None:
        arrival = make_arrival_process(
            args.arrival, args.rate,
            burst_factor=args.burst_factor,
            burst_fraction=args.burst_fraction,
            mean_burst=args.mean_burst,
        )
    else:
        # Calibrated inside the run from the first streamed window.
        def arrival(rate, _name=args.arrival):
            return make_arrival_process(
                _name, rate,
                burst_factor=args.burst_factor,
                burst_fraction=args.burst_fraction,
                mean_burst=args.mean_burst,
            )

    plan, backoff = None, {}
    if args.faults:
        plan, backoff = _fault_plan(
            args, [f"m{j}" for j in range(args.machines)], args.tasks / rate_est
        )

    store = None
    try:
        if args.store_dir is not None:
            from repro.etc.generation import generate_ensemble_into
            from repro.etc.store import ETCStore

            count = -(-args.tasks // args.chunk_tasks)
            key = (
                f"rolling-{count}x{args.chunk_tasks}x{args.machines}-"
                f"{args.heterogeneity.value}-{args.consistency.value}-"
                f"range-seed{args.seed}"
            )
            store = ETCStore(args.store_dir)
            already = key in store
            generate_ensemble_into(
                store, key, count, args.chunk_tasks, args.machines,
                heterogeneity=args.heterogeneity,
                consistency=args.consistency,
                rng=args.seed, window=window,
            )
            print(f"store: {'reusing' if already else 'published'} entry "
                  f"{key} in {args.store_dir}")
            source = StoreTaskSource(
                store, key, num_tasks=args.tasks, window=window
            )
        else:
            source = EnsembleTaskSource(
                args.tasks, args.machines,
                tasks_per_instance=args.chunk_tasks,
                heterogeneity=args.heterogeneity,
                consistency=args.consistency,
                rng=args.seed, window=window,
            )

        if args.timeseries:
            run.sampler = RollingSampler(
                args.timeseries, total_tasks=args.tasks,
                label="run-rolling", interval_s=args.sample_interval,
            )
        simulation = RollingSimulation(
            source, heuristic,
            horizon=horizon,
            arrival=arrival,
            utilization=args.utilization,
            refine_iterations=refine,
            rng=args.seed + 2,
            plan=plan,
            recovery=args.recovery,
            retry_budget=args.retry_budget,
            **backoff,
        )
        with run:
            result = simulation.run(
                sampler=run.sampler,
                progress=make_progress(args.progress, label="events"),
            )
    finally:
        if store is not None:
            store.close()

    duration = time.perf_counter() - run.started
    throughput = result.dispatches / duration if duration > 0 else 0.0
    accounted = result.completed + len(result.dropped)
    print(f"heuristic         : {args.heuristic} "
          f"(refine {'full' if refine is None else refine})")
    print(f"arrival           : {args.arrival} rate {result.arrival_rate:.6g} "
          f"(utilization target {args.utilization:g})")
    print(f"horizon           : {horizon:.6g} — {result.horizons} mapping "
          f"event(s), mean batch {result.mean_batch:.1f}, "
          f"max {result.batch_max}")
    extra: dict = {}
    if plan is not None:
        print(f"fault plan        : {plan.num_failures} failures, "
              f"{plan.num_slowdowns} slowdowns "
              f"({args.recovery}, retry budget {args.retry_budget})")
        print(f"plan signature    : {plan.signature()}")
        print(f"faults hit        : {result.failures} failures, "
              f"{result.aborted} aborted, {result.retries} retries")
        extra["plan_signature"] = plan.signature()
    print(f"tasks accounted   : {accounted}/{result.total_tasks} "
          f"({result.completed} completed + {len(result.dropped)} dropped)")
    print(f"makespan          : {result.makespan:.6g} "
          f"(mean wait {result.mean_queue_wait:.6g}, "
          f"mean flow {result.mean_flow:.6g}, "
          f"peak backlog {result.peak_backlog})")
    print(f"throughput        : {result.dispatches} dispatches in "
          f"{duration:.3f}s wall — {throughput:.6g} tasks scheduled/s")
    if run.sampler is not None:
        ts = extra["timeseries"] = run.sampler.summary()
        print(f"timeseries        : {ts['samples']} sample(s) to "
              f"{ts['path']} — peak RSS "
              f"{ts['peak_rss_bytes'] / 1e6:.1f} MB")
    run.append(
        _ledger_config(args, ("tasks", "machines", "heuristic",
                              "refine_iterations", "arrival", "rate",
                              "utilization", "chunk_tasks", "store_dir",
                              "faults", "recovery", "retry_budget",
                              "heterogeneity", "consistency"),
                       horizon=horizon, stream=window,
                       failures=args.failures if args.faults else 0),
        {
            "tasks_total": result.total_tasks,
            "tasks_completed": result.completed,
            "tasks_dropped": len(result.dropped),
            "tasks_scheduled": result.dispatches,
            "tasks_scheduled_per_s": throughput,
            "horizons": result.horizons,
            "batch_mean": result.mean_batch,
            "batch_max": result.batch_max,
            "makespan": result.makespan,
            "mean_queue_wait": result.mean_queue_wait,
            "max_queue_wait": result.max_queue_wait,
            "mean_flow": result.mean_flow,
            "peak_backlog": result.peak_backlog,
            "failures": result.failures,
            "retries": result.retries,
        },
        extra,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling service until SIGINT/SIGTERM (see docs/serving.md)."""
    import asyncio
    import signal

    from repro.serve.http import start_server
    from repro.serve.service import SchedulingService

    run = _Run(args, "serve")
    cache_dir = None if args.no_cache else args.cache_dir
    service = SchedulingService(
        cache_dir, max_workers=args.workers, max_pending=args.max_pending
    )
    bound_port = args.port

    def flush_ledger() -> None:
        record = service.ledger_record(config=_ledger_config(
            args, ("host", "workers", "max_pending"),
            port=bound_port, cache_dir=cache_dir,
        ))
        if record is not None:
            run.append_record(record)

    async def serve_forever() -> None:
        nonlocal bound_port
        server = await start_server(service, args.host, args.port)
        bound_port = server.sockets[0].getsockname()[1]
        print(f"serving on http://{args.host}:{bound_port}", flush=True)
        if service.cache is not None:
            print(f"response cache: {service.cache.root}", flush=True)
        else:
            print("response cache: disabled", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        flusher = None
        if args.append_ledger and args.ledger_every > 0:
            async def periodic() -> None:
                while True:
                    await asyncio.sleep(args.ledger_every)
                    flush_ledger()

            flusher = asyncio.create_task(periodic())
        await stop.wait()
        print("shutting down", flush=True)
        if flusher is not None:
            flusher.cancel()
        server.close()
        await server.wait_closed()

    with run:
        asyncio.run(serve_forever())
    service.close()
    if args.append_ledger:
        flush_ledger()
    counts = service.stats()["counts"]
    print(f"served {counts['requests']} request(s) "
          f"({counts['cache_hits']} cache hit(s), "
          f"{counts['computed']} computed)")
    return 0


def cmd_serve_load(args: argparse.Namespace) -> int:
    """Generate synthetic traffic against a running scheduling service."""
    import json

    from repro.serve.load import format_load_report, run_load

    run = _Run(args, "serve-load")
    if args.payload:
        from pathlib import Path

        payload = json.loads(Path(args.payload).read_text(encoding="utf-8"))
    else:
        payload = {
            "kind": "study",
            "ensemble": {
                "tasks": args.tasks,
                "machines": args.machines,
                "instances": args.instances,
            },
            "heuristic": args.heuristic,
            "seed": args.seed,
        }
    report = run_load(
        args.url,
        payload,
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        timeout=args.timeout,
    )
    print(format_load_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote load report to {args.output}")
    if args.errors_fatal and report["errors"]:
        print(f"error: {report['errors']} request(s) failed", file=sys.stderr)
        return 1
    run.append(
        _ledger_config(args, ("url", "requests", "concurrency", "rate")),
        {
            "requests_per_s": report["requests_per_s"],
            "latency_p50_ms": report["latency_ms"]["p50"],
            "latency_p95_ms": report["latency_ms"]["p95"],
            "errors": report["errors"],
        },
        extra={"load_report": report},
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the full reproduction report (Markdown)."""
    from repro.analysis.report import build_report

    run = _Run(args, "report")
    text = build_report(quick=args.quick, seed=args.seed)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text)
    run.append(_ledger_config(args, ("quick", "output")),
               {"report_chars": len(text)})
    return 0


#: The paper's worked examples, replayable by ``repro trace --example``.
TRACE_EXAMPLES = tuple(example.name for example in PAPER_EXAMPLES)


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay a run under a collecting tracer and print its decision trace."""
    from repro.obs import CollectingTracer, render_events, use_tracer, write_jsonl

    if bool(args.example) == bool(args.etc):
        print("error: trace needs exactly one of --example or --etc",
              file=sys.stderr)
        return 2
    if args.example:
        example = PAPER_EXAMPLES[TRACE_EXAMPLES.index(args.example)]
        heuristic, etc = example.make_heuristic(), example.make_etc()
        label = f"paper example {args.example!r}"
    else:
        etc = _load_etc(args.etc)
        heuristic = _make_heuristic(args.heuristic, args.seed)
        label = f"{args.heuristic} on {args.etc}"
    breaker = make_tie_breaker(args.ties, rng=args.seed)
    with use_tracer(CollectingTracer()) as tracer:
        result = IterativeScheduler(heuristic, tie_breaker=breaker).run(etc)
    print(f"decision trace — {label} "
          f"({etc.num_tasks} tasks x {etc.num_machines} machines)")
    print()
    print(render_events(tracer.events))
    print()
    spans = " -> ".join(f"{s:g}" for s in result.makespans())
    print(f"makespans per iteration : {spans}")
    print(f"removal order           : {' -> '.join(result.removal_order)}")
    if result.unfrozen:
        print(f"never frozen            : {', '.join(result.unfrozen)}")
    if result.makespan_increased():
        print("makespan increased      : yes (the paper's phenomenon)")
    print("counters:")
    for name, value in tracer.counters.as_dict().items():
        print(f"  {name:<36} {value}")
    if args.jsonl:
        lines = write_jsonl(tracer, args.jsonl)
        print(f"\nwrote {lines} JSONL records to {args.jsonl}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the tracked workloads; optionally compare against a baseline."""
    from repro.bench import (
        WORKLOADS,
        compare_reports,
        compare_speedups,
        format_report,
        load_report,
        run_bench,
        write_report,
    )

    if args.list_workloads:
        for workload in WORKLOADS:
            print(f"{workload.name:<28} {workload.description}")
        return 0
    run = _Run(args, "bench")
    report = run_bench(
        smoke=args.smoke,
        repeats=args.repeats,
        with_reference=not args.no_reference,
        only=args.workloads.split(",") if args.workloads else None,
        profile=args.profile,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(format_report(report))
    if args.profile is not None:
        for name, entry in sorted(report["results"].items()):
            if entry.get("profile"):
                print(f"\nprofile: {name} (top {args.profile} by cumulative time)")
                for line in entry["profile"]:
                    print(f"  {line}")
    if args.output:
        write_report(report, args.output)
        print(f"\nreport written to {args.output}")
    metrics = {}
    for name, entry in report["results"].items():
        metrics[f"bench.{name}.best_s"] = entry["best_s"]
        if "speedup" in entry:
            metrics[f"bench.{name}.speedup"] = entry["speedup"]
    run.append(
        _ledger_config(args, ("smoke", "repeats", "workloads"),
                       with_reference=not args.no_reference),
        metrics,
        extra={"bench_report": report},
    )
    if args.baseline:
        regressions = compare_reports(
            report, load_report(args.baseline), tolerance=args.tolerance
        )
        if regressions:
            print(f"\nREGRESSION vs {args.baseline}:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno regressions vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%})")
    if args.speedup_baseline:
        regressions = compare_speedups(
            report,
            load_report(args.speedup_baseline),
            tolerance=args.speedup_tolerance,
        )
        if regressions:
            print(f"\nSPEEDUP REGRESSION vs {args.speedup_baseline}:",
                  file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno speedup regressions vs {args.speedup_baseline} "
              f"(tolerance {args.speedup_tolerance:.0%})")
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    """Replay the paper's six worked examples (compact form)."""
    for example in PAPER_EXAMPLES:
        label = f"{example.label} ({example.tables})"
        result = IterativeScheduler(example.make_heuristic()).run(
            example.make_etc()
        )
        spans = " -> ".join(f"{s:g}" for s in result.makespans())
        verdict = (
            "MAKESPAN INCREASED" if result.makespan_increased() else
            ("mapping unchanged" if not result.mapping_changed() else "re-mapped")
        )
        print(f"{label:<32} makespans {spans:<22} [{verdict}]")
    print("\n(For the full tables and Gantt charts run "
          "`python examples/paper_walkthrough.py`.)")
    return 0


# ----------------------------------------------------------------------
# obs subcommand family — inspect the run ledger
# ----------------------------------------------------------------------
def cmd_obs_tail(args: argparse.Namespace) -> int:
    """Print the last N ledger records; ``--follow`` keeps polling."""
    from repro.obs.ledger import RunLedger, follow_records, format_record_line

    ledger = RunLedger(args.ledger)
    records = ledger.tail(args.last)
    if not records and not args.follow:
        print(f"ledger {ledger.path} is empty "
              "(run e.g. `repro bench --append-ledger`)")
        return 0
    for record in records:
        print(format_record_line(record), flush=True)
    if args.follow:
        # The poll loop re-reads the whole ledger, so skip the records
        # that already existed (the tail above showed the newest ones).
        preexisting = len(ledger.read()) if ledger.exists() else 0
        emitted = 0

        def emit(record: dict) -> None:
            nonlocal emitted
            emitted += 1
            if emitted > preexisting:
                print(format_record_line(record), flush=True)

        try:
            follow_records(ledger, emit, interval_s=args.interval)
        except KeyboardInterrupt:
            pass
    return 0


def cmd_obs_summary(args: argparse.Namespace) -> int:
    """Longitudinal summary of the ledger, grouped by command."""
    from repro.obs.ledger import RunLedger, collect_counters, summarize_records

    records = RunLedger(args.ledger).read()
    print(summarize_records(records))
    totals = collect_counters(records)
    if totals:
        print()
        print("obs counter totals across runs:")
        for name, value in sorted(totals.items()):
            print(f"  {name:<44} {value}")
    latest = next(
        (
            r
            for r in reversed(records)
            if isinstance(r.get("extra"), dict) and r["extra"].get("histograms")
        ),
        None,
    )
    if latest is not None:
        def fmt(value) -> str:
            return f"{value:.6g}" if isinstance(value, (int, float)) else "-"

        print()
        print(f"histogram percentiles (latest run {latest['run_id']}):")
        for name, stats in sorted(latest["extra"]["histograms"].items()):
            print(f"  {name:<36} p50={fmt(stats.get('p50')):<10} "
                  f"p95={fmt(stats.get('p95')):<10} "
                  f"max={fmt(stats.get('max')):<10} "
                  f"n={stats.get('count')}")
    return 0


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    """Render a span timeline from an exported trace JSONL file."""
    from repro.obs import read_jsonl, spans_from_records
    from repro.obs.timeline import render_timeline, write_timeline_html

    spans = spans_from_records(read_jsonl(args.trace))
    print(render_timeline(spans, width=args.width))
    if args.html:
        path = write_timeline_html(spans, args.html)
        print(f"\nhtml timeline written to {path}")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Metric deltas between two ledger records; exit 1 on regression."""
    from repro.obs.ledger import RunLedger, diff_records

    ledger = RunLedger(args.ledger)
    record_a = ledger.find(args.run_a)
    record_b = ledger.find(args.run_b)
    lines, regressions = diff_records(
        record_a, record_b, tolerance=args.tolerance
    )
    print("\n".join(lines))
    if regressions:
        print(f"\nREGRESSION ({len(regressions)} metric(s) beyond "
              f"{args.tolerance:.0%} tolerance):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno regressions (tolerance {args.tolerance:.0%})")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.runner import DEFAULT_CACHE_DIR
    from repro.heuristics.backends import DEFAULT_BACKEND, backend_names
    from repro.obs.ledger import DEFAULT_LEDGER_PATH

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Iterative non-makespan minimisation (IPPS/HCW 2007) toolkit",
        epilog=(
            "Result-producing subcommands accept --append-ledger to record "
            f"the run in the ledger (default: {DEFAULT_LEDGER_PATH}; "
            "relocate it with --ledger-path/--ledger, also honoured by "
            "`repro obs`).  `repro run-grid` — and study/export under "
            "--cache-dir/--resume — persists completed grid cells to "
            ".repro/cells so interrupted runs resume without recomputing."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, etc_classes=True):
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        if etc_classes:
            p.add_argument("--heterogeneity", type=_heterogeneity,
                           default=Heterogeneity.HIHI,
                           help="hihi | hilo | lohi | lolo")
            p.add_argument("--consistency", type=_consistency,
                           default=Consistency.INCONSISTENT,
                           help="consistent | semi-consistent | inconsistent")

    def add_ledger_path(p):
        p.add_argument("--ledger", "--ledger-path", dest="ledger",
                       default=DEFAULT_LEDGER_PATH,
                       help="run ledger path (default: %(default)s)")

    def add_ledger(p):
        p.add_argument("--append-ledger", action="store_true",
                       help="append a repro-ledger/1 record to the run ledger")
        add_ledger_path(p)

    def add_runner(p):
        p.add_argument("--cache-dir", default=None,
                       help="cell cache directory; persists each completed "
                            "cell as it finishes (--resume alone defaults it "
                            "to .repro/cells)")
        p.add_argument("--resume", action="store_true",
                       help="serve already-completed cells from the cache "
                            "instead of recomputing them")
        p.add_argument("--backend", choices=backend_names(),
                       default=DEFAULT_BACKEND,
                       help="kernel backend (decision-identical; default: "
                            "%(default)s)")

    def add_faults(p):
        from repro.sim.hcsystem import RECOVERY_POLICIES

        p.add_argument("--faults", action="store_true",
                       help="inject seeded machine failures and recoveries")
        p.add_argument("--recovery", choices=RECOVERY_POLICIES,
                       default="requeue",
                       help="rescheduling policy for failed tasks")
        p.add_argument("--retry-budget", type=int, default=8,
                       help="max retries per task before it is dropped")
        p.add_argument("--downtime-frac", type=float, default=0.05,
                       help="mean downtime as a fraction of the fault-free "
                            "makespan")

    def add_fault_shape(p):
        p.add_argument("--failures", type=float, default=2.0,
                       help="(--faults) expected failures per machine over "
                            "the fault horizon (simulate: the fault-free "
                            "makespan; run-rolling: the run)")
        p.add_argument("--slowdowns", type=float, default=0.0,
                       help="(--faults) expected slowdown episodes per "
                            "machine over the fault horizon")
        p.add_argument("--slowdown-factor", type=float, default=2.0,
                       help="(--faults) execution-time multiplier while slowed")

    def add_progress(p):
        p.add_argument("--progress", action="store_true",
                       help="live progress on stderr")

    def add_trace_out(p):
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="collect a trace (even without --append-ledger) "
                            "and export it as obs JSONL, spans included, when "
                            "the command ends; render with `repro obs "
                            "timeline PATH`")

    def add_timeseries(p):
        p.add_argument("--timeseries", metavar="PATH", default=None,
                       help="stream repro-timeseries/1 throughput samples "
                            "(tasks scheduled/s, RSS, queue depth or backlog) "
                            "to PATH while the command runs")
        p.add_argument("--sample-interval", type=float, default=0.5,
                       help="minimum seconds between time-series samples "
                            "(default: %(default)s)")

    g = sub.add_parser("generate", help="generate a synthetic ETC matrix")
    g.add_argument("--tasks", type=int, required=True)
    g.add_argument("--machines", type=int, required=True)
    g.add_argument("--method", choices=["range", "cvb"], default="range")
    g.add_argument("-o", "--output", help="CSV/JSON path (stdout if omitted)")
    add_common(g)
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("map", help="map an ETC file with one heuristic")
    m.add_argument("--etc", required=True, help="CSV/JSON ETC file")
    m.add_argument("--heuristic", choices=heuristic_names(), default="min-min")
    m.add_argument("--ties", choices=["deterministic", "random"],
                   default="deterministic")
    m.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    m.add_argument("--show-etc", action="store_true")
    add_common(m, etc_classes=False)
    m.set_defaults(func=cmd_map)

    i = sub.add_parser("iterate", help="run the paper's iterative technique")
    i.add_argument("--etc", required=True)
    i.add_argument("--heuristic", choices=heuristic_names(), default="min-min")
    i.add_argument("--ties", choices=["deterministic", "random"],
                   default="deterministic")
    i.add_argument("--seeded", action="store_true",
                   help="use the Section-5 seeding extension (never worse)")
    i.add_argument("--chart", action="store_true",
                   help="render the per-iteration makespan trajectory")
    add_common(i, etc_classes=False)
    i.set_defaults(func=cmd_iterate)

    s = sub.add_parser("study", help="iterative improvement study (E23)")
    s.add_argument("--heuristics",
                   default="min-min,mct,met,sufferage,k-percent-best,"
                           "switching-algorithm")
    s.add_argument("--tasks", type=int, default=30)
    s.add_argument("--machines", type=int, default=8)
    s.add_argument("--instances", type=int, default=20)
    s.add_argument("--ties", default="deterministic",
                   help="comma list: deterministic,random")
    s.add_argument("--seeded", action="store_true")
    s.add_argument("--failure-rates", type=_comma_list(_positive_rate),
                   default="1e-6,3e-6,1e-5",
                   help="(--faults) comma list of failure rates per machine "
                        "per time unit")
    add_faults(s)
    add_common(s)
    add_ledger(s)
    add_runner(s)
    s.set_defaults(func=cmd_study)

    c = sub.add_parser("compare", help="cross-heuristic makespan comparison (E24)")
    c.add_argument("--heuristics", default="min-min,mct,met,olb")
    c.add_argument("--tasks", type=int, default=40)
    c.add_argument("--machines", type=int, default=8)
    c.add_argument("--instances", type=int, default=10)
    add_common(c)
    add_ledger(c)
    c.set_defaults(func=cmd_compare)

    d = sub.add_parser("simulate", help="dynamic (arrival-driven) simulation")
    d.add_argument("--tasks", type=int, default=100)
    d.add_argument("--machines", type=int, default=8)
    d.add_argument("--rate", type=float, default=1e-4,
                   help="Poisson arrival rate (tasks per time unit)")
    d.add_argument("--policy", default="mct",
                   help="mct | met | olb | kpb | swa | batch-min-min | "
                        "batch-sufferage")
    d.add_argument("--kpb-percent", type=float, default=50.0)
    d.add_argument("--batch-interval", type=float, default=1000.0)
    d.add_argument("--heuristic", choices=heuristic_names(), default="min-min",
                   help="(--faults) mapping heuristic for the static run")
    add_progress(d)
    add_faults(d)
    add_fault_shape(d)
    add_common(d)
    add_ledger(d)
    d.set_defaults(func=cmd_simulate)

    w = sub.add_parser("witness", help="search for a makespan-increase witness")
    w.add_argument("--heuristic", choices=heuristic_names(), default="sufferage")
    w.add_argument("--tasks", type=int, default=8)
    w.add_argument("--machines", type=int, default=3)
    w.add_argument("--trials", type=int, default=5000)
    w.add_argument("--ties", choices=["deterministic", "random"],
                   default="deterministic")
    w.add_argument("--grid", help="comma-separated ETC value grid "
                                  "(default: half-integers 0.5..10)")
    w.add_argument("-o", "--output", help="write the witness ETC to CSV/JSON")
    add_common(w, etc_classes=False)
    w.set_defaults(func=cmd_witness)

    e = sub.add_parser("export", help="run a grid and export run records")
    e.add_argument("--heuristics", default="min-min,mct,met,sufferage")
    e.add_argument("--tasks", type=int, default=30)
    e.add_argument("--machines", type=int, default=8)
    e.add_argument("--instances", type=int, default=20)
    e.add_argument("--ties", choices=["deterministic", "random"],
                   default="deterministic")
    e.add_argument("--seeded", action="store_true")
    e.add_argument("--workers", type=int, default=None,
                   help="process count for the parallel runner")
    e.add_argument("-o", "--output", required=True, help="CSV/JSON path")
    add_progress(e)
    add_common(e)
    add_ledger(e)
    add_runner(e)
    e.set_defaults(func=cmd_export)

    rg = sub.add_parser(
        "run-grid",
        help="run a multi-class grid through the resumable cached runner",
    )
    rg.add_argument("--heuristics", default="min-min,mct,met,sufferage")
    rg.add_argument("--tasks", type=int, default=30)
    rg.add_argument("--machines", type=int, default=8)
    rg.add_argument("--instances", type=int, default=20)
    rg.add_argument("--heterogeneities", type=_comma_list(_heterogeneity),
                    default="hihi,lolo",
                    help="comma list: hihi,hilo,lohi,lolo")
    rg.add_argument("--consistencies", type=_comma_list(_consistency),
                    default="inconsistent",
                    help="comma list: consistent,semi-consistent,inconsistent")
    rg.add_argument("--ties", choices=["deterministic", "random"],
                    default="deterministic")
    rg.add_argument("--seeded", action="store_true")
    rg.add_argument("--workers", type=int, default=None,
                    help="process count for pooled execution")
    rg.add_argument("--timeout", type=float, default=None,
                    help="per-cell wall-clock timeout in seconds "
                         "(pooled mode)")
    rg.add_argument("--retries", type=int, default=1,
                    help="re-attempts per failing/timed-out cell before "
                         "it is quarantined (default: %(default)s)")
    rg.add_argument("--no-cache", action="store_true",
                    help="disable the on-disk cell cache entirely")
    rg.add_argument("--store", dest="store_dir", metavar="DIR", default=None,
                    help="publish cell inputs once into a memory-mapped ETC "
                         "store at DIR; workers attach zero-copy views "
                         "instead of regenerating instances")
    rg.add_argument("--stream", dest="stream_chunk", type=int, metavar="N",
                    default=None,
                    help="bound the store publish window to N instances in "
                         "RAM at a time (requires --store)")
    rg.add_argument("-o", "--output",
                    help="write per-run records to CSV/JSON")
    rg.add_argument("--seed", type=int, default=0, help="master RNG seed")
    add_progress(rg)
    add_trace_out(rg)
    add_timeseries(rg)
    add_ledger(rg)
    add_runner(rg)
    # run-grid caches by default (unlike study/export, which only opt
    # in via --cache-dir/--resume).
    rg.set_defaults(func=cmd_run_grid, cache_dir=DEFAULT_CACHE_DIR)

    from repro.sim.arrivals import ARRIVAL_PROCESSES

    rr = sub.add_parser(
        "run-rolling",
        help="rolling-horizon online serving simulation (map + refine "
             "each horizon batch, optional live faults)",
    )
    rr.add_argument("--tasks", type=int, default=10_000,
                    help="total tasks to serve (default: %(default)s)")
    rr.add_argument("--machines", type=int, default=8)
    rr.add_argument("--heuristic", choices=heuristic_names(),
                    default="min-min",
                    help="batch mapping heuristic refined by the iterative "
                         "technique each horizon")
    rr.add_argument("--refine-iterations", type=int, default=2,
                    help="iterative-technique cap per batch: 1 = plain "
                         "heuristic mapping, 0 = run the technique to "
                         "completion (default: %(default)s)")
    rr.add_argument("--horizon", type=float, default=None,
                    help="mapping-event cadence in simulation time "
                         "(default: derived so a mean batch holds "
                         "--batch-target tasks)")
    rr.add_argument("--batch-target", type=int, default=64,
                    help="target mean batch size when --horizon is derived "
                         "(default: %(default)s)")
    rr.add_argument("--rate", type=float, default=None,
                    help="arrival rate in tasks per sim time unit "
                         "(default: calibrated to --utilization)")
    rr.add_argument("--utilization", type=float, default=0.7,
                    help="target machine load for rate calibration "
                         "(default: %(default)s)")
    rr.add_argument("--arrival", choices=ARRIVAL_PROCESSES,
                    default="poisson",
                    help="arrival process (default: %(default)s)")
    rr.add_argument("--burst-factor", type=float, default=8.0,
                    help="(--arrival bursty) in-burst rate multiplier")
    rr.add_argument("--burst-fraction", type=float, default=0.5,
                    help="(--arrival bursty) fraction of tasks arriving "
                         "inside bursts")
    rr.add_argument("--mean-burst", type=float, default=16.0,
                    help="(--arrival bursty) mean tasks per burst")
    rr.add_argument("--arrival-trace", metavar="PATH", default=None,
                    help="(--arrival trace) file of inter-arrival gaps, "
                         "one per line")
    rr.add_argument("--chunk-tasks", type=int, default=64,
                    help="tasks per generated ETC instance; the streamed "
                         "window holds --stream instances (default: "
                         "%(default)s)")
    rr.add_argument("--stream", dest="stream_chunk", type=int, metavar="N",
                    default=None,
                    help="instances per streamed window (default: 32); "
                         "bounds resident task definitions")
    rr.add_argument("--store", dest="store_dir", metavar="DIR", default=None,
                    help="publish the task stream once into a memory-mapped "
                         "ETC store at DIR and serve from it (idempotent "
                         "per key, so reruns skip generation)")
    add_progress(rr)
    add_trace_out(rr)
    add_timeseries(rr)
    add_faults(rr)
    add_fault_shape(rr)
    add_common(rr)
    add_ledger(rr)
    rr.set_defaults(func=cmd_run_rolling)

    from repro.serve.cache import DEFAULT_RESPONSE_CACHE_DIR

    sv = sub.add_parser(
        "serve",
        help="run the scheduling-as-a-service HTTP API "
             "(see docs/serving.md)",
        description="Run the scheduling service until SIGINT/SIGTERM. "
                    "--trace-out serialises request handling: a debugging "
                    "aid, not for load.",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: %(default)s)")
    sv.add_argument("--port", type=int, default=8351,
                    help="bind port; 0 picks an ephemeral port "
                         "(default: %(default)s)")
    sv.add_argument("--workers", type=int, default=4,
                    help="worker threads computing requests "
                         "(default: %(default)s)")
    sv.add_argument("--max-pending", type=int, default=64,
                    help="in-flight request cap before shedding with 503 "
                         "(default: %(default)s)")
    sv.add_argument("--cache-dir", default=DEFAULT_RESPONSE_CACHE_DIR,
                    help="content-addressed response cache directory "
                         "(default: %(default)s)")
    sv.add_argument("--no-cache", action="store_true",
                    help="disable the response cache (recompute everything)")
    sv.add_argument("--ledger-every", type=float, default=0.0,
                    help="with --append-ledger, also flush a ledger record "
                         "every N seconds of traffic (default: only at "
                         "shutdown)")
    add_trace_out(sv)
    add_ledger(sv)
    sv.set_defaults(func=cmd_serve)

    sl = sub.add_parser(
        "serve-load",
        help="drive synthetic traffic against a running `repro serve`",
    )
    sl.add_argument("--url", default="http://127.0.0.1:8351/v1/schedule",
                    help="endpoint to POST to (default: %(default)s)")
    sl.add_argument("-n", "--requests", type=int, default=100,
                    help="number of requests (default: %(default)s)")
    sl.add_argument("--concurrency", type=int, default=8,
                    help="client worker threads (default: %(default)s)")
    sl.add_argument("--rate", type=float, default=None,
                    help="open-loop request release rate per second "
                         "(default: unpaced)")
    sl.add_argument("--timeout", type=float, default=30.0,
                    help="per-request timeout in seconds "
                         "(default: %(default)s)")
    sl.add_argument("--payload", metavar="FILE", default=None,
                    help="JSON file with the request payload (default: a "
                         "small built-in study request)")
    sl.add_argument("--tasks", type=int, default=24,
                    help="built-in payload: ensemble tasks "
                         "(default: %(default)s)")
    sl.add_argument("--machines", type=int, default=6,
                    help="built-in payload: ensemble machines "
                         "(default: %(default)s)")
    sl.add_argument("--instances", type=int, default=4,
                    help="built-in payload: instances per request "
                         "(default: %(default)s)")
    sl.add_argument("--heuristic", choices=heuristic_names(),
                    default="min-min",
                    help="built-in payload heuristic (default: %(default)s)")
    sl.add_argument("--seed", type=int, default=0,
                    help="built-in payload seed (default: %(default)s)")
    sl.add_argument("--errors-fatal", action="store_true",
                    help="exit 1 when any request fails")
    sl.add_argument("-o", "--output", help="write the load report JSON here")
    add_ledger(sl)
    sl.set_defaults(func=cmd_serve_load)

    t = sub.add_parser("trace", help="replay a run and print its decision trace")
    t.add_argument("--example", choices=TRACE_EXAMPLES,
                   help="replay one of the paper's worked examples")
    t.add_argument("--etc", help="CSV/JSON ETC file (instead of --example)")
    t.add_argument("--heuristic", choices=heuristic_names(), default="min-min",
                   help="heuristic for --etc runs")
    t.add_argument("--ties", choices=["deterministic", "random"],
                   default="deterministic")
    t.add_argument("--jsonl", help="also write the trace to a JSONL file")
    add_common(t, etc_classes=False)
    t.set_defaults(func=cmd_trace)

    r = sub.add_parser("report", help="generate the full reproduction report")
    r.add_argument("--quick", action="store_true", help="small ensembles")
    r.add_argument("-o", "--output", help="Markdown path (stdout if omitted)")
    add_common(r, etc_classes=False)
    add_ledger(r)
    r.set_defaults(func=cmd_report)

    b = sub.add_parser("bench", help="time the tracked scheduling workloads")
    b.add_argument("--smoke", action="store_true",
                   help="shrunken workloads (64x8) for quick sanity runs")
    b.add_argument("--repeats", type=int, default=5,
                   help="timing repetitions per workload (best is reported)")
    b.add_argument("--no-reference", action="store_true",
                   help="skip the retained pre-optimisation variants")
    b.add_argument("--workloads",
                   help="comma list restricting which workloads run")
    b.add_argument("--list", action="store_true", dest="list_workloads",
                   help="list the registered workloads and exit")
    b.add_argument("--baseline",
                   help="bench JSON to compare against (exit 1 on regression)")
    b.add_argument("--tolerance", type=float, default=0.5,
                   help="allowed fractional slowdown vs baseline (0.5 = 50%%)")
    b.add_argument("--profile", type=int, metavar="N", default=None,
                   help="after timing, run each optimised thunk once under "
                        "cProfile and print the top N cumulative entries")
    b.add_argument("--speedup-baseline",
                   help="bench JSON whose optimised-vs-reference speedup "
                        "ratios gate this run (machine-speed independent; "
                        "exit 1 when a ratio shrinks beyond tolerance)")
    b.add_argument("--speedup-tolerance", type=float, default=0.25,
                   help="allowed fractional speedup shrink vs "
                        "--speedup-baseline (default: %(default)s)")
    b.add_argument("-o", "--output", help="write the report JSON here")
    add_ledger(b)
    b.set_defaults(func=cmd_bench)

    o = sub.add_parser("obs", help="inspect the run ledger")
    osub = o.add_subparsers(dest="obs_command", required=True)

    ot = osub.add_parser("tail", help="print the most recent ledger records")
    ot.add_argument("-n", "--last", type=int, default=10,
                    help="how many records (default: %(default)s)")
    ot.add_argument("-f", "--follow", action="store_true",
                    help="keep polling the ledger and print records as they "
                         "are appended (Ctrl-C to stop)")
    ot.add_argument("--interval", type=float, default=2.0,
                    help="poll interval in seconds for --follow "
                         "(default: %(default)s)")
    add_ledger_path(ot)
    ot.set_defaults(func=cmd_obs_tail)

    otl = osub.add_parser(
        "timeline",
        help="render a flamegraph-style span timeline from an exported "
             "trace JSONL (see run-grid --trace-out)",
    )
    otl.add_argument("trace", help="obs JSONL export containing span records")
    otl.add_argument("--width", type=int, default=100,
                     help="ASCII timeline width (default: %(default)s)")
    otl.add_argument("--html", metavar="PATH", default=None,
                     help="also write a self-contained HTML timeline to PATH")
    otl.set_defaults(func=cmd_obs_timeline)

    os_ = osub.add_parser("summary",
                          help="longitudinal metric summary per command")
    add_ledger_path(os_)
    os_.set_defaults(func=cmd_obs_summary)

    od = osub.add_parser(
        "diff",
        help="metric deltas between two runs (exit 1 on makespan-metric "
             "regression beyond tolerance)",
    )
    od.add_argument("run_a", help="run_id prefix or negative index (-2 = "
                                  "second newest)")
    od.add_argument("run_b", help="run_id prefix or negative index (-1 = "
                                  "newest)")
    od.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed relative worsening before a metric counts "
                         "as a regression (default: %(default)s)")
    add_ledger_path(od)
    od.set_defaults(func=cmd_obs_diff)

    p = sub.add_parser("paper", help="replay the paper's worked examples")
    p.set_defaults(func=cmd_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/filter (e.g. ``| head``) closed the pipe.
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
