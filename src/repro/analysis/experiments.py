"""Experiment grid runner.

Runs the iterative technique for a grid of heuristics × ETC classes ×
instances, collecting one :class:`RunRecord` per (heuristic, instance)
cell.  All randomness is derived from a single seed: instance
generation, random tie-breaking and stochastic heuristics (Genitor,
random baseline) each get independent child generators via
``numpy.random.SeedSequence`` spawning, so adding a heuristic to the
grid never perturbs another heuristic's stream.
"""

from __future__ import annotations

import time
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field

import numpy as np

from repro.core.iterative import IterativeScheduler
from repro.core.metrics import IterativeComparison, compare_iterative
from repro.core.seeding import SeededIterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.generation import Consistency, Heterogeneity, generate_ensemble
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics.backends import get_backend
from repro.obs.metrics import TIME_BUCKETS
from repro.obs.tracer import get_tracer

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "stable_key",
    "cell_instance_rng",
    "config_to_dict",
    "run_record_to_dict",
    "run_record_from_dict",
]

def stable_key(*parts: str) -> int:
    """Process-stable 32-bit key for SeedSequence spawn keys.

    Python's builtin ``hash`` of strings is randomised per process
    (PYTHONHASHSEED), which would make experiment grids irreproducible
    across runs; CRC32 is stable everywhere.
    """
    import zlib

    return zlib.crc32("\x1f".join(parts).encode("utf-8"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment grid."""

    heuristics: tuple[str, ...] = ("min-min", "mct", "met")
    num_tasks: int = 50
    num_machines: int = 8
    heterogeneities: tuple[Heterogeneity, ...] = (Heterogeneity.HIHI,)
    consistencies: tuple[Consistency, ...] = (Consistency.INCONSISTENT,)
    instances_per_cell: int = 20
    tie_policy: str = "deterministic"  # or "random"
    generation_method: str = "range"  # or "cvb"
    seeded_iterations: bool = False  # use SeededIterativeScheduler
    seed: int = 0
    #: Kernel backend (see :mod:`repro.heuristics.backends`); decision-
    #: identical by contract, so it changes wall-clock only, never records.
    backend: str = "incremental"
    #: Extra constructor kwargs per heuristic name, e.g.
    #: ``{"genitor": {"iterations": 200, "population_size": 20}}``.
    heuristic_kwargs: MappingABC[str, MappingABC[str, object]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.tie_policy not in ("deterministic", "random"):
            raise ConfigurationError(f"unknown tie policy {self.tie_policy!r}")
        get_backend(self.backend)  # fail fast on unknown backends
        if self.instances_per_cell < 1:
            raise ConfigurationError(
                f"instances_per_cell must be >= 1, got {self.instances_per_cell}"
            )


@dataclass(frozen=True)
class RunRecord:
    """One (heuristic, instance) outcome."""

    heuristic: str
    heterogeneity: Heterogeneity
    consistency: Consistency
    instance_index: int
    tie_policy: str
    comparison: IterativeComparison
    num_iterations: int

    @property
    def etc_class(self) -> str:
        return f"{self.heterogeneity.value}/{self.consistency.value}"


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical JSON-able form of a config.

    This is the cache/ledger identity of an experiment: it covers every
    field that determines the records (seed, grid shape, heuristic and
    iterative parameters) in a stable layout, so
    ``config_hash(config_to_dict(c))`` (see :mod:`repro.obs.ledger`)
    content-addresses the experiment across processes and machines.
    ``heuristic_kwargs`` values must be JSON-able plain values — the
    same constraint the parallel runner already imposes (picklable, no
    live RNGs).
    """
    return {
        "heuristics": list(config.heuristics),
        "num_tasks": config.num_tasks,
        "num_machines": config.num_machines,
        "heterogeneities": [h.value for h in config.heterogeneities],
        "consistencies": [c.value for c in config.consistencies],
        "instances_per_cell": config.instances_per_cell,
        "tie_policy": config.tie_policy,
        "generation_method": config.generation_method,
        "seeded_iterations": config.seeded_iterations,
        "seed": config.seed,
        "heuristic_kwargs": {
            name: dict(kwargs)
            for name, kwargs in sorted(config.heuristic_kwargs.items())
        },
        # Backends are decision-identical, so the default is omitted to
        # keep cache/ledger identities of pre-backend configs unchanged;
        # a non-default backend is recorded for provenance.
        **({"backend": config.backend} if config.backend != "incremental" else {}),
    }


def run_record_to_dict(record: RunRecord) -> dict:
    """Lossless JSON-able form of one record (cell-cache entry rows).

    Unlike :func:`repro.analysis.export.run_records_to_rows` (a
    flattened view for external tooling), this keeps every per-machine
    comparison so :func:`run_record_from_dict` can rebuild an *equal*
    :class:`RunRecord` — floats round-trip exactly through JSON.
    """
    c = record.comparison
    return {
        "heuristic": record.heuristic,
        "heterogeneity": record.heterogeneity.value,
        "consistency": record.consistency.value,
        "instance_index": record.instance_index,
        "tie_policy": record.tie_policy,
        "num_iterations": record.num_iterations,
        "comparison": {
            "heuristic": c.heuristic,
            "original_makespan": float(c.original_makespan),
            "final_makespan": float(c.final_makespan),
            "makespan_increased": c.makespan_increased,
            "mapping_changed": c.mapping_changed,
            "machines": [
                {
                    "machine": m.machine,
                    "original": float(m.original),
                    "iterative": float(m.iterative),
                }
                for m in c.machines
            ],
        },
    }


def run_record_from_dict(payload: dict) -> RunRecord:
    """Invert :func:`run_record_to_dict` (exact round trip)."""
    from repro.core.metrics import MachineComparison

    c = payload["comparison"]
    comparison = IterativeComparison(
        heuristic=c["heuristic"],
        machines=tuple(
            MachineComparison(
                machine=m["machine"],
                original=m["original"],
                iterative=m["iterative"],
            )
            for m in c["machines"]
        ),
        original_makespan=c["original_makespan"],
        final_makespan=c["final_makespan"],
        makespan_increased=c["makespan_increased"],
        mapping_changed=c["mapping_changed"],
    )
    return RunRecord(
        heuristic=payload["heuristic"],
        heterogeneity=Heterogeneity(payload["heterogeneity"]),
        consistency=Consistency(payload["consistency"]),
        instance_index=payload["instance_index"],
        tie_policy=payload["tie_policy"],
        comparison=comparison,
        num_iterations=payload["num_iterations"],
    )


def cell_instance_rng(
    config: ExperimentConfig, het: Heterogeneity, cons: Consistency
) -> np.random.Generator:
    """The exact per-cell instance-generation stream of :func:`run_experiment`.

    Exposed so out-of-band instance producers — the store publisher in
    :mod:`repro.analysis.runner` streams a cell's ensemble into an
    :class:`~repro.etc.store.ETCStore` before workers attach — draw the
    byte-identical instances the in-process path would generate.
    """
    root = np.random.SeedSequence(config.seed)
    instance_seed = root.spawn(1)[0]
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=instance_seed.entropy,
            spawn_key=(stable_key(het.value, cons.value),),
        )
    )


def run_experiment(
    config: ExperimentConfig,
    *,
    instances_for=None,
) -> list[RunRecord]:
    """Execute the grid; returns one record per heuristic per instance.

    ``instances_for`` optionally overrides instance generation: a
    callable ``(heterogeneity, consistency) -> Sequence[ETCMatrix]``
    whose matrices replace the cell's generated ensemble (the store
    transport hands back memmap views here).  Providers must supply
    value-identical instances — per-cell RNG streams are independent
    (:func:`cell_instance_rng`), so skipping generation perturbs no
    other stream and the records stay byte-identical.
    """
    root = np.random.SeedSequence(config.seed)
    instance_seed, heuristic_seed, tie_seed = root.spawn(3)
    tracer = get_tracer()
    records: list[RunRecord] = []

    for het in config.heterogeneities:
        for cons in config.consistencies:
            cell_started = time.perf_counter()
            with tracer.span(
                "experiment.cell",
                heterogeneity=het.value,
                consistency=cons.value,
                instances=config.instances_per_cell,
                heuristics=tuple(config.heuristics),
            ):
                # Span-only phase (no event), so the traced event
                # stream stays byte-identical to pre-span releases.
                with tracer.phase(
                    "experiment.instances", count=config.instances_per_cell
                ):
                    if instances_for is not None:
                        instances = list(instances_for(het, cons))
                    else:
                        cell_rng = np.random.default_rng(
                            np.random.SeedSequence(
                                entropy=instance_seed.entropy,
                                spawn_key=(stable_key(het.value, cons.value),),
                            )
                        )
                        instances = generate_ensemble(
                            config.instances_per_cell,
                            config.num_tasks,
                            config.num_machines,
                            heterogeneity=het,
                            consistency=cons,
                            method=config.generation_method,
                            rng=cell_rng,
                        )
                for name in config.heuristics:
                    h_seed, t_seed = np.random.SeedSequence(
                        entropy=heuristic_seed.entropy,
                        spawn_key=(stable_key(name, het.value, cons.value),),
                    ).spawn(2)
                    h_rng = np.random.default_rng(h_seed)
                    t_rng = np.random.default_rng(t_seed)
                    for idx, etc in enumerate(instances):
                        records.append(
                            _run_one(config, name, het, cons, idx, etc, h_rng, t_rng)
                        )
            if tracer.enabled:
                # Wall-clock histogram (``_s`` suffix = timing values,
                # compared structurally, not byte-identically, by the
                # merge properties — see repro.obs.metrics).
                tracer.observe(
                    "experiment.cell_runtime_s",
                    time.perf_counter() - cell_started,
                    buckets=TIME_BUCKETS,
                )
    return records


def _run_one(
    config: ExperimentConfig,
    name: str,
    het: Heterogeneity,
    cons: Consistency,
    idx: int,
    etc: ETCMatrix,
    h_rng: np.random.Generator,
    t_rng: np.random.Generator,
) -> RunRecord:
    # A configured ``rng`` wins over the cell's stream.
    kwargs = {"rng": h_rng, **config.heuristic_kwargs.get(name, {})}
    heuristic = get_backend(config.backend).make(name, **kwargs)
    breaker = (
        DeterministicTieBreaker()
        if config.tie_policy == "deterministic"
        else RandomTieBreaker(t_rng)
    )
    scheduler_cls = (
        SeededIterativeScheduler if config.seeded_iterations else IterativeScheduler
    )
    scheduler = scheduler_cls(heuristic, tie_breaker=breaker)
    result = scheduler.run(etc)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "experiment.run",
            heuristic=name,
            heterogeneity=het.value,
            consistency=cons.value,
            instance=idx,
            iterations=result.num_iterations,
            makespan=result.original.makespan,
            makespan_increased=result.makespan_increased(),
        )
        tracer.count("experiment.runs")
        tracer.observe("experiment.iterations", result.num_iterations)
    return RunRecord(
        heuristic=name,
        heterogeneity=het,
        consistency=cons,
        instance_index=idx,
        tie_policy=config.tie_policy,
        comparison=compare_iterative(result),
        num_iterations=result.num_iterations,
    )
