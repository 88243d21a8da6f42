"""The statistical studies behind the paper's qualitative findings.

The paper's evaluation is example-driven; its conclusions, however, are
population statements ("the greedy heuristics did not guarantee an
improvement", "MET, MCT and Min-Min were proven to not change over
successive iterations", "the Genitor-based approach will keep the same
mapping or produce a better mapping").  These studies measure exactly
those statements over synthetic ETC ensembles:

* :func:`improvement_study` — per heuristic × tie policy: how often the
  iterative technique changes the mapping, how often makespan
  increases, and how much the non-makespan machines' finishing times
  improve (experiment E23 in DESIGN.md);
* :func:`heuristic_comparison` — cross-heuristic makespan comparison on
  the standard ETC classes (experiment E24), anchoring our heuristic
  implementations against the well-known Braun et al. ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import (
    ExperimentConfig,
    RunRecord,
    run_experiment,
    stable_key,
)
from repro.analysis.stats import Summary, summarize
from repro.etc.generation import Consistency, Heterogeneity, generate_ensemble
from repro.exceptions import ConfigurationError
from repro.heuristics.base import get_heuristic

__all__ = [
    "ImprovementRow",
    "improvement_study",
    "format_improvement_table",
    "ComparisonRow",
    "heuristic_comparison",
    "format_comparison_table",
]


# ----------------------------------------------------------------------
# E23 — iterative improvement study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ImprovementRow:
    """Aggregate outcome for one heuristic under one tie policy."""

    heuristic: str
    tie_policy: str
    runs: int
    mapping_change_rate: float
    makespan_increase_rate: float
    machine_improved_rate: float
    machine_worsened_rate: float
    mean_improvement: Summary

    def __str__(self) -> str:
        return (
            f"{self.heuristic:<20} {self.tie_policy:<13} "
            f"changed {100 * self.mapping_change_rate:5.1f}%  "
            f"ms-increase {100 * self.makespan_increase_rate:5.1f}%  "
            f"machines improved {100 * self.machine_improved_rate:5.1f}%"
        )


def _aggregate(records: list[RunRecord]) -> list[ImprovementRow]:
    rows: list[ImprovementRow] = []
    keys = sorted({(r.heuristic, r.tie_policy) for r in records})
    for heuristic, policy in keys:
        sel = [r for r in records if r.heuristic == heuristic and r.tie_policy == policy]
        comparisons = [r.comparison for r in sel]
        machine_deltas = [m.delta for c in comparisons for m in c.machines]
        improved = sum(1 for c in comparisons for m in c.machines if m.improved)
        worsened = sum(1 for c in comparisons for m in c.machines if m.worsened)
        total_machines = sum(len(c.machines) for c in comparisons)
        rows.append(
            ImprovementRow(
                heuristic=heuristic,
                tie_policy=policy,
                runs=len(sel),
                mapping_change_rate=float(
                    np.mean([c.mapping_changed for c in comparisons])
                ),
                makespan_increase_rate=float(
                    np.mean([c.makespan_increased for c in comparisons])
                ),
                machine_improved_rate=improved / total_machines,
                machine_worsened_rate=worsened / total_machines,
                mean_improvement=summarize(machine_deltas),
            )
        )
    return rows


def improvement_study(
    heuristics: tuple[str, ...] = ("min-min", "mct", "met", "sufferage",
                                   "k-percent-best", "switching-algorithm"),
    *,
    num_tasks: int = 40,
    num_machines: int = 8,
    instances: int = 30,
    heterogeneity: Heterogeneity = Heterogeneity.HIHI,
    consistency: Consistency = Consistency.INCONSISTENT,
    tie_policies: tuple[str, ...] = ("deterministic", "random"),
    seeded_iterations: bool = False,
    seed: int = 0,
    backend: str = "incremental",
    generation_method: str = "range",
    heuristic_kwargs=None,
    run_fn=run_experiment,
) -> list[ImprovementRow]:
    """Run E23: the per-heuristic iterative-improvement statistics.

    ``run_fn`` maps an :class:`ExperimentConfig` to its records; the
    default is the serial :func:`~repro.analysis.experiments.run_experiment`.
    The CLI routes it through :func:`~repro.analysis.runner.run_grid`
    (which adds the optional cell cache) — the records are identical
    either way, only execution and caching differ.  ``backend`` picks the kernel
    generation (see :mod:`repro.heuristics.backends`); all backends are
    decision-identical, so the rows do not depend on it.
    ``generation_method`` picks the ETC generator (``"range"`` /
    ``"cvb"``), matching ``ExperimentConfig.generation_method``.
    """
    rows: list[ImprovementRow] = []
    for policy in tie_policies:
        config = ExperimentConfig(
            heuristics=heuristics,
            num_tasks=num_tasks,
            num_machines=num_machines,
            heterogeneities=(heterogeneity,),
            consistencies=(consistency,),
            instances_per_cell=instances,
            tie_policy=policy,
            seeded_iterations=seeded_iterations,
            seed=seed,
            backend=backend,
            generation_method=generation_method,
            heuristic_kwargs=heuristic_kwargs or {},
        )
        rows.extend(_aggregate(list(run_fn(config))))
    return rows


def format_improvement_table(rows: list[ImprovementRow]) -> str:
    """Fixed-width report of an improvement study."""
    header = (
        f"{'heuristic':<20}{'ties':<14}{'runs':>5}{'chg%':>8}"
        f"{'ms-inc%':>9}{'m-impr%':>9}{'m-wors%':>9}{'mean dFT':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.heuristic:<20}{r.tie_policy:<14}{r.runs:>5}"
            f"{100 * r.mapping_change_rate:>8.1f}"
            f"{100 * r.makespan_increase_rate:>9.1f}"
            f"{100 * r.machine_improved_rate:>9.1f}"
            f"{100 * r.machine_worsened_rate:>9.1f}"
            f"{r.mean_improvement.mean:>12.4g}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# E24 — cross-heuristic makespan comparison (Braun et al. anchor)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonRow:
    """Mean makespan of one heuristic on one ETC class."""

    heuristic: str
    heterogeneity: Heterogeneity
    consistency: Consistency
    mean_makespan: float
    normalized: float  # mean makespan / best heuristic's mean on this class

    @property
    def etc_class(self) -> str:
        return f"{self.heterogeneity.value}/{self.consistency.value}"


def heuristic_comparison(
    heuristics: tuple[str, ...],
    *,
    num_tasks: int = 50,
    num_machines: int = 8,
    instances: int = 20,
    heterogeneities: tuple[Heterogeneity, ...] = (Heterogeneity.HIHI,),
    consistencies: tuple[Consistency, ...] = (Consistency.CONSISTENT,
                                              Consistency.INCONSISTENT),
    seed: int = 0,
    heuristic_kwargs=None,
    seed_genitor_with_minmin: bool = True,
) -> list[ComparisonRow]:
    """Run E24: mean original-mapping makespan per heuristic per class.

    ``seed_genitor_with_minmin`` replicates the Braun et al. GA
    methodology: Genitor's initial population contains the Min-Min
    solution, so its output is never worse than Min-Min's.
    """
    if not heuristics:
        raise ConfigurationError("need at least one heuristic")
    heuristic_kwargs = heuristic_kwargs or {}
    rows: list[ComparisonRow] = []
    root = np.random.SeedSequence(seed)
    for het in heterogeneities:
        for cons in consistencies:
            cell_seed, h_seed = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(stable_key(het.value, cons.value),),
            ).spawn(2)
            ensemble = generate_ensemble(
                instances,
                num_tasks,
                num_machines,
                heterogeneity=het,
                consistency=cons,
                rng=np.random.default_rng(cell_seed),
            )
            means: dict[str, float] = {}
            for name in heuristics:
                kwargs = {
                    "rng": np.random.default_rng(h_seed),
                    **heuristic_kwargs.get(name, {}),
                }
                spans = []
                for etc in ensemble:
                    heuristic = get_heuristic(name, **kwargs)
                    seed_mapping = None
                    if name == "genitor" and seed_genitor_with_minmin:
                        seed_mapping = get_heuristic("min-min").map_tasks(etc).to_dict()
                    spans.append(
                        heuristic.map_tasks(etc, seed_mapping=seed_mapping).makespan()
                    )
                means[name] = float(np.mean(spans))
            best = min(means.values())
            for name in heuristics:
                rows.append(
                    ComparisonRow(
                        heuristic=name,
                        heterogeneity=het,
                        consistency=cons,
                        mean_makespan=means[name],
                        normalized=means[name] / best,
                    )
                )
    return rows


def format_comparison_table(rows: list[ComparisonRow]) -> str:
    """Fixed-width report of a heuristic comparison, grouped by class."""
    lines = []
    classes = sorted({r.etc_class for r in rows})
    for cls in classes:
        sel = sorted(
            (r for r in rows if r.etc_class == cls), key=lambda r: r.mean_makespan
        )
        lines.append(f"ETC class {cls}:")
        lines.append(f"  {'heuristic':<20}{'mean makespan':>16}{'vs best':>10}")
        for r in sel:
            lines.append(
                f"  {r.heuristic:<20}{r.mean_makespan:>16.6g}{r.normalized:>10.3f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
