"""Robustness of mappings to ETC estimation error.

The ETC values driving every heuristic are *estimates* ("the assumption
of such ETC information is a common practice", paper Section 2), and
the authors' companion work (Ali, Shestak, Smith et al. — the
robustness papers filling the source text's bibliography) asks how a
mapping behaves when actual execution times deviate from the estimates.
This module provides that analysis for any mapping produced here:

* :func:`perturbed_finish_times` — realised per-machine finishing times
  when actual times are ``ETC * (1 + error)`` with multiplicative noise;
* :func:`robustness_radius` — the largest uniform relative error under
  which the realised makespan is guaranteed to stay within a tolerance
  of the estimated makespan (closed form for multiplicative noise);
* :func:`makespan_degradation` — Monte-Carlo distribution of realised
  makespan over an error model, per heuristic;
* :func:`fault_degradation_study` — the *dynamic* robustness question:
  how do the original and the iterative mappings degrade when machines
  actually fail and recover mid-run (seeded
  :mod:`repro.sim.faults` plans executed by
  :class:`~repro.sim.hcsystem.FaultTolerantHCSystem`), measured on both
  makespan and non-makespan completion times across fault rates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping
from repro.exceptions import ConfigurationError

__all__ = [
    "perturbed_finish_times",
    "robustness_radius",
    "DegradationSummary",
    "makespan_degradation",
    "FaultStudyRow",
    "fault_degradation_study",
    "format_fault_table",
    "non_makespan_mean",
]


def _assignment_matrix(mapping: Mapping) -> np.ndarray:
    """Boolean (tasks x machines) incidence of a complete mapping."""
    etc = mapping.etc
    incidence = np.zeros(etc.shape, dtype=bool)
    for a in mapping.assignments:
        incidence[etc.task_index(a.task), etc.machine_index(a.machine)] = True
    return incidence


def perturbed_finish_times(
    mapping: Mapping,
    relative_errors: np.ndarray,
) -> np.ndarray:
    """Realised finishing times when task ``i`` actually takes
    ``ETC[i, m] * (1 + relative_errors[i])`` on its machine.

    ``relative_errors`` must be > -1 (times stay positive).  Queueing
    order within a machine does not change its finishing time, so the
    result is exact, not an approximation.
    """
    etc = mapping.etc
    errors = np.asarray(relative_errors, dtype=np.float64)
    if errors.shape != (etc.num_tasks,):
        raise ConfigurationError(
            f"need one relative error per task, got shape {errors.shape}"
        )
    if np.any(errors <= -1.0):
        raise ConfigurationError("relative errors must be > -1")
    incidence = _assignment_matrix(mapping)
    actual = etc.values * (1.0 + errors)[:, None]
    loads = (actual * incidence).sum(axis=0)
    return mapping.initial_ready_times() + loads


def robustness_radius(
    mapping: Mapping,
    tolerance: float = 1.2,
    bound: float | None = None,
) -> float:
    """Largest uniform relative error ``r`` such that for *any* error
    vector with ``|e_i| <= r`` the realised makespan stays within the
    bound.

    The bound is ``tolerance * estimated_makespan`` by default, or an
    explicit absolute ``bound`` (e.g. a shared deadline — use this to
    compare the robustness of *different* mappings of one instance:
    relative to its own makespan every zero-ready mapping trivially has
    radius ``tolerance - 1``, but against a common deadline balanced
    mappings have more headroom).

    For multiplicative noise the worst case inflates every task on a
    machine by ``r``, so the radius solves
    ``ready_j + (1 + r) * load_j <= bound`` over all machines ``j`` — a
    closed form, no sampling needed.  The result can be negative when
    the mapping already violates the bound.
    """
    if not mapping.is_complete():
        raise ConfigurationError("robustness radius needs a complete mapping")
    if bound is None:
        if tolerance <= 1.0:
            raise ConfigurationError(f"tolerance must exceed 1, got {tolerance}")
        bound = tolerance * mapping.makespan()
    elif bound <= 0:
        raise ConfigurationError(f"bound must be positive, got {bound}")
    ready = mapping.initial_ready_times()
    loads = mapping.finish_time_vector() - ready
    radii = []
    for j in range(loads.size):
        if loads[j] <= 0:
            continue  # idle machines never violate the bound
        radii.append((bound - ready[j]) / loads[j] - 1.0)
    if not radii:
        return np.inf
    return float(min(radii))


@dataclass(frozen=True)
class DegradationSummary:
    """Monte-Carlo makespan degradation of one mapping."""

    estimated_makespan: float
    mean_realised: float
    worst_realised: float
    violation_rate: float  # fraction of samples beyond tolerance
    tolerance: float

    @property
    def mean_degradation(self) -> float:
        """Mean realised / estimated makespan."""
        return self.mean_realised / self.estimated_makespan


def makespan_degradation(
    mapping: Mapping,
    error_cv: float = 0.1,
    samples: int = 200,
    tolerance: float = 1.2,
    rng: np.random.Generator | int | None = None,
) -> DegradationSummary:
    """Sample realised makespans under lognormal multiplicative noise.

    Per-task factors are lognormal with median 1 and coefficient of
    variation ``error_cv`` (the Ali et al. error model); the summary
    reports the mean/worst realised makespan and how often the
    ``tolerance``-bound on the estimated makespan is violated.
    """
    if error_cv <= 0:
        raise ConfigurationError(f"error_cv must be positive, got {error_cv}")
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    sigma = np.sqrt(np.log(1.0 + error_cv**2))
    estimated = mapping.makespan()
    realised = np.empty(samples)
    for k in range(samples):
        factors = gen.lognormal(mean=0.0, sigma=sigma, size=mapping.etc.num_tasks)
        finish = perturbed_finish_times(mapping, factors - 1.0)
        realised[k] = finish.max()
    return DegradationSummary(
        estimated_makespan=estimated,
        mean_realised=float(realised.mean()),
        worst_realised=float(realised.max()),
        violation_rate=float((realised > tolerance * estimated).mean()),
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# Fault-injection degradation study (original vs iterative mappings)
# ----------------------------------------------------------------------
def non_makespan_mean(finish_times: dict[str, float]) -> float:
    """Mean finishing time over the non-makespan machines.

    Drops exactly one machine — the latest-finishing one — mirroring the
    paper's object of study (the availability of everything *except* the
    makespan machine).  A one-machine system has no non-makespan
    machines; its own finish time is returned.
    """
    values = sorted(finish_times.values())
    if len(values) <= 1:
        return float(values[0])
    return float(np.mean(values[:-1]))


@dataclass(frozen=True)
class FaultStudyRow:
    """Aggregate degradation of one (mapping kind, failure rate) cell.

    Degradations are per-instance ratios ``realised / fault-free``
    averaged over instances (1.0 = unharmed); counters are totals.
    """

    heuristic: str
    mapping_kind: str  # "original" | "iterative"
    failure_rate: float
    instances: int
    fault_free_makespan: float
    mean_makespan: float
    makespan_degradation: float
    fault_free_non_makespan: float
    mean_non_makespan: float
    non_makespan_degradation: float
    failures: int
    retries: int
    requeues: int
    dropped: int


def fault_degradation_study(
    heuristic: str = "min-min",
    *,
    failure_rates: Sequence[float] = (1e-6, 3e-6, 1e-5),
    num_tasks: int = 40,
    num_machines: int = 8,
    instances: int = 5,
    policy: str = "requeue",
    retry_budget: int = 8,
    downtime_frac: float = 0.05,
    slowdown_rate: float = 0.0,
    slowdown_factor: float = 2.0,
    heterogeneity=None,
    consistency=None,
    seed: int = 0,
) -> list[FaultStudyRow]:
    """Degradation of original vs iterative mappings under rising faults.

    For every instance the study builds the heuristic's *original*
    mapping and the iterative technique's composite *final* mapping
    (:meth:`~repro.core.iterative.IterativeResult.final_mapping`), then
    executes **both under the identical seeded fault plan** at each
    failure rate — a paired design, so the original-vs-iterative deltas
    are not noise from different fault draws.  The fault horizon is the
    instance's fault-free original makespan and ``mean_downtime`` is
    ``downtime_frac`` of it, which keeps rate sweeps comparable across
    ETC magnitudes.  Everything is derived from ``seed`` (instances,
    a stochastic heuristic's stream, fault plans): the same call always
    returns the identical rows.
    """
    from repro.analysis.experiments import stable_key
    from repro.core.iterative import IterativeScheduler
    from repro.etc.generation import (
        Consistency,
        Heterogeneity,
        generate_range_based,
    )
    from repro.heuristics.base import get_heuristic
    from repro.sim.faults import FaultConfig, generate_fault_plan
    from repro.sim.hcsystem import FaultTolerantHCSystem

    if instances < 1:
        raise ConfigurationError(f"instances must be >= 1, got {instances}")
    if not failure_rates:
        raise ConfigurationError("need at least one failure rate")
    if not all(math.isfinite(rate) and rate > 0 for rate in failure_rates):
        raise ConfigurationError(
            f"failure rates must be positive and finite, got {list(failure_rates)}"
        )
    if not (math.isfinite(downtime_frac) and downtime_frac > 0):
        raise ConfigurationError(
            f"downtime_frac must be positive and finite, got {downtime_frac}"
        )
    heterogeneity = heterogeneity or Heterogeneity.HIHI
    consistency = consistency or Consistency.INCONSISTENT

    root = np.random.SeedSequence(seed)

    # One shared instance set across rates (paired in both directions).
    cases = []
    for idx in range(instances):
        etc_seed = np.random.SeedSequence(
            entropy=root.entropy, spawn_key=(stable_key("etc", str(idx)),)
        )
        etc = generate_range_based(
            num_tasks,
            num_machines,
            heterogeneity,
            consistency,
            rng=np.random.default_rng(etc_seed),
        )
        heuristic_seed = np.random.SeedSequence(
            entropy=root.entropy, spawn_key=(stable_key("heuristic", str(idx)),)
        )
        # Iteration 0 is the heuristic's original mapping: one draw makes both.
        heur = get_heuristic(heuristic, rng=heuristic_seed)
        result = IterativeScheduler(heur).run(etc)
        original, iterative = result.original.mapping, result.final_mapping()
        cases.append((etc, {"original": original, "iterative": iterative}))

    rows: list[FaultStudyRow] = []
    for rate in failure_rates:
        acc = {
            kind: {
                "base_mk": [], "real_mk": [], "mk_ratio": [],
                "base_nm": [], "real_nm": [], "nm_ratio": [],
                "failures": 0, "retries": 0, "requeues": 0, "dropped": 0,
            }
            for kind in ("original", "iterative")
        }
        for idx, (etc, mappings) in enumerate(cases):
            horizon = mappings["original"].makespan()
            mean_downtime = downtime_frac * horizon
            config = FaultConfig(
                failure_rate=rate,
                mean_downtime=mean_downtime,
                slowdown_rate=slowdown_rate,
                slowdown_factor=slowdown_factor,
                mean_slowdown=mean_downtime if slowdown_rate > 0 else 0.0,
            )
            plan_seed = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(stable_key("plan", f"{rate!r}", str(idx)),),
            )
            plan = generate_fault_plan(
                etc.machines, config, horizon, rng=np.random.default_rng(plan_seed)
            )
            for kind, mapping in mappings.items():
                baseline = mapping.machine_finish_times()
                system = FaultTolerantHCSystem(
                    etc,
                    plan,
                    policy=policy,
                    retry_budget=retry_budget,
                    backoff_base=max(0.25 * mean_downtime, 1e-9),
                    backoff_cap=4.0 * mean_downtime,
                )
                outcome = system.execute(mapping)
                realised = outcome.finish_times()
                bucket = acc[kind]
                base_mk, real_mk = max(baseline.values()), max(realised.values())
                base_nm = non_makespan_mean(baseline)
                real_nm = non_makespan_mean(realised)
                bucket["base_mk"].append(base_mk)
                bucket["real_mk"].append(real_mk)
                bucket["mk_ratio"].append(real_mk / base_mk)
                bucket["base_nm"].append(base_nm)
                bucket["real_nm"].append(real_nm)
                bucket["nm_ratio"].append(real_nm / base_nm)
                bucket["failures"] += outcome.failures
                bucket["retries"] += outcome.retries
                bucket["requeues"] += outcome.requeues
                bucket["dropped"] += len(outcome.dropped)
        for kind in ("original", "iterative"):
            bucket = acc[kind]
            rows.append(
                FaultStudyRow(
                    heuristic=heuristic,
                    mapping_kind=kind,
                    failure_rate=float(rate),
                    instances=instances,
                    fault_free_makespan=float(np.mean(bucket["base_mk"])),
                    mean_makespan=float(np.mean(bucket["real_mk"])),
                    makespan_degradation=float(np.mean(bucket["mk_ratio"])),
                    fault_free_non_makespan=float(np.mean(bucket["base_nm"])),
                    mean_non_makespan=float(np.mean(bucket["real_nm"])),
                    non_makespan_degradation=float(np.mean(bucket["nm_ratio"])),
                    failures=bucket["failures"],
                    retries=bucket["retries"],
                    requeues=bucket["requeues"],
                    dropped=bucket["dropped"],
                )
            )
    return rows


def format_fault_table(rows: Sequence[FaultStudyRow]) -> str:
    """Fixed-width report grouped by failure rate."""
    lines = []
    for rate in sorted({r.failure_rate for r in rows}):
        sel = [r for r in rows if r.failure_rate == rate]
        lines.append(f"failure rate {rate:g} /machine/time-unit:")
        lines.append(
            f"  {'mapping':<22}{'makespan':>12}{'degrade':>9}"
            f"{'non-mk mean':>13}{'degrade':>9}"
            f"{'fail':>6}{'retry':>7}{'drop':>6}"
        )
        for r in sel:
            lines.append(
                f"  {r.heuristic + '/' + r.mapping_kind:<22}"
                f"{r.mean_makespan:>12,.0f}"
                f"{r.makespan_degradation:>9.3f}"
                f"{r.mean_non_makespan:>13,.0f}"
                f"{r.non_makespan_degradation:>9.3f}"
                f"{r.failures:>6}{r.retries:>7}{r.dropped:>6}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
