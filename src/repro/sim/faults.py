"""Seeded fault injection for the HC simulator.

The paper's argument — freeing non-makespan machines early so they can
absorb subsequent work — only has teeth in an environment where
machines drop out, slow down, and come back.  This module generates
that environment as *data*: a :class:`FaultPlan` is a fully
materialised, seeded, immutable timeline of machine failure/recovery
and ETC-perturbation (slowdown) events, generated once up front and
then replayed by :class:`~repro.sim.hcsystem.FaultTolerantHCSystem`.

Determinism is the design constraint everything here serves: the plan
is drawn machine-by-machine in input order from one
``numpy.random.Generator``, so the same seed yields a byte-identical
event timeline (asserted via :meth:`FaultPlan.signature`), which in
turn makes every fault-injected simulation run — event trace, counters,
ledger metrics — reproducible.

Fault model
-----------
Each machine alternates between *up* and *down* states: up durations
are exponential with rate ``failure_rate``, down (repair) durations are
exponential with mean ``mean_downtime``.  Every failure always gets a
matching recovery event, even past the horizon, so no machine stays
down forever.  Independently, machines suffer transient *slowdowns*
(onsets exponential with rate ``slowdown_rate``, durations exponential
with mean ``mean_slowdown``) during which every task **started** on the
machine takes ``slowdown_factor`` times its ETC estimate — the
multiplicative ETC-perturbation model of the robustness literature
(see :mod:`repro.analysis.robustness`).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultEvent",
    "FaultPlan",
    "generate_fault_plan",
]

#: Event kinds a plan may contain, in their per-pair emission order.
FAULT_KINDS = ("fail", "recover", "slow", "restore")


@dataclass(frozen=True)
class FaultConfig:
    """Rates and magnitudes of the injected fault processes.

    ``failure_rate`` and ``slowdown_rate`` are per-machine Poisson rates
    (events per simulated time unit); a rate of 0 disables that process.
    """

    failure_rate: float = 0.0
    mean_downtime: float = 0.0
    slowdown_rate: float = 0.0
    slowdown_factor: float = 2.0
    mean_slowdown: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "failure_rate",
            "mean_downtime",
            "slowdown_rate",
            "slowdown_factor",
            "mean_slowdown",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if self.failure_rate < 0 or self.slowdown_rate < 0:
            raise ConfigurationError(
                f"fault rates must be >= 0, got failure_rate={self.failure_rate}, "
                f"slowdown_rate={self.slowdown_rate}"
            )
        if self.failure_rate > 0 and self.mean_downtime <= 0:
            raise ConfigurationError(
                f"mean_downtime must be positive when failures are enabled, "
                f"got {self.mean_downtime}"
            )
        if self.slowdown_rate > 0:
            if self.mean_slowdown <= 0:
                raise ConfigurationError(
                    f"mean_slowdown must be positive when slowdowns are "
                    f"enabled, got {self.mean_slowdown}"
                )
            if self.slowdown_factor <= 1.0:
                raise ConfigurationError(
                    f"slowdown_factor must exceed 1, got {self.slowdown_factor}"
                )

    @property
    def enabled(self) -> bool:
        return self.failure_rate > 0 or self.slowdown_rate > 0


@dataclass(frozen=True)
class FaultEvent:
    """One injected event: a ``kind`` from :data:`FAULT_KINDS` hitting
    ``machine`` at ``time``; ``factor`` is the ETC multiplier carried by
    ``slow`` events (1.0 for every other kind)."""

    time: float
    kind: str
    machine: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        # NaN fails both range checks.
        if not 0 <= self.time < math.inf:
            raise ConfigurationError(f"invalid fault time {self.time!r}")
        if not 0 < self.factor < math.inf:
            raise ConfigurationError(
                f"fault factor must be positive and finite, got {self.factor}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault timeline over a machine set."""

    machines: tuple[str, ...]
    horizon: float
    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        known = set(self.machines)
        for event in self.events:
            if event.machine not in known:
                raise ConfigurationError(
                    f"fault event targets unknown machine {event.machine!r}"
                )

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def num_failures(self) -> int:
        return sum(1 for e in self.events if e.kind == "fail")

    @property
    def num_slowdowns(self) -> int:
        return sum(1 for e in self.events if e.kind == "slow")

    def events_for(self, machine: str) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.machine == machine)

    def signature(self) -> str:
        """SHA-256 over the canonical event timeline.

        Two plans with the same signature are byte-identical; the ledger
        records this so fault runs can be audited for determinism.
        """
        payload = "\n".join(
            f"{e.time!r}|{e.kind}|{e.machine}|{e.factor!r}" for e in self.events
        )
        head = f"{self.machines!r}|{self.horizon!r}\n"
        return hashlib.sha256((head + payload).encode("utf-8")).hexdigest()


def _alternating_times(
    gen: np.random.Generator,
    horizon: float,
    onset_rate: float,
    mean_duration: float,
) -> list[tuple[float, float]]:
    """(onset, end) pairs of an alternating renewal process on [0, horizon).

    Onsets beyond the horizon are discarded; the *end* of an episode
    that started inside the horizon is always kept, so every episode
    terminates (a failure is never left unrepaired).
    """
    episodes: list[tuple[float, float]] = []
    t = float(gen.exponential(1.0 / onset_rate))
    while t < horizon:
        duration = float(gen.exponential(mean_duration))
        episodes.append((t, t + duration))
        t = t + duration + float(gen.exponential(1.0 / onset_rate))
    return episodes


def generate_fault_plan(
    machines: Sequence[str],
    config: FaultConfig,
    horizon: float,
    rng: np.random.Generator | int | None = None,
) -> FaultPlan:
    """Draw one seeded :class:`FaultPlan` over ``machines``.

    Machines are processed in input order and each process draws a fixed
    sequence of exponentials, so a given ``(machines, config, horizon,
    seed)`` tuple always produces the identical plan.
    """
    machines = tuple(machines)
    if not machines:
        raise ConfigurationError("fault plan needs at least one machine")
    if len(set(machines)) != len(machines):
        raise ConfigurationError(f"duplicate machines in fault plan: {machines!r}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    events: list[FaultEvent] = []
    for machine in machines:
        if config.failure_rate > 0:
            for start, end in _alternating_times(
                gen, horizon, config.failure_rate, config.mean_downtime
            ):
                events.append(FaultEvent(start, "fail", machine))
                events.append(FaultEvent(end, "recover", machine))
        if config.slowdown_rate > 0:
            for start, end in _alternating_times(
                gen, horizon, config.slowdown_rate, config.mean_slowdown
            ):
                events.append(
                    FaultEvent(start, "slow", machine, factor=config.slowdown_factor)
                )
                events.append(FaultEvent(end, "restore", machine))

    order = {m: i for i, m in enumerate(machines)}
    kind_order = {k: i for i, k in enumerate(FAULT_KINDS)}
    events.sort(key=lambda e: (e.time, order[e.machine], kind_order[e.kind]))
    return FaultPlan(machines=machines, horizon=float(horizon), events=tuple(events))
