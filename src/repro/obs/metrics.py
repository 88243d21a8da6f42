"""Monotonic counters and fixed-bucket histograms.

Both containers are plain-dict wrappers designed for the observability
pipeline's two constraints:

* **merge determinism** — worker processes return snapshots that the
  parent merges; counter and histogram merges are commutative sums, so
  the merged totals are independent of worker scheduling (the event
  *stream* is kept deterministic separately, by merging in cell order);
* **zero dependencies** — stdlib only.

Durations are not a metric kind: they live in the tracer's spans
(:mod:`repro.obs.spans`), which keep the nesting that per-layer self
time needs, and in histograms whose names end in ``_s``.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Mapping as MappingABC
from dataclasses import dataclass

__all__ = [
    "Counters",
    "HistogramStat",
    "Histograms",
    "DEFAULT_BUCKETS",
    "TIME_BUCKETS",
    "BYTE_BUCKETS",
]

#: Default histogram bucket upper bounds, tuned for small integer
#: distributions (tie-candidate counts, freeze depths, subset sizes).
#: Values land in the first bucket whose bound is >= the value; one
#: implicit overflow bucket catches everything beyond the last bound.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128,
)

#: Bucket bounds for wall-clock durations in seconds (10us .. 100s,
#: roughly half-decade steps).  By convention histogram *names* carrying
#: wall-clock values end in ``_s``; deterministic-merge assertions treat
#: them structurally (total counts) rather than byte-identically, since
#: timings differ across runs.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: Bucket bounds for payload sizes in bytes (64 B .. 4 GiB, powers of
#: four).  Used by the transport counters (``runner.ipc.*`` descriptor
#: sizes, ``store.*`` entry sizes) so the histogram shows at a glance
#: whether a run is shipping descriptors or payloads.
BYTE_BUCKETS: tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
    4194304, 16777216, 67108864, 268435456, 1073741824, 4294967296,
)


class Counters:
    """Named monotonic integer counters.

    Counters only ever increase (``inc`` rejects negative increments),
    so any merged total can be trusted as an event count.
    """

    __slots__ = ("_values",)

    def __init__(self, values: MappingABC[str, int] | None = None) -> None:
        self._values: dict[str, int] = {}
        if values is not None:
            for name, value in values.items():
                self.inc(name, value)

    def inc(self, name: str, n: int = 1) -> int:
        """Add ``n >= 0`` to ``name`` (created at 0); returns the new total."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        total = self._values.get(name, 0) + n
        self._values[name] = total
        return total

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._values.get(name, 0)

    def total(self, prefix: str = "") -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(v for k, v in self._values.items() if k.startswith(prefix))

    def merge(self, other: "Counters | MappingABC[str, int]") -> None:
        """Add another counter set (or plain dict) into this one."""
        items = other._values if isinstance(other, Counters) else other
        for name, value in items.items():
            self.inc(name, value)

    def as_dict(self) -> dict[str, int]:
        """Name -> value, in sorted-name order (deterministic export)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counters):
            return self._values == other._values
        if isinstance(other, MappingABC):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


@dataclass(frozen=True)
class HistogramStat:
    """Fixed-bucket histogram of one named distribution.

    ``buckets`` are sorted upper bounds; ``counts`` has one entry per
    bucket plus a trailing overflow bucket (``len(buckets) + 1``).  A
    value lands in the first bucket whose bound is ``>= value``.
    Merging requires identical bucket bounds, which keeps worker-merge
    results independent of how observations were partitioned — the same
    commutative-sum argument as :class:`Counters`.
    """

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @classmethod
    def empty(cls, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> "HistogramStat":
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        return cls(buckets=bounds, counts=(0,) * (len(bounds) + 1))

    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.buckets, value)

    def observe(self, value: float) -> "HistogramStat":
        """Stat with one more observation folded in."""
        acc = _HistogramAccumulator(self)
        acc.observe(value)
        return acc.freeze()

    def combine(self, other: "HistogramStat") -> "HistogramStat":
        acc = _HistogramAccumulator(self)
        acc.combine(other)
        return acc.freeze()

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the bucket counts.

        Walks the cumulative counts to the bucket holding the target
        rank and interpolates linearly within it; the estimate is
        clamped to the observed ``[min, max]`` so it never invents
        values outside the data, and the overflow bucket resolves to
        ``max``.  Returns ``0.0`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):  # overflow bucket
                    return self.max
                hi = self.buckets[index]
                lo = self.buckets[index - 1] if index else min(self.min, hi)
                fraction = (rank - previous) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max


class _HistogramAccumulator:
    """Mutable running form of one :class:`HistogramStat`.

    The one home of the histogram arithmetic: :class:`Histograms` folds
    observations in place (no per-call stat or counts tuple), and the
    immutable :meth:`HistogramStat.observe`/:meth:`HistogramStat.combine`
    go through it too, so both fold in the same order.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, stat: HistogramStat) -> None:
        self.buckets = stat.buckets
        self.counts = list(stat.counts)
        self.count = stat.count
        self.sum = stat.sum
        self.min = stat.min
        self.max = stat.max

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum = self.sum + value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def combine(self, other: HistogramStat) -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count = self.count + other.count
        self.sum = self.sum + other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def freeze(self) -> HistogramStat:
        return HistogramStat(
            buckets=self.buckets,
            counts=tuple(self.counts),
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )


class Histograms:
    """Named fixed-bucket histograms (merge-deterministic).

    Observations fold into mutable per-name accumulators; the immutable
    :class:`HistogramStat` is built when read.
    """

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        self._acc: dict[str, _HistogramAccumulator] = {}

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Fold one value into ``name``.

        Bucket bounds are fixed by the *first* observation of a name
        (``DEFAULT_BUCKETS`` unless given); later ``buckets`` arguments
        for the same name are ignored, so concurrent instrumentation
        sites cannot disagree about a histogram's shape mid-run.
        """
        acc = self._acc.get(name)
        if acc is None:
            acc = self._acc[name] = _HistogramAccumulator(
                HistogramStat.empty(buckets if buckets is not None else DEFAULT_BUCKETS)
            )
        acc.observe(value)

    def get(self, name: str) -> HistogramStat | None:
        acc = self._acc.get(name)
        return None if acc is None else acc.freeze()

    def merge(self, other: "Histograms | MappingABC[str, HistogramStat]") -> None:
        items = other.as_dict() if isinstance(other, Histograms) else other
        for name, stat in items.items():
            mine = self._acc.get(name)
            if mine is None:
                self._acc[name] = _HistogramAccumulator(stat)
            else:
                mine.combine(stat)

    def as_dict(self) -> dict[str, HistogramStat]:
        return {name: self._acc[name].freeze() for name in sorted(self._acc)}

    def __len__(self) -> int:
        return len(self._acc)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._acc))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histograms):
            return self.as_dict() == other.as_dict()
        if isinstance(other, MappingABC):
            return self.as_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Histograms({self.as_dict()!r})"

