"""Periodic time-series sampling (`repro-timeseries/1` JSONL).

Spans answer *where one run's time went*; the time-series answers *how
the run moved* — throughput, cache effectiveness, memory — sampled on
a wall-clock cadence while the run is still going, so a long `run-grid`
session can be watched (and later plotted) without waiting for the
final trace.

Schema ``repro-timeseries/1``, one JSON object per line:

* first line — ``{"type": "header", "schema": "repro-timeseries/1",
  "started_unix": float, "label": str}``
* then samples — ``{"type": "sample", "t_s": float, "metrics":
  {name: number}}`` with ``t_s`` seconds since the header's start
  (monotonic clock, strictly non-decreasing).

The grid sampler emits ``tasks_scheduled`` / ``tasks_per_s`` (the
ROADMAP's headline throughput trajectory), ``cells_done`` /
``cells_per_s``, ``cache_hit_rate``, ``store_published`` /
``store_reused``, ``rss_bytes`` and ``queue_depth`` (in-flight pool
work units).  Lines are appended and flushed as the run progresses, so
the file is live-tailable; :func:`read_timeseries` parses (and
validates) a finished or in-progress file.

Everything here writes to its own file only — the sampler never
touches the tracer, so enabling it cannot perturb an event stream or
a merged snapshot (same contract as the progress reporter).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = [
    "TIMESERIES_SCHEMA",
    "TimeSeriesLog",
    "read_timeseries",
    "rss_bytes",
    "TimeSeriesSampler",
    "GridSampler",
]

TIMESERIES_SCHEMA = "repro-timeseries/1"


def rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``/proc/self/statm`` where available (Linux; true current
    RSS) and falls back to ``ru_maxrss`` (peak RSS) elsewhere.  Returns
    0 when neither source works — a missing gauge, never a crash.
    """
    try:
        fields = Path("/proc/self/statm").read_text().split()
        import resource

        return int(fields[1]) * resource.getpagesize()
    except (OSError, IndexError, ValueError, ImportError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


class TimeSeriesLog:
    """Append-only writer of one ``repro-timeseries/1`` file.

    The header is written on construction; each :meth:`sample` call
    appends one flushed line, so a concurrent reader (``tail -f``, a
    plotting notebook) always sees complete records.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        label: str = "",
        clock=time.perf_counter,
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self._start = clock()
        self._last_t = 0.0
        self.samples_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        header = {
            "type": "header",
            "schema": TIMESERIES_SCHEMA,
            "started_unix": time.time(),
            "label": label,
        }
        self._write(header)

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def sample(self, metrics: dict) -> float:
        """Append one sample; returns the recorded ``t_s``."""
        t = max(self.elapsed(), self._last_t)
        self._last_t = t
        self._write({"type": "sample", "t_s": t, "metrics": dict(metrics)})
        self.samples_written += 1
        return t

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TimeSeriesLog":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def read_timeseries(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse one file back into ``(header, samples)``.

    Raises :class:`~repro.exceptions.ConfigurationError` on a missing
    header, a wrong schema, or an unknown record type — the same
    fail-loudly posture as the ledger reader.
    """
    header: dict | None = None
    samples: list[dict] = []
    for number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{number}: not valid JSON: {exc}"
            ) from exc
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "header":
            if record.get("schema") != TIMESERIES_SCHEMA:
                raise ConfigurationError(
                    f"{path}: unsupported schema {record.get('schema')!r} "
                    f"(expected {TIMESERIES_SCHEMA!r})"
                )
            header = record
        elif kind == "sample":
            if header is None:
                raise ConfigurationError(f"{path}: sample before header")
            samples.append(record)
        else:
            raise ConfigurationError(
                f"{path}:{number}: unknown record type {kind!r}"
            )
    if header is None:
        raise ConfigurationError(f"{path}: missing repro-timeseries/1 header")
    return header, samples


class TimeSeriesSampler:
    """Throttled ``repro-timeseries/1`` sampler of one run.

    Subclasses supply :meth:`metrics` (which must report
    ``tasks_scheduled`` and ``tasks_per_s``) and may add headline keys
    in :meth:`_summary_extra`.  :meth:`note` writes a sample line at
    most every ``interval_s`` seconds; :meth:`close` forces one final
    sample, so short runs still record their totals.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        label: str = "",
        interval_s: float = 0.5,
        clock=time.perf_counter,
        rss_fn=rss_bytes,
    ) -> None:
        if interval_s < 0:
            raise ConfigurationError(
                f"sample interval must be >= 0, got {interval_s}"
            )
        self.log = TimeSeriesLog(path, label=label, clock=clock)
        self.interval_s = interval_s
        self._clock = clock
        self._rss_fn = rss_fn
        self._last_sample: float | None = None
        self.tasks_scheduled = 0

    def metrics(self) -> dict:
        raise NotImplementedError

    def note(self, *, force: bool = False) -> None:
        """Write a sample unless one landed less than ``interval_s`` ago."""
        now = self._clock()
        if (
            not force
            and self._last_sample is not None
            and now - self._last_sample < self.interval_s
        ):
            return
        self._last_sample = now
        self.log.sample(self.metrics())

    def _summary_extra(self, metrics: dict) -> dict:
        return {}

    def summary(self) -> dict:
        """Headline numbers for the run ledger entry."""
        metrics = self.metrics()
        return {
            "schema": TIMESERIES_SCHEMA,
            "path": str(self.log.path),
            "samples": self.log.samples_written,
            "duration_s": self.log.elapsed(),
            "tasks_scheduled": metrics["tasks_scheduled"],
            "tasks_per_s": metrics["tasks_per_s"],
            **self._summary_extra(metrics),
        }

    def close(self) -> None:
        """Force a final sample and close the file (idempotent)."""
        if self.log._handle is not None:
            self.note(force=True)
            self.log.close()


class GridSampler(TimeSeriesSampler):
    """Throttled per-run sampler the grid runner feeds as cells finish.

    Call :meth:`note_cell` once per completed cell and
    :meth:`set_queue_depth` as pool occupancy changes.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        total_cells: int,
        tasks_per_record: int,
        **options,
    ) -> None:
        super().__init__(path, **options)
        self.total_cells = total_cells
        self.tasks_per_record = tasks_per_record
        self.cells_done = 0
        self.cells_cached = 0
        self.cells_quarantined = 0
        self.store_published = 0
        self.store_reused = 0
        self.queue_depth = 0

    def note_cell(
        self, *, records: int = 0, cached: bool = False, quarantined: bool = False
    ) -> None:
        """Account one finished cell (``records`` result rows)."""
        self.cells_done += 1
        if cached:
            self.cells_cached += 1
        if quarantined:
            self.cells_quarantined += 1
        self.tasks_scheduled += records * self.tasks_per_record
        self.note()

    def note_store(self, *, published: int = 0, reused: int = 0) -> None:
        self.store_published += published
        self.store_reused += reused
        self.note()

    def set_queue_depth(self, depth: int) -> None:
        self.queue_depth = depth
        self.note()

    def metrics(self) -> dict:
        elapsed = self.log.elapsed()
        rate = 1.0 / elapsed if elapsed > 0 else 0.0
        return {
            "tasks_scheduled": self.tasks_scheduled,
            "tasks_per_s": self.tasks_scheduled * rate,
            "cells_done": self.cells_done,
            "cells_total": self.total_cells,
            "cells_per_s": self.cells_done * rate,
            "cache_hit_rate": (
                self.cells_cached / self.cells_done if self.cells_done else 0.0
            ),
            "store_published": self.store_published,
            "store_reused": self.store_reused,
            "rss_bytes": self._rss_fn(),
            "queue_depth": self.queue_depth,
        }

    def _summary_extra(self, metrics: dict) -> dict:
        return {
            "cells_per_s": metrics["cells_per_s"],
            "cache_hit_rate": metrics["cache_hit_rate"],
        }
