"""Append-only run ledger: longitudinal records of experiment runs.

The paper's claims are statistical, so a trustworthy reproduction needs
*longitudinal* evidence — how makespan and non-makespan completion-time
metrics move across runs, commits and machines — not just the in-process
trace of one run.  The ledger is the durable half of ``repro.obs``:
every ``repro bench`` / ``study`` / ``compare`` / ``export`` / ``report``
invocation (under ``--append-ledger``) appends one fingerprinted JSONL
record to ``.repro/ledger.jsonl``.

Schema ``repro-ledger/1`` — one JSON object per line:

* ``schema`` — ``"repro-ledger/1"``;
* ``run_id`` — 12 hex chars, content hash of the record (stable:
  re-serialising a record re-derives the same id);
* ``command`` — the subcommand that produced the record;
* ``timestamp`` — ISO-8601 UTC wall-clock time;
* ``duration_s`` — wall-clock runtime of the command body;
* ``seed`` — the master RNG seed (``None`` for unseeded commands);
* ``fingerprint`` — git SHA (``None`` outside a repo), package
  version, python/numpy versions, platform and machine;
* ``config`` / ``config_hash`` — the JSON-able invocation config and
  the SHA-256 of its canonical serialisation;
* ``metrics`` — flat ``{name: number}`` headline metrics (makespan
  means, non-makespan completion-time deltas, bench timings …);
* ``counters`` — obs counter totals, when a tracer was active;
* ``extra`` — command-specific payloads (e.g. the full
  ``repro-bench/1`` report under ``extra["bench_report"]``).

Append-only by construction: :meth:`RunLedger.append` opens the file in
``"a"`` mode and writes exactly one line; nothing in this module ever
rewrites or truncates an existing ledger.

:class:`EntryStore` is the durable store of the two caches keyed by
:func:`config_hash` digests, the runner's cell cache and the service's
response cache: one atomically written ``<key>.json`` per key.
:func:`write_json_atomic` is the one atomic write behind those entries
and the ETC store's manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "RunLedger",
    "fingerprint",
    "config_hash",
    "write_json_atomic",
    "EntryStore",
    "build_record",
    "headline_metrics",
    "format_record_line",
    "summarize_records",
    "diff_records",
    "is_lower_better",
    "collect_counters",
    "histogram_summaries",
    "follow_records",
]

#: Ledger format identifier; bump when the record layout changes.
LEDGER_SCHEMA = "repro-ledger/1"

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_PATH = ".repro/ledger.jsonl"


def _git_sha() -> str | None:
    """HEAD commit SHA, or ``None`` when git/repo is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def fingerprint() -> dict:
    """Environment fingerprint embedded in every ledger record."""
    import numpy as np

    from repro import __version__

    return {
        "git_sha": _git_sha(),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def config_hash(config) -> str:
    """SHA-256 hex digest of a config's canonical JSON serialisation."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json_atomic(path: Path, payload: dict, *, fsync: bool = False) -> Path:
    """Atomically write ``payload`` to ``path`` as one canonical JSON line.

    The line goes to a temp file in ``path``'s directory that
    ``os.replace`` then renames over ``path``, so a killed writer never
    leaves a torn file.  ``fsync=True`` also makes the data durable
    before the rename.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class EntryStore:
    """Content-addressed ``<key>.json`` entries under one directory.

    The persistence layer of the runner's cell cache and the service's
    response cache, whose keys are :func:`config_hash` digests.  Writes
    are atomic (temp file + ``os.replace`` in the same directory), so a
    killed writer never leaves a torn entry and concurrent writers of
    one key race benignly: the key addresses the content, so the last
    replace wins with an identical payload.  A read fails loudly on
    anything but a JSON object of this store's :attr:`schema` for the
    requested key that carries the :attr:`body` field.
    """

    #: The store's name in error messages.
    name = "entry store"
    #: Entry format identifier, carried by every entry as ``schema``.
    schema = ""
    #: The field every entry of this store must carry.
    body = ""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _write(self, path: Path, payload: dict) -> Path:
        """Atomically write ``payload`` as one canonical JSON line.

        No ``fsync``: entries hold recomputable results, and a flush
        would add to every cache miss's latency.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        return write_json_atomic(path, payload)

    def _read(self, key: str) -> dict | None:
        """The checked entry for ``key``, or ``None`` when there is none."""
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise ConfigurationError(
                f"unreadable {self.name} entry {path} ({exc}); "
                "delete it to recompute"
            ) from None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.schema
            or payload.get("key") != key
            or self.body not in payload
        ):
            raise ConfigurationError(
                f"{path}: not a {self.schema} {self.name} entry for key "
                f"{key[:12]}…; delete it to recompute"
            )
        return payload

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.root)!r})"


def _derive_run_id(record: dict) -> str:
    """Content hash (12 hex chars) over everything except ``run_id``."""
    body = {k: v for k, v in record.items() if k != "run_id"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def build_record(
    command: str,
    *,
    seed: int | None = None,
    config: dict | None = None,
    metrics: dict | None = None,
    counters: dict | None = None,
    duration_s: float | None = None,
    extra: dict | None = None,
    timestamp: str | None = None,
) -> dict:
    """Assemble one ``repro-ledger/1`` record (with derived ``run_id``).

    ``metrics`` must be a flat name → number mapping; ``config`` any
    JSON-able dict.  ``timestamp`` is injectable for tests; it defaults
    to the current UTC time.
    """
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    config = dict(config or {})
    record = {
        "schema": LEDGER_SCHEMA,
        "command": command,
        "timestamp": timestamp,
        "duration_s": duration_s,
        "seed": seed,
        "fingerprint": fingerprint(),
        "config": config,
        "config_hash": config_hash(config),
        "metrics": dict(metrics or {}),
        "counters": dict(counters or {}),
        "extra": dict(extra or {}),
    }
    record["run_id"] = _derive_run_id(record)
    return record


class RunLedger:
    """One append-only JSONL ledger file.

    The file (and its parent directory) is created lazily on the first
    append; reading a missing ledger returns an empty list rather than
    raising, so ``repro obs summary`` degrades gracefully on a fresh
    checkout.
    """

    def __init__(self, path: str | Path = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.is_file()

    def append(self, record: dict) -> dict:
        """Write one record as a single JSONL line; returns the record.

        Records missing ``schema``/``run_id`` (i.e. not built by
        :func:`build_record`) are rejected instead of silently writing
        unreadable lines.
        """
        if record.get("schema") != LEDGER_SCHEMA:
            raise ConfigurationError(
                f"refusing to append non-{LEDGER_SCHEMA} record "
                f"(schema={record.get('schema')!r})"
            )
        if not record.get("run_id"):
            raise ConfigurationError("record has no run_id; use build_record()")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def read(self) -> list[dict]:
        """All records in append order (empty when the file is absent).

        Unparseable or wrong-schema lines raise: a corrupt ledger should
        fail loudly, not silently drop history.
        """
        if not self.path.is_file():
            return []
        records = []
        for lineno, line in enumerate(
            self.path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: unparseable ledger line ({exc})"
                ) from None
            schema = record.get("schema") if isinstance(record, dict) else None
            if schema != LEDGER_SCHEMA:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: not a {LEDGER_SCHEMA} record "
                    f"(schema={schema!r})"
                )
            records.append(record)
        return records

    def tail(self, n: int = 10) -> list[dict]:
        """The last ``n`` records in append order."""
        if n < 1:
            raise ConfigurationError(f"tail count must be >= 1, got {n}")
        return self.read()[-n:]

    def find(self, ref: str) -> dict:
        """Resolve one record by reference.

        ``ref`` is either a ``run_id`` prefix (at least 4 hex chars) or
        a negative index like ``-1`` (the most recent record) / ``-2``.
        Ambiguous prefixes and missing records raise.
        """
        records = self.read()
        if not records:
            raise ConfigurationError(f"ledger {self.path} is empty")
        if ref.lstrip("-").isdigit() and ref.startswith("-"):
            index = int(ref)
            if not -len(records) <= index <= -1:
                raise ConfigurationError(
                    f"index {ref} out of range; ledger has {len(records)} records"
                )
            return records[index]
        if len(ref) < 4:
            raise ConfigurationError(
                f"run_id prefix {ref!r} too short (need >= 4 characters)"
            )
        matches = [r for r in records if r["run_id"].startswith(ref)]
        if not matches:
            raise ConfigurationError(f"no ledger record matches {ref!r}")
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            raise ConfigurationError(
                f"run_id prefix {ref!r} is ambiguous: {sorted(distinct)}"
            )
        return matches[-1]

    def __len__(self) -> int:
        return len(self.read())

    def __iter__(self):
        return iter(self.read())

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r})"


def headline_metrics(record: dict) -> dict[str, float]:
    """The flat numeric metrics of one record (non-numeric filtered)."""
    return {
        name: value
        for name, value in record.get("metrics", {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def format_record_line(record: dict) -> str:
    """One-line rendering for ``repro obs tail``."""
    fp = record.get("fingerprint", {})
    sha = (fp.get("git_sha") or "-")[:8]
    metrics = headline_metrics(record)
    shown = ", ".join(
        f"{name}={value:.6g}" for name, value in sorted(metrics.items())[:3]
    )
    more = f" (+{len(metrics) - 3} more)" if len(metrics) > 3 else ""
    duration = record.get("duration_s")
    dur = f"{duration:.2f}s" if isinstance(duration, (int, float)) else "-"
    return (
        f"{record['run_id']}  {record['timestamp'][:19]}  "
        f"{record['command']:<8} git={sha:<8} seed={record.get('seed')!s:<5} "
        f"{dur:>8}  {shown}{more}"
    )


def summarize_records(records: Sequence[dict]) -> str:
    """Multi-line summary for ``repro obs summary``.

    Groups records by command, and for each metric seen in the latest
    record of a command shows first/last values across that command's
    history — the longitudinal trend at a glance.
    """
    if not records:
        return "ledger is empty (run e.g. `repro bench --append-ledger`)"
    lines = [
        f"{len(records)} ledger record(s), "
        f"{records[0]['timestamp'][:19]} .. {records[-1]['timestamp'][:19]}"
    ]
    commands = sorted({r["command"] for r in records})
    for command in commands:
        sel = [r for r in records if r["command"] == command]
        lines.append("")
        lines.append(f"{command}: {len(sel)} run(s)")
        latest = headline_metrics(sel[-1])
        for name in sorted(latest):
            series = [
                headline_metrics(r)[name] for r in sel if name in headline_metrics(r)
            ]
            first, last = series[0], series[-1]
            if len(series) == 1:
                trend = ""
            elif first:
                trend = f"  ({(last - first) / abs(first):+.1%} vs first)"
            else:
                trend = f"  (first {first:.6g})"
            lines.append(f"  {name:<44} {last:>14.6g}{trend}")
    return "\n".join(lines)


#: Metric-name fragments that mark a metric as higher-is-better; all
#: other metrics are treated as lower-is-better (makespans, completion
#: times, rates of bad outcomes, wall-clock ``*_s`` timings).
_HIGHER_BETTER = ("speedup", "improved", "improvement")


def is_lower_better(name: str) -> bool:
    """Regression direction for one metric name (see module docs)."""
    return not any(fragment in name for fragment in _HIGHER_BETTER)


def diff_records(
    a: dict,
    b: dict,
    *,
    tolerance: float = 0.05,
) -> tuple[list[str], list[str]]:
    """Compare the metrics of two ledger records (``a`` → ``b``).

    Returns ``(lines, regressions)``: a rendered delta table over the
    shared metrics, and the subset of makespan-style (lower-is-better)
    metrics that got worse by more than ``tolerance`` (relative).
    Higher-is-better metrics (speedups, improvement rates) regress by
    *dropping* beyond tolerance instead.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    metrics_a = headline_metrics(a)
    metrics_b = headline_metrics(b)
    shared = sorted(set(metrics_a) & set(metrics_b))
    lines = [
        f"diff {a['run_id']} ({a['timestamp'][:19]}) -> "
        f"{b['run_id']} ({b['timestamp'][:19]})  [{a['command']}]",
        f"{'metric':<44} {'a':>14} {'b':>14} {'delta':>10}",
    ]
    if a.get("command") != b.get("command"):
        lines.insert(
            1,
            f"note: comparing different commands "
            f"({a.get('command')} vs {b.get('command')})",
        )
    regressions: list[str] = []
    for name in shared:
        va, vb = metrics_a[name], metrics_b[name]
        if va:
            rel = (vb - va) / abs(va)
            delta = f"{rel:+.1%}"
        else:
            rel = 0.0 if vb == va else float("inf")
            delta = f"{vb - va:+.6g}"
        worse = rel > tolerance if is_lower_better(name) else rel < -tolerance
        marker = "  REGRESSION" if worse else ""
        lines.append(f"{name:<44} {va:>14.6g} {vb:>14.6g} {delta:>10}{marker}")
        if worse:
            regressions.append(
                f"{name}: {va:.6g} -> {vb:.6g} ({delta}, tolerance "
                f"{tolerance:.0%}, {'lower' if is_lower_better(name) else 'higher'}"
                f"-is-better)"
            )
    only_a = sorted(set(metrics_a) - set(metrics_b))
    only_b = sorted(set(metrics_b) - set(metrics_a))
    if only_a:
        lines.append(f"only in {a['run_id']}: {', '.join(only_a)}")
    if only_b:
        lines.append(f"only in {b['run_id']}: {', '.join(only_b)}")
    return lines, regressions


def histogram_summaries(histograms) -> dict[str, dict[str, float]]:
    """Flatten tracer histograms for a ledger record's ``extra``.

    Takes the ``{name: HistogramStat}`` mapping of an
    :class:`~repro.obs.tracer.ObsSnapshot` and keeps only the JSON-able
    aggregate (count / sum / mean / min / max plus the bucket-estimated
    p50 / p95) per histogram — bucket vectors stay in trace exports,
    the ledger records the headline shape.  Empty histograms (count 0)
    are dropped.
    """
    summaries: dict[str, dict[str, float]] = {}
    for name in sorted(histograms):
        stat = histograms[name]
        if stat.count == 0:
            continue
        summaries[name] = {
            "count": stat.count,
            "sum": stat.sum,
            "mean": stat.sum / stat.count,
            "min": stat.min,
            "max": stat.max,
            "p50": stat.quantile(0.5),
            "p95": stat.quantile(0.95),
        }
    return summaries


def collect_counters(records: Iterable[dict]) -> dict[str, int]:
    """Summed obs counter totals across records (for ``obs summary``)."""
    totals: dict[str, int] = {}
    for record in records:
        for name, value in record.get("counters", {}).items():
            if isinstance(value, int):
                totals[name] = totals.get(name, 0) + value
    return totals


def follow_records(
    ledger: RunLedger,
    emit,
    *,
    interval_s: float = 2.0,
    max_polls: int | None = None,
    sleep=time.sleep,
) -> int:
    """Poll ``ledger`` and call ``emit(record)`` for every new record.

    The poll loop behind ``repro obs tail --follow``: it remembers how
    many records it has seen and, every ``interval_s`` seconds, emits
    exactly the records appended since — a missing ledger file simply
    means "nothing yet", so following can start before the first run
    lands.  Runs until interrupted, or for ``max_polls`` polls when
    given (the testable bound); returns the number of records emitted.
    """
    if interval_s <= 0:
        raise ConfigurationError(
            f"follow interval must be > 0, got {interval_s}"
        )
    if max_polls is not None and max_polls < 1:
        raise ConfigurationError(f"max_polls must be >= 1, got {max_polls}")
    seen = 0
    emitted = 0
    polls = 0
    while True:
        records = ledger.read() if ledger.exists() else []
        for record in records[seen:]:
            emit(record)
            emitted += 1
        seen = len(records)
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return emitted
        sleep(interval_s)
