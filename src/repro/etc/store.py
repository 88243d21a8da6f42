"""Memory-mapped, content-addressed on-disk store of ETC instances.

The experiment grid's natural unit of input is a *stack* of same-shape
ETC instances per cell (see :class:`~repro.etc.batch.ETCBatch`).  Up to
now every consumer materialised those stacks in RAM and every process
boundary re-pickled them; :class:`ETCStore` replaces both with a shared
on-disk substrate:

* **Append-only binary layout.**  One ``data.bin`` file per store holds
  the raw C-order float64 bytes of every committed entry, one entry
  after another; a ``manifest.json`` sidecar records, per entry, the
  byte offset, instance count, shape, labels and a SHA-256 digest of
  the payload.  Nothing is ever rewritten in place — a crashed writer
  leaves at most orphan bytes past the last committed entry, which the
  next writer simply appends after.
* **Content-addressed entries.**  Entries are keyed by caller-chosen
  strings — the grid runner uses the run ledger's SHA-256 *config hash*
  of the cell (:func:`repro.analysis.runner.cell_key`), so the same
  cell in any grid maps to the same entry — and each entry additionally
  records the digest of its own bytes for integrity audits
  (:meth:`ETCStore.verify`).
* **Zero-copy views.**  Readers get :class:`~repro.etc.batch.ETCBatch`
  / :class:`~repro.etc.matrix.ETCMatrix` objects backed by
  ``numpy.memmap`` windows of ``data.bin`` through the trusted
  constructors — no validation re-scan, no copy, resident memory
  bounded by the pages a consumer actually touches.  This is the
  transport the parallel runner's workers attach to by ``(root, key)``
  descriptor instead of receiving pickled matrices.
* **Bounded-memory writes.**  :class:`ETCStoreWriter` accepts instance
  chunks of any size, so :func:`repro.etc.generation.stream_ensemble`
  can fill a store window by window — grid size is limited by disk,
  not RAM.
* **Single-writer locking.**  Writers hold an exclusive ``store.lock``
  (pid-stamped ``O_EXCL`` file) for the duration of a commit; locks
  left behind by dead processes are detected and stolen.  Readers
  never lock.

The store itself emits no observability — callers (the runner) count
``store.*`` on their own tracer — so worker-side reads cannot perturb
the byte-identity of traced cell snapshots.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.etc.batch import ETCBatch
from repro.etc.matrix import (
    ETCMatrix,
    default_machine_labels,
    default_task_labels,
)
from repro.exceptions import ETCShapeError, ETCStoreError, ETCValueError
from repro.obs.ledger import write_json_atomic

__all__ = [
    "STORE_SCHEMA",
    "MANIFEST_NAME",
    "DATA_NAME",
    "LOCK_NAME",
    "StoreEntry",
    "ETCStoreWriter",
    "ETCStore",
]

#: Manifest format identifier; bump when the layout changes.
STORE_SCHEMA = "repro-etc-store/1"

MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"
LOCK_NAME = "store.lock"

#: Seconds a writer waits for a live competitor's lock before failing.
DEFAULT_LOCK_TIMEOUT_S = 10.0

_DTYPE = np.dtype(np.float64)


@dataclass(frozen=True)
class StoreEntry:
    """One committed entry: ``count`` stacked ``(num_tasks, num_machines)``
    instances starting at byte ``offset`` of ``data.bin``."""

    key: str
    offset: int
    count: int
    num_tasks: int
    num_machines: int
    sha256: str
    #: ``None`` means the default ``t0..`` / ``m0..`` labels.
    tasks: tuple[str, ...] | None = None
    machines: tuple[str, ...] | None = None

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.count, self.num_tasks, self.num_machines)

    @property
    def nbytes(self) -> int:
        return self.count * self.num_tasks * self.num_machines * _DTYPE.itemsize

    def task_labels(self) -> tuple[str, ...]:
        return self.tasks if self.tasks is not None else default_task_labels(
            self.num_tasks
        )

    def machine_labels(self) -> tuple[str, ...]:
        return (
            self.machines
            if self.machines is not None
            else default_machine_labels(self.num_machines)
        )

    def to_dict(self) -> dict:
        payload = {
            "offset": self.offset,
            "count": self.count,
            "num_tasks": self.num_tasks,
            "num_machines": self.num_machines,
            "sha256": self.sha256,
        }
        if self.tasks is not None:
            payload["tasks"] = list(self.tasks)
        if self.machines is not None:
            payload["machines"] = list(self.machines)
        return payload

    @classmethod
    def from_dict(cls, key: str, payload: dict) -> "StoreEntry":
        tasks = payload.get("tasks")
        machines = payload.get("machines")
        return cls(
            key=key,
            offset=int(payload["offset"]),
            count=int(payload["count"]),
            num_tasks=int(payload["num_tasks"]),
            num_machines=int(payload["num_machines"]),
            sha256=str(payload["sha256"]),
            tasks=None if tasks is None else tuple(str(t) for t in tasks),
            machines=None if machines is None else tuple(str(m) for m in machines),
        )


class _StoreLock:
    """Pid-stamped exclusive lock file with stale-lock stealing.

    ``O_CREAT | O_EXCL`` is atomic on every filesystem we care about; a
    holder that died without unlinking is detected by probing its pid
    (``os.kill(pid, 0)``) and the lock is stolen.  Purely advisory —
    only :class:`ETCStoreWriter` takes it, readers never do.
    """

    def __init__(self, path: Path, timeout_s: float = DEFAULT_LOCK_TIMEOUT_S) -> None:
        self.path = path
        self.timeout_s = timeout_s
        self._held = False

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except OSError as exc:
            return exc.errno == errno.EPERM
        return True

    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    holder = int(self.path.read_text(encoding="utf-8").strip() or 0)
                except (OSError, ValueError):
                    holder = 0
                if holder and not self._pid_alive(holder):
                    # Stale lock from a dead writer: steal it and retry
                    # the atomic create (another process may be racing
                    # for the same steal, hence the loop).
                    try:
                        self.path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    raise ETCStoreError(
                        f"store lock {self.path} held by live pid {holder or '?'} "
                        f"for over {self.timeout_s:g}s"
                    ) from None
                time.sleep(0.05)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            self._held = True
            return

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "_StoreLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.release()
        return False


class ETCStoreWriter:
    """Append one entry's instances in bounded-memory chunks.

    Obtained from :meth:`ETCStore.writer`; used as a context manager::

        with store.writer(key, num_tasks, num_machines) as writer:
            for chunk in stream_ensemble(...):   # (B, T, M) windows
                writer.append(chunk)

    Bytes go straight to ``data.bin`` as they arrive (the running
    SHA-256 is folded chunk by chunk), so peak memory is one chunk.
    The manifest entry is committed only on a clean ``__exit__`` —
    an abandoned writer (exception, kill) leaves the manifest
    untouched, releases the lock, and its partial bytes become
    harmless orphans that the next append simply writes after.
    """

    def __init__(
        self,
        store: "ETCStore",
        key: str,
        num_tasks: int,
        num_machines: int,
        tasks: Sequence[str] | None,
        machines: Sequence[str] | None,
        lock_timeout_s: float,
    ) -> None:
        self._store = store
        self._key = key
        self._num_tasks = num_tasks
        self._num_machines = num_machines
        self._tasks = None if tasks is None else tuple(str(t) for t in tasks)
        self._machines = (
            None if machines is None else tuple(str(m) for m in machines)
        )
        self._lock = _StoreLock(store.root / LOCK_NAME, lock_timeout_s)
        self._handle = None
        self._offset = 0
        self._count = 0
        self._digest = hashlib.sha256()
        self._closed = False

    def __enter__(self) -> "ETCStoreWriter":
        self._lock.acquire()
        try:
            if self._key in self._store:
                raise ETCStoreError(
                    f"entry {self._key[:16]!r} already committed in "
                    f"{self._store.root}"
                )
            self._handle = open(self._store.data_path, "ab")
            self._offset = self._handle.tell()
        except BaseException:
            self._abort()
            raise
        return self

    def append(self, values: np.ndarray) -> int:
        """Append one ``(T, M)`` instance or a ``(B, T, M)`` chunk.

        Values are validated exactly as :class:`ETCMatrix` would
        (finite, strictly positive) so every view the store later hands
        out through the trusted zero-copy constructors is as safe as a
        validated matrix.  Returns the number of instances appended.
        """
        if self._handle is None or self._closed:
            raise ETCStoreError("writer is not open (use it as a context manager)")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3:
            raise ETCShapeError(
                f"store chunks must be 2-D or 3-D, got ndim={arr.ndim}"
            )
        if arr.shape[1:] != (self._num_tasks, self._num_machines):
            raise ETCShapeError(
                f"chunk instances have shape {arr.shape[1:]}, entry expects "
                f"({self._num_tasks}, {self._num_machines})"
            )
        if arr.shape[0] == 0:
            return 0
        if not np.all(np.isfinite(arr)):
            raise ETCValueError("ETC values must be finite (no NaN/inf)")
        if np.any(arr <= 0.0):
            raise ETCValueError("ETC values must be strictly positive")
        payload = np.ascontiguousarray(arr).tobytes()
        self._digest.update(payload)
        self._handle.write(payload)
        self._count += arr.shape[0]
        return arr.shape[0]

    @property
    def count(self) -> int:
        """Instances appended so far."""
        return self._count

    def _abort(self) -> None:
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._lock.release()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._abort()
            return False
        try:
            if self._count == 0:
                raise ETCStoreError(
                    f"refusing to commit empty entry {self._key[:16]!r}"
                )
            self._handle.flush()
            os.fsync(self._handle.fileno())
            entry = StoreEntry(
                key=self._key,
                offset=self._offset,
                count=self._count,
                num_tasks=self._num_tasks,
                num_machines=self._num_machines,
                sha256=self._digest.hexdigest(),
                tasks=self._tasks,
                machines=self._machines,
            )
            self._store._commit(entry)
        finally:
            self._abort()
        return False


class ETCStore:
    """A directory of memory-mapped ETC instance stacks.

    Parameters
    ----------
    root:
        Store directory (created on first write when ``create=True``).
    create:
        ``False`` attaches read-only semantics: a missing directory or
        manifest raises :class:`~repro.exceptions.ETCStoreError` instead
        of being created (the runner's workers attach this way).
    """

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        self._entries: dict[str, StoreEntry] = {}
        self._manifest_mtime_ns: int | None = None
        self._mmaps: dict[str, np.memmap] = {}
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not (self.root / MANIFEST_NAME).is_file():
            raise ETCStoreError(
                f"no ETC store at {self.root} (missing {MANIFEST_NAME})"
            )
        self._load_manifest()

    # ------------------------------------------------------------------
    # Paths & manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def data_path(self) -> Path:
        return self.root / DATA_NAME

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    def _load_manifest(self) -> None:
        path = self.manifest_path
        try:
            stat = path.stat()
        except FileNotFoundError:
            self._entries = {}
            self._manifest_mtime_ns = None
            return
        if stat.st_mtime_ns == self._manifest_mtime_ns and self._entries:
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise ETCStoreError(f"unreadable store manifest {path} ({exc})") from None
        if not isinstance(payload, dict):
            raise ETCStoreError(f"unreadable store manifest {path} (not an object)")
        if payload.get("schema") != STORE_SCHEMA:
            raise ETCStoreError(
                f"{path}: not a {STORE_SCHEMA} manifest "
                f"(schema={payload.get('schema')!r})"
            )
        try:
            entries = {
                key: StoreEntry.from_dict(key, entry)
                for key, entry in payload.get("entries", {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ETCStoreError(
                f"unreadable store manifest {path} (bad entry: {exc!r})"
            ) from None
        self._entries = entries
        self._manifest_mtime_ns = stat.st_mtime_ns

    def reload(self) -> None:
        """Pick up entries committed by another process since open."""
        self._manifest_mtime_ns = None
        self._load_manifest()

    def _commit(self, entry: StoreEntry) -> None:
        """Atomically publish ``entry`` in the manifest (writer-locked)."""
        self._load_manifest()
        entries = dict(self._entries)
        entries[entry.key] = entry
        payload = {
            "schema": STORE_SCHEMA,
            "entries": {key: e.to_dict() for key, e in sorted(entries.items())},
        }
        # fsync: the manifest is the only record of the committed bytes.
        write_json_atomic(self.manifest_path, payload, fsync=True)
        self._entries = entries
        self._manifest_mtime_ns = self.manifest_path.stat().st_mtime_ns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Committed entry keys, sorted."""
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: str) -> StoreEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise ETCStoreError(
                f"no entry {key[:16]!r} in store {self.root}"
            ) from None

    def total_bytes(self) -> int:
        """Committed payload bytes (excludes orphans from aborted writes)."""
        return sum(entry.nbytes for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def writer(
        self,
        key: str,
        num_tasks: int,
        num_machines: int,
        tasks: Sequence[str] | None = None,
        machines: Sequence[str] | None = None,
        lock_timeout_s: float = DEFAULT_LOCK_TIMEOUT_S,
    ) -> ETCStoreWriter:
        """Chunked writer for one new entry (single-writer locked)."""
        if key in self._entries:
            raise ETCStoreError(
                f"entry {key[:16]!r} already committed in {self.root}"
            )
        if num_tasks < 1 or num_machines < 1:
            raise ETCShapeError(
                f"need at least 1 task and machine, got {num_tasks}x{num_machines}"
            )
        return ETCStoreWriter(
            self, key, num_tasks, num_machines, tasks, machines, lock_timeout_s
        )

    def put_matrices(self, key: str, matrices: Sequence[ETCMatrix]) -> StoreEntry:
        """Commit already-materialised matrices as one entry (convenience).

        Labels are recorded only when they differ from the defaults, so
        the manifest stays compact for generated grids.
        """
        matrices = list(matrices)
        if not matrices:
            raise ETCStoreError("cannot store an empty instance list")
        first = matrices[0]
        tasks = None if first.tasks == default_task_labels(first.num_tasks) else first.tasks
        machines = (
            None
            if first.machines == default_machine_labels(first.num_machines)
            else first.machines
        )
        with self.writer(
            key, first.num_tasks, first.num_machines, tasks=tasks, machines=machines
        ) as writer:
            for matrix in matrices:
                if matrix.shape != first.shape:
                    raise ETCShapeError(
                        f"entry matrices disagree on shape: {matrix.shape} "
                        f"!= {first.shape}"
                    )
                if matrix.tasks != first.tasks or matrix.machines != first.machines:
                    raise ETCShapeError(
                        "entry matrices must share task/machine labels"
                    )
                writer.append(matrix.values)
        return self.entry(key)

    # ------------------------------------------------------------------
    # Zero-copy reads
    # ------------------------------------------------------------------
    def _mapped(self, entry: StoreEntry) -> np.memmap:
        mapped = self._mmaps.get(entry.key)
        if mapped is None:
            mapped = np.memmap(
                self.data_path,
                dtype=_DTYPE,
                mode="r",
                offset=entry.offset,
                shape=entry.shape,
                order="C",
            )
            self._mmaps[entry.key] = mapped
        return mapped

    def batch(self, key: str) -> ETCBatch:
        """The whole entry as a memmap-backed :class:`ETCBatch` (no copy)."""
        entry = self.entry(key)
        # A plain ndarray view of the window (still no copy): slicing a
        # ``numpy.memmap`` runs Python-level ``__getitem__`` and
        # ``__array_finalize__`` hooks on every row a kernel reads.
        return ETCBatch._from_trusted(
            self._mapped(entry).view(np.ndarray),
            entry.task_labels(),
            entry.machine_labels(),
        )

    def instance(self, key: str, index: int) -> ETCMatrix:
        """One instance as a memmap-backed :class:`ETCMatrix` view."""
        return self.batch(key).instance(index)

    def instances(self, key: str) -> Iterator[ETCMatrix]:
        """Iterate an entry's instances as zero-copy memmap views."""
        return self.batch(key).instances()

    def verify(self, key: str) -> bool:
        """Recompute an entry's SHA-256 against the manifest digest."""
        entry = self.entry(key)
        digest = hashlib.sha256()
        with open(self.data_path, "rb") as handle:
            handle.seek(entry.offset)
            remaining = entry.nbytes
            while remaining:
                chunk = handle.read(min(remaining, 1 << 20))
                if not chunk:
                    return False
                digest.update(chunk)
                remaining -= len(chunk)
        return digest.hexdigest() == entry.sha256

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every open memmap window (idempotent).

        Views handed out earlier keep their own references alive; this
        drops the store's cache so a closed store pins no mappings of
        its own.
        """
        mmaps, self._mmaps = self._mmaps, {}
        for mapped in mmaps.values():
            mm = getattr(mapped, "_mmap", None)
            if mm is None:
                continue
            try:
                mm.close()
            except BufferError:
                # A consumer still holds a view into this window; the
                # mapping is released when that reference dies.
                pass

    def __enter__(self) -> "ETCStore":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ETCStore({str(self.root)!r}, entries={len(self._entries)})"
