"""Content-addressed response cache for the scheduling service.

Mirrors the runner's cell cache (:class:`repro.analysis.runner.CellCache`)
byte for byte in its guarantees: one ``<key>.json`` entry per request
identity under a single directory (default ``.repro/responses/``),
written atomically (temp file + ``os.replace`` in the same directory),
so a killed service never leaves a torn entry and concurrent writers of
the *same* key race benignly — last replace wins with an identical
payload, since the key is a content address of everything that
determines the result.

Entries store the **full** computed result regardless of the request's
``trace`` verbosity; the service strips presentation-only sections at
serve time, so one cached computation answers every verbosity of the
same scheduling problem.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = [
    "RESPONSE_CACHE_SCHEMA",
    "DEFAULT_RESPONSE_CACHE_DIR",
    "ResponseCache",
]

#: Cache entry format identifier; bump when the JSON layout changes.
RESPONSE_CACHE_SCHEMA = "repro-serve-cache/2"

#: Default response cache location, next to the cell cache under ``.repro/``.
DEFAULT_RESPONSE_CACHE_DIR = ".repro/responses"


class ResponseCache:
    """Content-addressed response store under one directory."""

    def __init__(self, root: str | Path = DEFAULT_RESPONSE_CACHE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _atomic_write(self, path: Path, payload: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, key: str, identity: dict, result: dict) -> Path:
        """Persist one computed response; returns the entry path.

        ``identity`` (the :func:`~repro.serve.models.request_identity`
        dict) rides along for auditability — a cache directory is
        self-describing without the requests that filled it.  It names
        an inline ETC by shape, value digest and labels, so an entry
        stays small whatever the size of the matrix.
        """
        payload = {
            "schema": RESPONSE_CACHE_SCHEMA,
            "key": key,
            "identity": identity,
            "result": result,
        }
        path = self.path_for(key)
        self._atomic_write(path, payload)
        return path

    def load(self, key: str) -> dict | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError) as exc:
            raise ConfigurationError(
                f"unreadable response cache entry {path} ({exc}); "
                "delete it to recompute"
            ) from None
        if (
            payload.get("schema") != RESPONSE_CACHE_SCHEMA
            or payload.get("key") != key
        ):
            raise ConfigurationError(
                f"{path}: not a {RESPONSE_CACHE_SCHEMA} entry for key "
                f"{key[:12]}…; delete it to recompute"
            )
        return payload["result"]

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0

    def __repr__(self) -> str:
        return f"ResponseCache({str(self.root)!r})"
