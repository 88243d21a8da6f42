"""Content-addressed response cache for the scheduling service.

One ``<key>.json`` entry per request identity under a single directory
(default ``.repro/responses/``), kept by the same
:class:`~repro.obs.ledger.EntryStore` as the runner's cell cache: atomic
writes, so a killed service never leaves a torn entry and concurrent
writers of the *same* key race benignly, and loud failures on a corrupt
or foreign entry.

Entries store the **full** computed result regardless of the request's
``trace`` verbosity; the service strips presentation-only sections at
serve time, so one cached computation answers every verbosity of the
same scheduling problem.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.ledger import EntryStore

__all__ = [
    "RESPONSE_CACHE_SCHEMA",
    "DEFAULT_RESPONSE_CACHE_DIR",
    "ResponseCache",
]

#: Cache entry format identifier; bump when the JSON layout changes.
RESPONSE_CACHE_SCHEMA = "repro-serve-cache/2"

#: Default response cache location, next to the cell cache under ``.repro/``.
DEFAULT_RESPONSE_CACHE_DIR = ".repro/responses"


class ResponseCache(EntryStore):
    """Content-addressed response store under one directory."""

    name = "response cache"
    schema = RESPONSE_CACHE_SCHEMA
    body = "result"

    def __init__(self, root: str | Path = DEFAULT_RESPONSE_CACHE_DIR) -> None:
        super().__init__(root)

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
        return self._write(self.path_for(key), payload)

    def load(self, key: str) -> dict | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        payload = self._read(key)
        return None if payload is None else payload["result"]

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0
