"""The content-addressed scenario/campaign result store.

One store is a directory of small JSON files, one per cached work unit::

    <root>/
      objects/<key[:2]>/<key>.json    one cached metrics mapping per key

Keys come from :func:`repro.results.fingerprint.result_key`: they hash the
work-unit payload, the repetition seed and the code-version fingerprint, so
a spec edit re-keys exactly the edited unit while a calibration-constants or
schema-version change re-keys everything.

Determinism contract
--------------------

Metrics pass through :meth:`ResultStore.normalize` (a canonical-JSON round
trip) on *both* the write path and the fresh-execution path, so a merged
campaign result is byte-identical whether each unit came from the store or
from a simulation -- floats round-trip exactly through JSON's repr encoding,
and key order is canonicalised.  Corrupted or foreign entries (bad JSON,
schema mismatch, key mismatch) are discarded and re-executed, never trusted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.core.fsutil import atomic_write_text, sweep_stale_tmp
from repro.results import fingerprint
from repro.results.fingerprint import canonical_json

__all__ = ["ResultStore", "resolve_store", "store_from_env"]

#: Environment variable naming a store directory for store-aware callers
#: (the benchmark harness, CI jobs) that have no CLI flag of their own.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


class ResultStore:
    """Content-addressed on-disk cache of campaign work-unit metrics.

    The store is append-mostly and safe to share between processes: entries
    are written atomically (``os.replace`` of a same-directory temp file) and
    reads validate before trusting.  Hit/miss/put counters make cache
    behaviour assertable in tests and reportable by CLIs.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: ``<root>/objects/`` as a string: the per-key entry path is built by
        #: concatenation (:meth:`entry_path`) on every lookup.
        self._objects_prefix = os.path.join(str(self.root), "objects", "")
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.discarded = 0
        #: Orphaned ``*.tmp<pid>`` files (a writer crashed between fsync and
        #: rename) collected on open; only files older than the safety age
        #: are touched, so a concurrent writer's in-flight temp survives.
        self.swept_tmp = sweep_stale_tmp(self.root / "objects")

    # ------------------------------------------------------------- layout
    def entry_path(self, key: str) -> str:
        """On-disk path of one entry, as a string (the per-lookup form)."""
        return f"{self._objects_prefix}{key[:2]}/{key}.json"

    def object_path(self, key: str) -> Path:
        """On-disk path of one entry (the chaos harness corrupts these)."""
        return Path(self.entry_path(key))

    def reset_counters(self) -> None:
        self.hits = self.misses = self.puts = self.discarded = 0

    @staticmethod
    def normalize(metrics: Mapping[str, Any]) -> dict[str, Any]:
        """Canonical-JSON round trip applied to cached *and* fresh metrics."""
        return json.loads(canonical_json(dict(metrics)))

    # -------------------------------------------------------------- read
    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The cached metrics for ``key``, or ``None`` on miss.

        Anything that fails validation -- unparsable JSON, a different
        schema version, an entry whose recorded key does not match its
        filename, a non-mapping metrics payload -- is deleted and treated
        as a miss, so a corrupted store degrades to re-execution.
        """
        path = self.entry_path(key)
        try:
            # Unbuffered bytes, decoded as strict UTF-8: the text a text-mode
            # read gives (its newline translation cannot change what JSON
            # accepts), without the text wrapper's set-up cost.
            with open(path, "rb", buffering=0) as handle:
                entry = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != fingerprint.STORE_SCHEMA_VERSION
            or entry.get("key") != key
            or not isinstance(entry.get("metrics"), dict)
        ):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["metrics"]

    def _discard(self, path: str) -> None:
        self.discarded += 1
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - unlink race / read-only store
            pass

    # ------------------------------------------------------------- write
    def put(self, key: str, metrics: Mapping[str, Any], meta: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
        """Store one work unit's metrics; returns the normalized mapping.

        ``meta`` is free-form provenance (condition name, seed, duration)
        kept for humans inspecting the store; it never affects lookups.
        """
        normalized = self.normalize(metrics)
        entry = {
            "schema": fingerprint.STORE_SCHEMA_VERSION,
            "key": key,
            "metrics": normalized,
            "meta": dict(meta) if meta else {},
        }
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Torn-write safety: flush + fsync the temp file *before* the atomic
        # rename, so a crash (or SIGKILL) can never publish a half-written
        # entry under the final name -- the worst case is a stale ``.tmp``
        # file, which lookups never read, which cannot shadow a later good
        # write, and which the open-time sweep collects once it is old
        # enough.  The directory fsync persists the rename itself.
        atomic_write_text(
            path, json.dumps(entry, indent=2, sort_keys=True) + "\n", fsync_dir=True
        )
        self.puts += 1
        return normalized

    # ------------------------------------------------------------ inspect
    def keys(self) -> list[str]:
        """Every key currently stored (sorted; no validation)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(p.stem for p in objects.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, puts={self.puts})"
        )


def resolve_store(
    store: Union["ResultStore", str, Path, None]
) -> Optional[ResultStore]:
    """Accept a :class:`ResultStore`, a directory path, or ``None``."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def store_from_env() -> Optional[ResultStore]:
    """A store rooted at ``$REPRO_RESULT_STORE``, or ``None`` when unset."""
    root = os.environ.get(STORE_ENV_VAR, "").strip()
    return ResultStore(root) if root else None
