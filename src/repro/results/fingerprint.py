"""Content-addressed result keys and the code-version fingerprint.

A cached simulation result is only reusable while everything that shaped it
is unchanged: the work-unit payload (a scenario spec, a capacity-sweep grid
cell ...), the per-repetition seed, and the *code version* of the model.
The model's externally calibrated behaviour is pinned by the committed
competition constants (:mod:`repro.calibrate.constants`), so the fingerprint
hashes the **active constant set** together with a store schema version:

* editing any calibration constant changes the fingerprint, invalidating
  every cached result at once (the constants feed every VCA simulation), and
* bumping :data:`STORE_SCHEMA_VERSION` does the same when the stored payload
  format itself changes.

Keys are hex SHA-256 digests of a canonical JSON rendering, so they are
stable across processes, platforms and dict insertion orders.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Optional

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "payload_hash",
    "result_key",
    "result_keys",
]

#: Bump when the stored entry format (or the meaning of cached metrics)
#: changes incompatibly; every existing cache entry becomes a miss.
#: Version 2: Section 5 units against a VCA store ``competitor_tx_loss_rate``.
STORE_SCHEMA_VERSION = 2


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace.

    Raises ``TypeError`` for payloads JSON cannot express -- callers treat
    such work units as uncacheable rather than guessing at a hash.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def code_fingerprint() -> str:
    """Fingerprint of the model version cached results were produced by.

    Derived from the *active* competition constants (the committed set in
    normal runs) plus the store schema version.  Read lazily on every call
    so a constants edit or an activated set is picked up immediately.
    Calibration candidates are keyed by the ``overrides`` in their units'
    params instead: the unit activates them only for its own call.
    """
    # Local import: repro.results must stay importable from the core layer
    # without dragging the calibration package in at module-import time.
    from repro.calibrate.constants import active_constants

    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "constants": active_constants().as_dict(),
    }
    return _digest(canonical_json(payload))[:16]


def payload_hash(payload: Any) -> str:
    """Content hash of one work-unit payload (no seed, no fingerprint).

    This is what the CI cache manifest records per scenario: it changes
    exactly when the spec content changes.
    """
    return _digest(canonical_json(payload))


def result_key(payload: Any, seed: int, fingerprint: Optional[str] = None) -> str:
    """The store key of one ``(payload, seed)`` work unit.

    ``fingerprint`` defaults to :func:`code_fingerprint`; passing it
    explicitly lets a campaign hash many units against one snapshot.
    """
    return result_keys(payload, (seed,), fingerprint)[0]


def result_keys(
    payload: Any, seeds: Iterable[int], fingerprint: Optional[str] = None
) -> list[str]:
    """The store keys of one payload repeated under each of ``seeds``.

    Each key is the digest of the canonical JSON of
    ``{"fingerprint": ..., "payload": ..., "seed": N}``.  Sorted keys put the
    seed last, so the payload is serialised once and every seed is spliced
    into the same prefix; the text is the one :func:`canonical_json` renders
    for the whole record.  Raises ``TypeError`` when the payload is not
    JSON-expressible, as :func:`result_key` does.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint()
    prefix = (
        f'{{"fingerprint":{canonical_json(fingerprint)},'
        f'"payload":{canonical_json(payload)},"seed":'
    )
    return [_digest(f"{prefix}{int(seed)}}}") for seed in seeds]
