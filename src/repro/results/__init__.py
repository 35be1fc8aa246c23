"""Content-addressed result store for incremental campaign sweeps.

For a 100+-cell scenario grid, re-simulating every cell on every invocation
is the bottleneck -- one scenario repetition costs seconds, a spec edit
costs the whole grid.  This package makes sweeps incremental:

* :mod:`repro.results.fingerprint` derives a stable key per work unit from
  its payload (e.g. a full :class:`~repro.netem.scenarios.ScenarioSpec`),
  the repetition seed and a code-version fingerprint (committed calibration
  constants + store schema version), and
* :mod:`repro.results.store` persists one JSON entry per key, validated on
  read, with a determinism contract: merged warm/cold campaign results are
  byte-identical.

:func:`repro.core.campaign.run_campaign` consults a store before
dispatching work units to the process pool, so every registered
experiment re-executes only cache misses.
"""

from repro.results.fingerprint import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    code_fingerprint,
    payload_hash,
    result_key,
    result_keys,
)
from repro.results.store import ResultStore, resolve_store, store_from_env

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "payload_hash",
    "result_key",
    "result_keys",
    "ResultStore",
    "resolve_store",
    "store_from_env",
]
