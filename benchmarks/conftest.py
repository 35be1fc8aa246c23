"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (shorter calls, one repetition, a coarser parameter grid) so the whole
harness completes in minutes; the experiment drivers accept the full
paper-scale parameters if a user wants the complete campaign (see
EXPERIMENTS.md).

The scale can be nudged with the ``REPRO_BENCH_DURATION`` environment
variable (seconds per call; default 45).
"""

from __future__ import annotations

import os

import pytest

from repro.results import ResultStore, store_from_env

#: Call duration (seconds) used by the reduced benchmark campaign.
BENCH_DURATION_S = float(os.environ.get("REPRO_BENCH_DURATION", "45"))

#: Repetitions per condition in the reduced campaign.
BENCH_REPETITIONS = int(os.environ.get("REPRO_BENCH_REPETITIONS", "1"))

#: Reduced shaping grid used for the static sweeps.
BENCH_LEVELS_MBPS = (0.3, 0.5, 0.8, 1.0, 2.0)


@pytest.fixture(scope="session")
def bench_store(tmp_path_factory):
    """The session's result store: ``REPRO_RESULT_STORE`` when set, else a fresh one.

    Benchmarks that run the same scenario units share them through it, so
    each unit simulates once per session.
    """
    store = store_from_env()
    return store if store is not None else ResultStore(tmp_path_factory.mktemp("bench-store"))
