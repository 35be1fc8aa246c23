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

#: Call duration (seconds) used by the reduced benchmark campaign.
BENCH_DURATION_S = float(os.environ.get("REPRO_BENCH_DURATION", "45"))

#: Repetitions per condition in the reduced campaign.
BENCH_REPETITIONS = int(os.environ.get("REPRO_BENCH_REPETITIONS", "1"))

#: Reduced shaping grid used for the static sweeps.
BENCH_LEVELS_MBPS = (0.3, 0.5, 0.8, 1.0, 2.0)


@pytest.fixture
def bench_params():
    """The reduced-scale parameters shared by all figure benchmarks."""
    return {
        "duration_s": BENCH_DURATION_S,
        "repetitions": BENCH_REPETITIONS,
    }


def run_once(fn, *args, **kwargs):
    """Run ``fn`` once and return its result (the reduced campaign of one figure)."""
    return fn(*args, **kwargs)
