"""Smoke benchmark for the competition scenario pack.

The ``competition`` pack expresses the paper's Section 5 cross-traffic
cells through the scenario API's ``workload`` axis (a competing VCA call,
bulk TCP, a streaming player sharing the measured client's access link).
The pack runs end to end over three seeds with sane competition columns,
and the Netflix-on-LTE cell, which no target reads, leaves the call its
uplink.  The pack's recorded claims (the fig10 Teams-vs-Zoom share band,
the CoDel share shift, the TCP-uplink floor) are ``competition-*`` rows of
:data:`repro.calibrate.targets.SCENARIO_TARGETS`, scored by
``benchmarks/test_bench_scenarios.py``; through the session store the two
benchmarks simulate each shared scenario once.  Results are emitted to
``BENCH_competition.json`` for the CI artifact.
"""

from __future__ import annotations

from bench_io import record_bench_result
from conftest import BENCH_DURATION_S

from repro.experiments.scenario import WORKLOAD_SWEEP_METRICS, run_scenario_sweep

#: Repetition seeds aggregated by the pack sweep.
SEEDS = (0, 1, 2)


def test_bench_competition_pack_smoke(bench_store):
    """The pack runs end to end with sane competition columns everywhere."""
    table = run_scenario_sweep(
        tag="competition",
        duration_s=BENCH_DURATION_S,
        repetitions=len(SEEDS),
        store=bench_store,
    )
    print("\n" + table.to_text())
    rows = {row[0]: dict(zip(table.columns[1:], row[1:])) for row in table.rows}
    assert len(rows) >= 4
    for metric in WORKLOAD_SWEEP_METRICS:
        assert metric in table.columns
    for name, metrics in rows.items():
        assert 0.0 <= metrics["share_up"] <= 1.0, name
        assert 0.0 <= metrics["share_down"] <= 1.0, name
        assert metrics["competitor_down_mbps"] > 0.0, name
        assert metrics["median_up_mbps"] > 0.0, name
    # A downlink-only competitor never displaces the measured call's uplink.
    assert rows["competition/netflix-vs-zoom-lte"]["share_up"] > 0.8
    record_bench_result(
        "competition",
        "pack_sweep",
        duration_s=BENCH_DURATION_S,
        rows=rows,
    )
