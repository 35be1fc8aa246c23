"""Benchmarks regenerating Figures 8 and 10 (VCA vs VCA link sharing)."""

from conftest import BENCH_REPETITIONS, run_once

from repro.experiments.competition import run_vca_vs_vca

COMPETITOR_DURATION_S = 60.0


def test_bench_fig8_uplink_shares():
    table = run_once(
        run_vca_vs_vca,
        direction="up",
        capacity_mbps=0.5,
        repetitions=BENCH_REPETITIONS,
        competitor_duration_s=COMPETITOR_DURATION_S,
    )
    print("\n" + table.to_text())
    shares = {(row[0], row[1]): row[2] for row in table.rows}
    # Zoom is the aggressive one: as an incumbent it keeps the larger share,
    # and Meet backs off when a Zoom call joins (Figure 8a/8c).
    assert shares[("zoom", "meet")] > 0.5
    assert shares[("meet", "zoom")] < 0.5


def test_bench_fig10_downlink_shares():
    table = run_once(
        run_vca_vs_vca,
        direction="down",
        capacity_mbps=0.5,
        repetitions=BENCH_REPETITIONS,
        competitor_duration_s=COMPETITOR_DURATION_S,
    )
    print("\n" + table.to_text())
    shares = {(row[0], row[1]): row[2] for row in table.rows}
    # Teams is passive on the downlink (Figure 10b).
    assert shares[("teams", "zoom")] < 0.6
