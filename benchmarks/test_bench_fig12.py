"""Benchmark regenerating Figure 12 (iPerf3 vs VCAs at 2 Mbps)."""

from conftest import BENCH_REPETITIONS, run_once

from repro.experiments.competition import run_vca_vs_tcp


def test_bench_fig12_iperf_shares():
    table = run_once(
        run_vca_vs_tcp,
        capacity_mbps=2.0,
        repetitions=BENCH_REPETITIONS,
        competitor_duration_s=60.0,
    )
    print("\n" + table.to_text())
    iperf_share = {(row[0], row[1]): row[2] for row in table.rows}
    # Teams is passive against TCP: iPerf3 takes well over half the link.
    assert iperf_share[("teams", "down")] > 0.5
    assert iperf_share[("teams", "up")] > 0.5
    # Zoom holds its own against TCP far better than Teams does.
    assert iperf_share[("zoom", "down")] < iperf_share[("teams", "down")]
