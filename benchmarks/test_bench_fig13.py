"""Benchmark regenerating Figure 13 (Zoom probing vs a TCP download)."""

from repro.core.results import format_figure
from repro.experiments.competition import run_zoom_burst_trace


def test_bench_fig13_zoom_vs_iperf_trace():
    series = run_zoom_burst_trace(
        capacity_mbps=2.0,
        competitor_duration_s=60.0,
    )
    print("\n" + format_figure("fig13 (Zoom and iPerf3 downstream bitrate)", series))

    def mean(figure, lo, hi):
        values = [y for x, y in zip(figure.x, figure.y) if lo <= x <= hi]
        return sum(values) / max(len(values), 1)

    # Zoom keeps a substantial share of the downlink while the TCP download runs.
    assert mean(series["zoom"], 45, 90) > 0.5
