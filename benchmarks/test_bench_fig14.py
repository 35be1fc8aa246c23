"""Benchmark regenerating Figure 14 (Zoom vs Netflix at 0.5 Mbps)."""

from conftest import run_once

from repro.core.results import format_figure
from repro.experiments.competition import run_vca_vs_streaming


def test_bench_fig14_zoom_vs_netflix():
    series = run_once(
        run_vca_vs_streaming,
        vca="zoom",
        app="netflix",
        capacity_mbps=0.5,
        competitor_duration_s=60.0,
    )
    traces = {k: v for k, v in series.items() if k in ("zoom", "netflix")}
    print("\n" + format_figure("fig14a (downstream bitrate)", traces))
    connections = series["tcp_connections_total"].y[-1]
    print(f"fig14b: Netflix opened {connections:.0f} TCP connections in total")

    def mean(figure, lo, hi):
        values = [y for x, y in zip(figure.x, figure.y) if lo <= x <= hi]
        return sum(values) / max(len(values), 1)

    # Zoom starves the streaming player despite Netflix's parallel connections.
    assert mean(series["zoom"], 45, 90) > mean(series["netflix"], 45, 90)
    assert connections >= 1
