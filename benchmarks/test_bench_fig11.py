"""Benchmark regenerating Figure 11 (Teams vs Zoom at 1 Mbps)."""

from repro.core.results import format_figure
from repro.experiments.competition import run_pair_timeseries


def test_bench_fig11_teams_vs_zoom():
    result = run_pair_timeseries(
        incumbent="teams",
        competitor="zoom",
        capacity_mbps=1.0,
        competitor_duration_s=60.0,
    )
    for direction, series in result.items():
        print("\n" + format_figure(f"fig11 ({direction}link)", series))

    def mean(figure, lo, hi):
        values = [y for x, y in zip(figure.x, figure.y) if lo <= x <= hi]
        return sum(values) / max(len(values), 1)

    # On the downlink the incumbent Teams call backs off to Zoom (Figure 11b).
    teams_down = mean(result["down"]["incumbent"], 45, 90)
    zoom_down = mean(result["down"]["competitor"], 45, 90)
    assert teams_down < zoom_down + 0.25
