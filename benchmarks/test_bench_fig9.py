"""Benchmark regenerating Figure 9 (self-competition traces)."""

from repro.core.results import format_figure
from repro.experiments.competition import run_self_competition_timeseries


def test_bench_fig9_self_competition():
    result = run_self_competition_timeseries(
        capacity_mbps=0.5,
        competitor_duration_s=60.0,
    )
    for vca, series in result.items():
        print("\n" + format_figure(f"fig9 ({vca} vs {vca}, upstream)", series))

    def share_during_competition(series):
        def mean(figure, lo, hi):
            values = [y for x, y in zip(figure.x, figure.y) if lo <= x <= hi]
            return sum(values) / max(len(values), 1)

        incumbent = mean(series["incumbent"], 45, 90)
        competitor = mean(series["competitor"], 45, 90)
        return incumbent / max(incumbent + competitor, 1e-9)

    # Two Meet calls share the 0.5 Mbps link more evenly than two Zoom calls
    # (Figure 9b vs 9a: Zoom is not even fair to itself).
    meet_balance = abs(share_during_competition(result["meet"]) - 0.5)
    zoom_balance = abs(share_during_competition(result["zoom"]) - 0.5)
    assert meet_balance <= zoom_balance + 0.15
