"""Benchmarks regenerating Figure 4 (uplink disruptions)."""

from conftest import BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.disruption import run_disruption_timeseries, run_ttr_sweep

DURATION_S = 180.0


def test_bench_fig4a_uplink_disruption_trace():
    series = run_disruption_timeseries(
        direction="up",
        drop_to_mbps=0.25,
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig4a (upstream bitrate around a 0.25 Mbps uplink drop)", series))
    for vca, figure in series.items():
        during = [y for x, y in zip(figure.x, figure.y) if 70 <= x <= 88]
        before = [y for x, y in zip(figure.x, figure.y) if 30 <= x <= 55]
        assert sum(during) / len(during) < sum(before) / len(before)


def test_bench_fig4b_uplink_ttr():
    series = run_ttr_sweep(
        direction="up",
        levels_mbps=(0.25, 1.0),
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig4b (time to recovery vs uplink drop level)", series))
    for vca, figure in series.items():
        # Severe drops take longer to recover from than mild ones.
        assert figure.y[0] >= figure.y[-1] - 5.0
