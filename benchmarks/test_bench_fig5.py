"""Benchmarks regenerating Figure 5 (downlink disruptions)."""

from conftest import BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.disruption import run_disruption_timeseries, run_ttr_sweep

DURATION_S = 180.0


def test_bench_fig5a_downlink_disruption_trace():
    series = run_disruption_timeseries(
        direction="down",
        drop_to_mbps=0.25,
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig5a (downstream bitrate around a 0.25 Mbps downlink drop)", series))


def test_bench_fig5b_downlink_ttr():
    series = run_ttr_sweep(
        direction="down",
        levels_mbps=(0.25, 1.0),
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig5b (time to recovery vs downlink drop level)", series))
    # Meet recovers from downlink drops faster than Teams (server-side copy
    # switching vs sender-side probing), Figure 5b's headline ordering.
    assert series["meet"].y[0] <= series["teams"].y[0] + 5.0
