"""Benchmarks regenerating Figure 1 (utilization under static shaping)."""

from conftest import BENCH_DURATION_S, BENCH_LEVELS_MBPS, BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.static import run_capacity_sweep, run_platform_comparison


def test_bench_fig1a_uplink_sweep():
    series = run_capacity_sweep(
        direction="up",
        levels_mbps=BENCH_LEVELS_MBPS,
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig1a (median uplink bitrate vs capacity)", series))
    for vca, figure in series.items():
        # Constrained points use most of the link; bitrate grows with capacity.
        assert figure.y[0] <= figure.y[-1] + 0.1


def test_bench_fig1b_downlink_sweep():
    series = run_capacity_sweep(
        direction="down",
        levels_mbps=BENCH_LEVELS_MBPS,
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig1b (median downlink bitrate vs capacity)", series))
    # Meet's downlink collapses to the low simulcast copy below ~0.8 Mbps.
    assert series["meet"].y[1] < 0.45


def test_bench_fig1c_platform_comparison():
    series = run_platform_comparison(
        direction="up",
        levels_mbps=(0.5, 1.0, 2.0),
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig1c (native vs Chrome clients, uplink)", series))
    # Teams-Chrome uses less of a 1 Mbps uplink than Teams native.
    teams = dict(zip(series["teams"].x, series["teams"].y))
    chrome = dict(zip(series["teams-chrome"].x, series["teams-chrome"].y))
    assert chrome[1.0] < teams[1.0]
