"""Benchmarks regenerating Figure 2 (encoding parameters vs capacity)."""

from conftest import BENCH_DURATION_S, BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.static import run_encoding_parameters

LEVELS = (0.3, 0.5, 1.0, 2.0)


def test_bench_fig2_downlink_encoding():
    result = run_encoding_parameters(
        direction="down",
        levels_mbps=LEVELS,
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    for metric, series in result.items():
        print("\n" + format_figure(f"fig2 down - {metric}", series))
    meet_width = result["width"]["meet"]
    # Received width degrades as the downlink tightens (Figure 2c).
    assert meet_width.y[0] <= meet_width.y[-1]


def test_bench_fig2_uplink_encoding():
    result = run_encoding_parameters(
        direction="up",
        levels_mbps=LEVELS,
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    for metric, series in result.items():
        print("\n" + format_figure(f"fig2 up - {metric}", series))
    meet_qp = result["qp"]["meet"]
    # Sent QP rises as the uplink tightens (Figure 2d).
    assert meet_qp.y[0] >= meet_qp.y[-1]
