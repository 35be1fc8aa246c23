"""Benchmark regenerating Figure 3 (freezes and FIR counts)."""

from conftest import BENCH_DURATION_S, BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.static import run_video_freezes


def test_bench_fig3_freezes_and_firs():
    result = run_video_freezes(
        levels_mbps=(0.3, 0.5, 2.0),
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig3a (freeze ratio vs downlink)", result["freeze_ratio"]))
    print("\n" + format_figure("fig3b (FIR count vs uplink)", result["fir_count"]))
    meet_freeze = result["freeze_ratio"]["meet"]
    # Freezes increase as the downlink degrades (Figure 3a).
    assert meet_freeze.y[0] >= meet_freeze.y[-1]
    # Teams-Chrome produces FIRs at very low uplink capacity (Figure 3b).
    assert result["fir_count"]["teams-chrome"].y[0] >= 1.0
