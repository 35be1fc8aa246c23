"""Benchmarks regenerating Figure 15 (participant count and viewing mode)."""

from conftest import BENCH_REPETITIONS

from repro.core.results import format_figure
from repro.experiments.modality import run_participant_sweep

DURATION_S = 40.0


def test_bench_fig15ab_gallery_sweep():
    result = run_participant_sweep(
        mode="gallery",
        participant_counts=(2, 4, 5, 7),
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig15a (downlink vs participants, gallery)", result["downlink"]))
    print("\n" + format_figure("fig15b (uplink vs participants, gallery)", result["uplink"]))
    zoom_up = dict(zip(result["uplink"]["zoom"].x, result["uplink"]["zoom"].y))
    meet_up = dict(zip(result["uplink"]["meet"].x, result["uplink"]["meet"].y))
    teams_up = dict(zip(result["uplink"]["teams"].x, result["uplink"]["teams"].y))
    # Zoom's uplink drops at five participants; Meet's at seven; Teams stays flat.
    assert zoom_up[5] < 0.8 * zoom_up[4]
    assert meet_up[7] < 0.6 * meet_up[5]
    assert teams_up[7] > 0.6 * teams_up[2]


def test_bench_fig15c_speaker_sweep():
    result = run_participant_sweep(
        mode="speaker",
        participant_counts=(3, 8),
        duration_s=DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + format_figure("fig15c (uplink vs participants, pinned speaker)", result["uplink"]))
    teams = result["uplink"]["teams"]
    zoom = result["uplink"]["zoom"]
    # Teams' uplink grows with the roster when pinned; Zoom's stays near 1 Mbps.
    assert teams.y[-1] > teams.y[0]
    assert zoom.y[-1] < 1.3
