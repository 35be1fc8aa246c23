"""Benchmark regenerating Figure 6 (remote sender during a downlink drop)."""

from repro.core.results import format_figure
from repro.experiments.disruption import run_remote_sender_response


def test_bench_fig6_remote_sender_response():
    series = run_remote_sender_response(
        drop_to_mbps=0.25,
        duration_s=180.0,
        repetitions=1,
    )
    print("\n" + format_figure("fig6 (C2 upstream bitrate while C1's downlink is disrupted)", series))

    def dip(figure):
        during = [y for x, y in zip(figure.x, figure.y) if 68 <= x <= 90]
        before = [y for x, y in zip(figure.x, figure.y) if 30 <= x <= 55]
        return (sum(during) / len(during)) / max(sum(before) / len(before), 1e-9)

    # Teams' sender backs off during the receiver's downlink drop; Meet's
    # sender keeps sending to the SFU (its simulcast copies are still needed).
    assert dip(series["teams"]) < dip(series["meet"]) + 0.15
