"""Section 4 -- transient network disruptions.

Reproduces:

* **Figure 4a / 5a** -- average upstream / downstream bitrate over the course
  of a call with a 30-second capacity drop one minute in,
* **Figure 4b / 5b** -- time-to-recovery as a function of the drop severity,
* **Figure 6** -- the *other* client's upstream bitrate while the measured
  client's downlink is disrupted (the sender-side adaptation signature that
  separates Teams from Meet).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.analysis import aggregate_runs, summarize_series
from repro.core.metrics import time_to_recovery
from repro.core.profiles import DISRUPTION_LEVELS_MBPS
from repro.core.results import FigureSeries
from repro.experiments.static import DEFAULT_VCAS, call_spec
from repro.netem.scenarios import ScenarioSpec, run_scenario

__all__ = [
    "run_disruption_timeseries",
    "run_ttr_sweep",
    "run_remote_sender_response",
    "DISRUPTION_START_S",
    "DISRUPTION_DURATION_S",
]

#: The paper starts the drop one minute into a five-minute call and holds it
#: for thirty seconds.
DISRUPTION_START_S = 60.0
DISRUPTION_DURATION_S = 30.0


def _disrupted(
    vca: str,
    direction: str,
    drop_to_mbps: float,
    duration_s: float,
    drop_at_s: float,
    drop_duration_s: float,
) -> ScenarioSpec:
    """A call whose ``direction`` of C1's access link drops to ``drop_to_mbps``."""
    drop = {"drop_to_mbps": drop_to_mbps, "drop_at_s": drop_at_s, "duration_s": drop_duration_s}
    return call_spec(vca, duration_s, direction=direction, profile=("disruption", drop))


def run_disruption_timeseries(
    direction: str = "up",
    drop_to_mbps: float = 0.25,
    vcas: Sequence[str] = DEFAULT_VCAS,
    duration_s: float = 300.0,
    repetitions: int = 4,
    seed: int = 0,
    drop_at_s: float = DISRUPTION_START_S,
    drop_duration_s: float = DISRUPTION_DURATION_S,
) -> dict[str, FigureSeries]:
    """Figure 4a / 5a: the average bitrate trace around a disruption."""
    figure_id = "fig4a" if direction == "up" else "fig5a"
    tx_rx = "tx" if direction == "up" else "rx"
    out: dict[str, FigureSeries] = {}
    for vca in vcas:
        spec = _disrupted(vca, direction, drop_to_mbps, duration_s, drop_at_s, drop_duration_s)
        runs = [
            run_scenario(spec, seed=seed + repetition, collect_stats=False).bitrate_series(tx_rx)
            for repetition in range(repetitions)
        ]
        times, mean_trace = summarize_series(runs)
        figure = FigureSeries(figure_id, vca, "time (s)", f"{direction}stream bitrate (Mbps)")
        for t, value in zip(times, mean_trace):
            figure.add_point(float(t), float(value))
        out[vca] = figure
    return out


def run_ttr_sweep(
    direction: str = "up",
    vcas: Sequence[str] = DEFAULT_VCAS,
    levels_mbps: Iterable[float] = DISRUPTION_LEVELS_MBPS,
    duration_s: float = 300.0,
    repetitions: int = 4,
    seed: int = 0,
    drop_at_s: float = DISRUPTION_START_S,
    drop_duration_s: float = DISRUPTION_DURATION_S,
) -> dict[str, FigureSeries]:
    """Figure 4b / 5b: time-to-recovery vs severity of the disruption."""
    figure_id = "fig4b" if direction == "up" else "fig5b"
    out: dict[str, FigureSeries] = {
        vca: FigureSeries(figure_id, vca, f"{direction}link capacity during drop (Mbps)", "time to recovery (s)")
        for vca in vcas
    }
    tx_rx = "tx" if direction == "up" else "rx"
    disruption_end = drop_at_s + drop_duration_s
    for level in levels_mbps:
        for vca in vcas:
            spec = _disrupted(vca, direction, level, duration_s, drop_at_s, drop_duration_s)
            ttrs = []
            for repetition in range(repetitions):
                run = run_scenario(spec, seed=seed + repetition, collect_stats=False)
                times, mbps = run.bitrate_series(tx_rx)
                ttrs.append(
                    time_to_recovery(
                        times,
                        mbps,
                        # The shaper drops the rate at absolute simulation
                        # time, the clock the bitrate series is binned on.
                        disruption_start=drop_at_s,
                        disruption_end=disruption_end,
                        max_ttr_s=run.end_s - disruption_end,
                    )
                )
            summary = aggregate_runs(ttrs)
            out[vca].add_point(level, summary.mean, summary.ci_low, summary.ci_high)
    return out


def run_remote_sender_response(
    vcas: Sequence[str] = ("meet", "teams"),
    drop_to_mbps: float = 0.25,
    duration_s: float = 300.0,
    repetitions: int = 2,
    seed: int = 0,
    drop_at_s: float = DISRUPTION_START_S,
    drop_duration_s: float = DISRUPTION_DURATION_S,
) -> dict[str, FigureSeries]:
    """Figure 6: C2's upstream bitrate while C1's *downlink* is disrupted.

    With Meet the server absorbs the constraint (C2 keeps sending all
    simulcast copies); with Teams C2 itself backs off and must probe its way
    back up, which is what makes Teams slow to recover.
    """
    out: dict[str, FigureSeries] = {}
    for vca in vcas:
        spec = _disrupted(vca, "down", drop_to_mbps, duration_s, drop_at_s, drop_duration_s)
        runs = [
            run_scenario(
                spec, seed=seed + repetition, collect_stats=False, capture_hosts=("C2",)
            ).bitrate_series("tx", "C2")
            for repetition in range(repetitions)
        ]
        times, mean_trace = summarize_series(runs)
        figure = FigureSeries("fig6", vca, "time (s)", "C2 upstream bitrate (Mbps)")
        for t, value in zip(times, mean_trace):
            figure.add_point(float(t), float(value))
        out[vca] = figure
    return out
