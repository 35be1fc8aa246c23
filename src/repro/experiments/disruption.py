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

from typing import Any, Iterable, Sequence

from repro.core.analysis import summarize_series
from repro.core.campaign import Condition, ConditionResult, run_campaign
from repro.core.metrics import time_to_recovery
from repro.core.profiles import DISRUPTION_LEVELS_MBPS
from repro.core.results import FigureSeries
from repro.experiments.static import DEFAULT_VCAS, call_spec, check_direction
from repro.netem.scenarios import run_scenario

__all__ = [
    "measure_disruption_point",
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


def measure_disruption_point(
    vca: str,
    direction: str,
    drop_to_mbps: float,
    duration_s: float,
    drop_at_s: float,
    drop_duration_s: float,
    host: str = "C1",
    seed: int = 0,
) -> dict[str, Any]:
    """One repetition of one Section 4 cell (campaign work unit).

    ``direction`` of C1's access link drops to ``drop_to_mbps`` for
    ``drop_duration_s`` from ``drop_at_s``.  Returns ``host``'s per-second
    bitrate trace (``times``, ``mbps``) and its time to recovery
    (``ttr_s``).  C1's trace is of the disrupted direction; any other
    host's is its upstream (Figure 6 reads C2's).
    """
    drop = {"drop_to_mbps": drop_to_mbps, "drop_at_s": drop_at_s, "duration_s": drop_duration_s}
    spec = call_spec(vca, duration_s, direction=direction, profile=("disruption", drop))
    run = run_scenario(spec, seed=seed, collect_stats=False, capture_hosts=(host,))
    tx_rx = "rx" if host == "C1" and direction == "down" else "tx"
    times, mbps = run.bitrate_series(tx_rx, host)
    disruption_end = drop_at_s + drop_duration_s
    ttr_s = time_to_recovery(
        times,
        mbps,
        # The shaper drops the rate at absolute simulation time, the clock
        # the bitrate series is binned on.
        disruption_start=drop_at_s,
        disruption_end=disruption_end,
        max_ttr_s=run.end_s - disruption_end,
    )
    return {"times": times.tolist(), "mbps": mbps.tolist(), "ttr_s": ttr_s}


def _run_disruptions(
    direction: str,
    levels: Sequence[float],
    vcas: Sequence[str],
    duration_s: float,
    repetitions: int,
    seed: int,
    drop_at_s: float,
    drop_duration_s: float,
    host: str = "C1",
    **campaign: Any,
) -> list[ConditionResult]:
    """The campaign of one (level x vca) disruption grid, in grid order."""
    conditions = [
        Condition(
            name=f"{vca}@{level}{direction}-drop/{host}",
            fn=measure_disruption_point,
            params={
                "vca": vca,
                "direction": direction,
                "drop_to_mbps": level,
                "duration_s": duration_s,
                "drop_at_s": drop_at_s,
                "drop_duration_s": drop_duration_s,
                "host": host,
            },
            repetitions=repetitions,
            seed=seed,
        )
        for level in levels
        for vca in vcas
    ]
    return run_campaign(conditions, **campaign)


def _mean_trace(figure: FigureSeries, result: ConditionResult) -> FigureSeries:
    """``figure`` filled with the repetitions' trace averaged per second."""
    times, mean_trace = summarize_series([(run["times"], run["mbps"]) for run in result.runs])
    for t, value in zip(times, mean_trace):
        figure.add_point(float(t), float(value))
    return figure


def run_disruption_timeseries(
    direction: str = "up",
    drop_to_mbps: float = 0.25,
    vcas: Sequence[str] = DEFAULT_VCAS,
    duration_s: float = 300.0,
    repetitions: int = 4,
    seed: int = 0,
    drop_at_s: float = DISRUPTION_START_S,
    drop_duration_s: float = DISRUPTION_DURATION_S,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 4a / 5a: the average bitrate trace around a disruption."""
    check_direction(direction)
    figure_id = "fig4a" if direction == "up" else "fig5a"
    results = _run_disruptions(
        direction, (drop_to_mbps,), vcas, duration_s, repetitions, seed,
        drop_at_s, drop_duration_s, **campaign,
    )
    return {
        vca: _mean_trace(
            FigureSeries(figure_id, vca, "time (s)", f"{direction}stream bitrate (Mbps)"), result
        )
        for vca, result in zip(vcas, results)
    }


def run_ttr_sweep(
    direction: str = "up",
    vcas: Sequence[str] = DEFAULT_VCAS,
    levels_mbps: Iterable[float] = DISRUPTION_LEVELS_MBPS,
    duration_s: float = 300.0,
    repetitions: int = 4,
    seed: int = 0,
    drop_at_s: float = DISRUPTION_START_S,
    drop_duration_s: float = DISRUPTION_DURATION_S,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 4b / 5b: time-to-recovery vs severity of the disruption."""
    check_direction(direction)
    figure_id = "fig4b" if direction == "up" else "fig5b"
    out: dict[str, FigureSeries] = {
        vca: FigureSeries(figure_id, vca, f"{direction}link capacity during drop (Mbps)", "time to recovery (s)")
        for vca in vcas
    }
    levels = list(levels_mbps)
    results = _run_disruptions(
        direction, levels, vcas, duration_s, repetitions, seed,
        drop_at_s, drop_duration_s, **campaign,
    )
    grid = [(level, vca) for level in levels for vca in vcas]
    for (level, vca), result in zip(grid, results):
        summary = result.summary("ttr_s")
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
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 6: C2's upstream bitrate while C1's *downlink* is disrupted.

    With Meet the server absorbs the constraint (C2 keeps sending all
    simulcast copies); with Teams C2 itself backs off and must probe its way
    back up, which is what makes Teams slow to recover.
    """
    results = _run_disruptions(
        "down", (drop_to_mbps,), vcas, duration_s, repetitions, seed,
        drop_at_s, drop_duration_s, host="C2", **campaign,
    )
    return {
        vca: _mean_trace(
            FigureSeries("fig6", vca, "time (s)", "C2 upstream bitrate (Mbps)"), result
        )
        for vca, result in zip(vcas, results)
    }
