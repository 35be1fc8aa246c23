"""Section 6 -- call modalities: participant count and viewing mode.

Reproduces Figure 15:

* **15a** -- C1's downlink utilization vs the number of participants in
  gallery mode,
* **15b** -- C1's uplink utilization vs the number of participants in
  gallery mode,
* **15c** -- C1's uplink utilization vs the number of participants when every
  other participant pins C1's video (speaker mode).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.campaign import Condition, run_campaign
from repro.core.profiles import PARTICIPANT_COUNTS
from repro.core.results import FigureSeries
from repro.experiments.static import DEFAULT_VCAS, call_spec
from repro.netem.scenarios import run_scenario

__all__ = ["measure_participant_point", "run_participant_sweep"]


def measure_participant_point(
    vca: str,
    n_participants: int,
    mode: str = "gallery",
    duration_s: float = 120.0,
    seed: int = 0,
) -> dict[str, float]:
    """One repetition of one Figure 15 grid cell (campaign work unit).

    In ``speaker`` mode every other participant pins C1.
    """
    spec = call_spec(
        vca,
        duration_s,
        participants=n_participants,
        view_mode=mode,
        pinned="C1" if mode == "speaker" else None,
    )
    metrics = run_scenario(spec, seed=seed, collect_stats=False).metrics()
    return {"up_mbps": metrics["mean_up_mbps"], "down_mbps": metrics["mean_down_mbps"]}


def run_participant_sweep(
    mode: str = "gallery",
    vcas: Sequence[str] = DEFAULT_VCAS,
    participant_counts: Iterable[int] = PARTICIPANT_COUNTS,
    duration_s: float = 120.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 15: C1's network utilization vs the number of participants.

    Returns ``{"uplink": {vca: series}, "downlink": {vca: series}}``.  In
    ``speaker`` mode every other participant pins C1 (Figure 15c measures the
    pinned client's uplink).
    """
    if mode not in ("gallery", "speaker"):
        raise ValueError("mode must be 'gallery' or 'speaker'")
    figure_up = "fig15b" if mode == "gallery" else "fig15c"
    uplink: dict[str, FigureSeries] = {
        vca: FigureSeries(figure_up, vca, "number of participants", "uplink bitrate (Mbps)")
        for vca in vcas
    }
    downlink: dict[str, FigureSeries] = {
        vca: FigureSeries("fig15a", vca, "number of participants", "downlink bitrate (Mbps)")
        for vca in vcas
    }
    counts = list(participant_counts)
    grid = [(count, vca) for count in counts for vca in vcas]
    conditions = [
        Condition(
            name=f"{vca}@n{count}-{mode}",
            fn=measure_participant_point,
            params={
                "vca": vca,
                "n_participants": count,
                "mode": mode,
                "duration_s": duration_s,
            },
            repetitions=repetitions,
            seed=seed,
        )
        for count, vca in grid
    ]
    results = run_campaign(conditions, **campaign)
    for condition_result, (count, vca) in zip(results, grid):
        up_summary = condition_result.summary("up_mbps")
        down_summary = condition_result.summary("down_mbps")
        uplink[vca].add_point(count, up_summary.mean, up_summary.ci_low, up_summary.ci_high)
        downlink[vca].add_point(count, down_summary.mean, down_summary.ci_low, down_summary.ci_high)
    return {"uplink": uplink, "downlink": downlink}
