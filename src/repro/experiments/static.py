"""Section 3 -- static network conditions.

Reproduces:

* **Table 2** -- unconstrained upstream / downstream utilization per VCA,
* **Figure 1a/1b** -- median bitrate vs uplink / downlink capacity,
* **Figure 1c** -- native vs browser clients under uplink shaping,
* **Figure 2** -- encoding parameters (QP, FPS, frame width) vs capacity for
  Meet and Teams-Chrome,
* **Figure 3a/3b** -- freeze ratio vs downlink capacity and FIR count vs
  uplink capacity.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from repro.core.analysis import aggregate_runs
from repro.core.campaign import CampaignPolicy, Condition, run_campaign
from repro.core.profiles import STATIC_SHAPING_LEVELS_MBPS
from repro.core.results import FigureSeries, TableResult
from repro.netem.scenarios import ScenarioSpec, run_scenario

__all__ = [
    "DEFAULT_VCAS",
    "call_spec",
    "measure_capacity_point",
    "run_unconstrained_utilization",
    "run_capacity_sweep",
    "run_platform_comparison",
    "run_encoding_parameters",
    "run_video_freezes",
]

#: The three headline applications of the paper.
DEFAULT_VCAS: tuple[str, ...] = ("meet", "teams", "zoom")

#: The two applications for which WebRTC statistics are available (Section 3.2).
STATS_VCAS: tuple[str, ...] = ("meet", "teams-chrome")


def call_spec(vca: str, duration_s: float, **fields: Any) -> ScenarioSpec:
    """The scenario of one paper call, C1 measured behind its access link.

    ``fields`` are further :class:`ScenarioSpec` fields (``direction``,
    ``profile``, ``participants``, ``view_mode``, ``pinned``).  Driver specs
    are never registered, so the name is descriptive only.
    """
    return ScenarioSpec(
        name=f"paper/{vca}", description="paper figure call", vca=vca, duration_s=duration_s,
        **fields,
    )


def _shaped(vca: str, direction: str, capacity_mbps: float, duration_s: float) -> ScenarioSpec:
    """A call whose ``direction`` of C1's access link is held at ``capacity_mbps``."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    return call_spec(
        vca, duration_s, direction=direction, profile=("constant", {"mbps": capacity_mbps})
    )


def run_unconstrained_utilization(
    vcas: Sequence[str] = DEFAULT_VCAS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
) -> TableResult:
    """Table 2: average up/down utilization on an unconstrained link."""
    table = TableResult(
        table_id="table2",
        title="Table 2: Unconstrained network utilization (Mbps)",
        columns=("vca", "upstream_mbps", "downstream_mbps", "up_ci_low", "up_ci_high"),
    )
    for vca in vcas:
        ups, downs = [], []
        for repetition in range(repetitions):
            metrics = run_scenario(
                call_spec(vca, duration_s), seed=seed + repetition, collect_stats=False
            ).metrics()
            ups.append(metrics["mean_up_mbps"])
            downs.append(metrics["mean_down_mbps"])
        up_summary = aggregate_runs(ups)
        down_summary = aggregate_runs(downs)
        table.add_row(vca, up_summary.mean, down_summary.mean, up_summary.ci_low, up_summary.ci_high)
    return table


def measure_capacity_point(
    vca: str,
    direction: str,
    capacity_mbps: float,
    duration_s: float = 150.0,
    seed: int = 0,
) -> dict[str, float]:
    """One repetition of one Figure 1 grid cell (campaign work unit).

    Module-level (hence picklable) so :func:`repro.core.campaign.run_campaign`
    can execute it in a worker process.
    """
    spec = _shaped(vca, direction, capacity_mbps, duration_s)
    metrics = run_scenario(spec, seed=seed, collect_stats=False).metrics()
    return {"median_mbps": metrics[f"median_{direction}_mbps"]}


def run_capacity_sweep(
    direction: str = "up",
    vcas: Sequence[str] = DEFAULT_VCAS,
    levels_mbps: Iterable[float] = STATIC_SHAPING_LEVELS_MBPS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union[str, Path, None, object] = None,
    policy: Optional[CampaignPolicy] = None,
) -> dict[str, FigureSeries]:
    """Figure 1a/1b: median bitrate vs shaped capacity, one series per VCA.

    ``workers`` fans the (level x vca x repetition) grid out over the
    supervised campaign pool of :func:`repro.core.campaign.run_campaign`;
    the default (serial) produces identical numbers.  ``store`` (a
    :class:`repro.results.ResultStore` or directory path) makes the sweep
    incremental: unchanged grid cells re-score from cache, so re-running an
    interrupted sweep resumes it.  ``policy`` tunes
    timeouts/retries/quarantine.
    """
    figure_id = "fig1a" if direction == "up" else "fig1b"
    series: dict[str, FigureSeries] = {
        vca: FigureSeries(
            figure_id=figure_id,
            series_name=vca,
            x_label=f"{direction}link capacity (Mbps)",
            y_label="median bitrate (Mbps)",
        )
        for vca in vcas
    }
    levels = list(levels_mbps)
    conditions = [
        Condition(
            name=f"{vca}@{level}{direction}",
            fn=measure_capacity_point,
            params={
                "vca": vca,
                "direction": direction,
                "capacity_mbps": level,
                "duration_s": duration_s,
            },
            repetitions=repetitions,
            seed=seed,
        )
        for level in levels
        for vca in vcas
    ]
    results = run_campaign(conditions, workers=workers, store=store, policy=policy)
    for condition_result, (level, vca) in zip(
        results, ((level, vca) for level in levels for vca in vcas)
    ):
        summary = condition_result.summary("median_mbps")
        series[vca].add_point(level, summary.median, summary.ci_low, summary.ci_high)
    return series


def run_platform_comparison(
    direction: str = "up",
    vcas: Sequence[str] = ("teams", "teams-chrome", "zoom", "zoom-chrome"),
    levels_mbps: Iterable[float] = STATIC_SHAPING_LEVELS_MBPS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union[str, Path, None, object] = None,
    policy: Optional[CampaignPolicy] = None,
) -> dict[str, FigureSeries]:
    """Figure 1c: native vs Chrome clients under uplink shaping."""
    result = run_capacity_sweep(
        direction=direction,
        vcas=vcas,
        levels_mbps=levels_mbps,
        duration_s=duration_s,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        store=store,
        policy=policy,
    )
    for series in result.values():
        series.figure_id = "fig1c"
    return result


def run_encoding_parameters(
    direction: str = "down",
    vcas: Sequence[str] = STATS_VCAS,
    levels_mbps: Iterable[float] = (0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0),
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 2: QP / FPS / frame width vs capacity from the WebRTC stats.

    Returns ``{metric: {vca: series}}`` for metrics ``qp``, ``fps``, ``width``.
    For downlink constraints the received-stream statistics are reported (the
    stream whose quality the constraint affects); for uplink constraints the
    sent-stream statistics are reported, as in the paper.
    """
    metrics = ("qp", "fps", "width")
    stat_keys = {
        "down": {"qp": "received_qp", "fps": "received_fps", "width": "received_width"},
        "up": {"qp": "sent_qp", "fps": "sent_fps", "width": "sent_width"},
    }[direction]
    figure_id = "fig2-down" if direction == "down" else "fig2-up"
    out: dict[str, dict[str, FigureSeries]] = {
        metric: {
            vca: FigureSeries(
                figure_id=figure_id,
                series_name=vca,
                x_label=f"{direction}link capacity (Mbps)",
                y_label=metric,
            )
            for vca in vcas
        }
        for metric in metrics
    }
    for level in levels_mbps:
        for vca in vcas:
            collected: dict[str, list[float]] = {metric: [] for metric in metrics}
            for repetition in range(repetitions):
                run = run_scenario(
                    _shaped(vca, direction, level, duration_s), seed=seed + repetition
                )
                for metric in metrics:
                    collected[metric].append(run.mean_stat(stat_keys[metric]))
            for metric in metrics:
                summary = aggregate_runs(collected[metric])
                out[metric][vca].add_point(level, summary.mean, summary.ci_low, summary.ci_high)
    return out


def run_video_freezes(
    vcas: Sequence[str] = STATS_VCAS,
    levels_mbps: Iterable[float] = (0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0),
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 3: freeze ratio vs downlink capacity, FIR count vs uplink capacity.

    Returns ``{"freeze_ratio": {vca: series}, "fir_count": {vca: series}}``.
    """
    freeze_series = {
        vca: FigureSeries("fig3a", vca, "downlink capacity (Mbps)", "freeze ratio") for vca in vcas
    }
    fir_series = {
        vca: FigureSeries("fig3b", vca, "uplink capacity (Mbps)", "total FIR count") for vca in vcas
    }
    for level in levels_mbps:
        for vca in vcas:
            freezes, firs = [], []
            for repetition in range(repetitions):
                down_run = run_scenario(
                    _shaped(vca, "down", level, duration_s), seed=seed + repetition
                )
                freezes.append(down_run.freeze_ratio())
                up_run = run_scenario(_shaped(vca, "up", level, duration_s), seed=seed + repetition)
                firs.append(float(up_run.fir_count()))
            f_summary = aggregate_runs(freezes)
            r_summary = aggregate_runs(firs)
            freeze_series[vca].add_point(level, f_summary.mean, f_summary.ci_low, f_summary.ci_high)
            fir_series[vca].add_point(level, r_summary.mean, r_summary.ci_low, r_summary.ci_high)
    return {"freeze_ratio": freeze_series, "fir_count": fir_series}
