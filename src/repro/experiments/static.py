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

from typing import Any, Callable, Iterable, Sequence

from repro.core.campaign import Condition, run_campaign
from repro.core.profiles import STATIC_SHAPING_LEVELS_MBPS
from repro.core.results import FigureSeries, TableResult
from repro.netem.scenarios import ScenarioSpec, run_scenario

__all__ = [
    "DEFAULT_VCAS",
    "call_spec",
    "check_direction",
    "measure_utilization_point",
    "measure_capacity_point",
    "measure_stats_point",
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


def check_direction(direction: str) -> None:
    """Reject a ``direction`` other than ``"up"`` or ``"down"``."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")


def _shaped(vca: str, direction: str, capacity_mbps: float, duration_s: float) -> ScenarioSpec:
    """A call whose ``direction`` of C1's access link is held at ``capacity_mbps``."""
    check_direction(direction)
    return call_spec(
        vca, duration_s, direction=direction, profile=("constant", {"mbps": capacity_mbps})
    )


def measure_utilization_point(
    vca: str, duration_s: float = 150.0, seed: int = 0
) -> dict[str, float]:
    """One repetition of one Table 2 row (campaign work unit)."""
    metrics = run_scenario(call_spec(vca, duration_s), seed=seed, collect_stats=False).metrics()
    return {"up_mbps": metrics["mean_up_mbps"], "down_mbps": metrics["mean_down_mbps"]}


def run_unconstrained_utilization(
    vcas: Sequence[str] = DEFAULT_VCAS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
) -> TableResult:
    """Table 2: average up/down utilization on an unconstrained link."""
    table = TableResult(
        table_id="table2",
        title="Table 2: Unconstrained network utilization (Mbps)",
        columns=("vca", "upstream_mbps", "downstream_mbps", "up_ci_low", "up_ci_high"),
    )
    conditions = [
        Condition(
            name=vca,
            fn=measure_utilization_point,
            params={"vca": vca, "duration_s": duration_s},
            repetitions=repetitions,
            seed=seed,
        )
        for vca in vcas
    ]
    for vca, result in zip(vcas, run_campaign(conditions, **campaign)):
        up, down = result.summary("up_mbps"), result.summary("down_mbps")
        table.add_row(vca, up.mean, down.mean, up.ci_low, up.ci_high)
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


def _shaped_conditions(
    fn: Callable[..., dict[str, float]],
    directions: Sequence[str],
    levels: Sequence[float],
    vcas: Sequence[str],
    duration_s: float,
    repetitions: int,
    seed: int,
) -> list[Condition]:
    """One ``fn`` condition per (level, vca, direction) of a shaping grid."""
    return [
        Condition(
            name=f"{vca}@{level}{direction}",
            fn=fn,
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
        for direction in directions
    ]


def run_capacity_sweep(
    direction: str = "up",
    vcas: Sequence[str] = DEFAULT_VCAS,
    levels_mbps: Iterable[float] = STATIC_SHAPING_LEVELS_MBPS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 1a/1b: median bitrate vs shaped capacity, one series per VCA."""
    check_direction(direction)
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
    conditions = _shaped_conditions(
        measure_capacity_point, (direction,), levels, vcas, duration_s, repetitions, seed
    )
    grid = [(level, vca) for level in levels for vca in vcas]
    for (level, vca), result in zip(grid, run_campaign(conditions, **campaign)):
        summary = result.summary("median_mbps")
        series[vca].add_point(level, summary.median, summary.ci_low, summary.ci_high)
    return series


def run_platform_comparison(
    direction: str = "up",
    vcas: Sequence[str] = ("teams", "teams-chrome", "zoom", "zoom-chrome"),
    levels_mbps: Iterable[float] = STATIC_SHAPING_LEVELS_MBPS,
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 1c: native vs Chrome clients under uplink shaping."""
    result = run_capacity_sweep(
        direction=direction,
        vcas=vcas,
        levels_mbps=levels_mbps,
        duration_s=duration_s,
        repetitions=repetitions,
        seed=seed,
        **campaign,
    )
    for series in result.values():
        series.figure_id = "fig1c"
    return result


#: The WebRTC stat behind each Figure 2 metric: the sent stream's under an
#: uplink constraint, the received stream's under a downlink one.
_STAT_KEYS = {
    "up": {"qp": "sent_qp", "fps": "sent_fps", "width": "sent_width"},
    "down": {"qp": "received_qp", "fps": "received_fps", "width": "received_width"},
}


def measure_stats_point(
    vca: str,
    direction: str,
    capacity_mbps: float,
    duration_s: float = 150.0,
    seed: int = 0,
) -> dict[str, float]:
    """One repetition of one Figure 2 / Figure 3 grid cell (campaign work unit).

    Returns the steady-window means of the ``direction``'s encoding stats
    (``qp``, ``fps``, ``width``), C1's freeze ratio and the FIR count the
    other participants sent for C1's video.
    """
    run = run_scenario(_shaped(vca, direction, capacity_mbps, duration_s), seed=seed)
    metrics = {metric: run.mean_stat(key) for metric, key in _STAT_KEYS[direction].items()}
    metrics["freeze_ratio"] = run.freeze_ratio()
    metrics["fir_count"] = float(run.fir_count())
    return metrics


def run_encoding_parameters(
    direction: str = "down",
    vcas: Sequence[str] = STATS_VCAS,
    levels_mbps: Iterable[float] = (0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0),
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 2: QP / FPS / frame width vs capacity from the WebRTC stats.

    Returns ``{metric: {vca: series}}`` for metrics ``qp``, ``fps``, ``width``.
    For downlink constraints the received-stream statistics are reported (the
    stream whose quality the constraint affects); for uplink constraints the
    sent-stream statistics are reported, as in the paper.
    """
    check_direction(direction)
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
        for metric in _STAT_KEYS[direction]
    }
    levels = list(levels_mbps)
    conditions = _shaped_conditions(
        measure_stats_point, (direction,), levels, vcas, duration_s, repetitions, seed
    )
    grid = [(level, vca) for level in levels for vca in vcas]
    for (level, vca), result in zip(grid, run_campaign(conditions, **campaign)):
        for metric, series in out.items():
            summary = result.summary(metric)
            series[vca].add_point(level, summary.mean, summary.ci_low, summary.ci_high)
    return out


def run_video_freezes(
    vcas: Sequence[str] = STATS_VCAS,
    levels_mbps: Iterable[float] = (0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0),
    duration_s: float = 150.0,
    repetitions: int = 5,
    seed: int = 0,
    **campaign: Any,
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
    levels = list(levels_mbps)
    conditions = _shaped_conditions(
        measure_stats_point, ("down", "up"), levels, vcas, duration_s, repetitions, seed
    )
    results = iter(run_campaign(conditions, **campaign))
    for level in levels:
        for vca in vcas:
            f_summary = next(results).summary("freeze_ratio")
            r_summary = next(results).summary("fir_count")
            freeze_series[vca].add_point(level, f_summary.mean, f_summary.ci_low, f_summary.ci_high)
            fir_series[vca].add_point(level, r_summary.mean, r_summary.ci_low, r_summary.ci_high)
    return {"freeze_ratio": freeze_series, "fir_count": fir_series}
