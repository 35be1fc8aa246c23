"""Section 5 -- competing applications on a shared bottleneck.

Reproduces:

* **Figures 8 and 10** -- uplink / downlink share when an incumbent VCA
  competes with another VCA call on a 0.5 Mbps symmetric link,
* **Figure 9** -- bitrate traces of two Zoom calls and two Meet calls
  competing with each other,
* **Figure 11** -- Teams (incumbent) vs Zoom traces on a 1 Mbps link,
* **Figure 12** -- the share an iPerf3 TCP flow obtains against each VCA on
  a 2 Mbps link (both directions),
* **Figure 13** -- Zoom's probing bursts hurting the competing TCP flow,
* **Figure 14** -- Zoom vs Netflix on a 0.5 Mbps downlink, including the
  number of TCP connections Netflix opens.

Every driver runs on the scenario API's ``workload`` axis: it compiles a
:class:`~repro.netem.scenarios.ScenarioSpec` with the matching cross-traffic
component (see :func:`workload_scenario_spec`), so the competitor ``F1``
shares the measured client C1's shaped access link, and reads shares and
per-second traces of C1 and ``F1`` from the
:class:`~repro.netem.scenarios.ScenarioRun`.  The same specs compose with
every netem condition and cache through the result store.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.apps.netflix import NetflixPlayer
from repro.calibrate.constants import COMMITTED_CONSTANTS, active_constants, set_active_constants
from repro.core.campaign import Condition, ConditionResult, run_campaign
from repro.core.results import FigureSeries, TableResult
from repro.netem.scenarios import (
    CALL_START_S, WORKLOAD_CLIENT, WORKLOAD_SERVER, ScenarioSpec, run_scenario,
)
from repro.experiments.static import DEFAULT_VCAS, check_direction

__all__ = [
    "competition_conditions",
    "measure_competition_point",
    "run_vca_vs_vca",
    "run_self_competition_timeseries",
    "run_pair_timeseries",
    "run_vca_vs_tcp",
    "run_zoom_burst_trace",
    "run_vca_vs_streaming",
    "workload_scenario_spec",
]

#: Timeline constants from the paper: the incumbent call is established
#: first, the competing application starts ~30 s later and runs for two
#: minutes, and the incumbent continues for another minute afterwards.
COMPETITOR_START_S = 32.0
COMPETITOR_DURATION_S = 120.0
TAIL_S = 60.0

#: The traced (tx_rx, host) pairs: the incumbent C1 and the competitor F1.
_TRACES = tuple((tx_rx, host) for tx_rx in ("tx", "rx") for host in ("C1", WORKLOAD_CLIENT))


def workload_scenario_spec(
    incumbent_vca: str,
    workload_kind: str,
    workload_params: Mapping[str, Any],
    capacity_mbps: float,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
) -> ScenarioSpec:
    """The ScenarioSpec of one Section 5 competition experiment.

    Reproduces the paper's Section 5 timeline on the scenario API: both
    directions of the access link shaped to ``capacity_mbps``, the workload
    starting ``COMPETITOR_START_S - CALL_START_S`` seconds after the measured
    call joins and running for ``competitor_duration_s``, then a
    :data:`TAIL_S` cool-down with the incumbent alone.  Every driver of this
    module runs this spec; callers that need another condition build it (or
    their own variant) and use :func:`repro.netem.scenarios.run_scenario`.
    """
    params = dict(workload_params)
    params["start_offset_s"] = COMPETITOR_START_S - CALL_START_S
    params["duration_s"] = float(competitor_duration_s)
    label = params.get("app", params.get("direction", workload_kind))
    return ScenarioSpec(
        name=f"section5/{incumbent_vca}-vs-{workload_kind}-{label}",
        description=(
            f"Section 5 competition: {incumbent_vca} vs {workload_kind} "
            f"({label}) on a {capacity_mbps} Mbps symmetric link"
        ),
        vca=incumbent_vca,
        direction="both",
        profile=("constant", {"mbps": float(capacity_mbps)}),
        workload=(workload_kind, params),
        duration_s=(COMPETITOR_START_S - CALL_START_S) + float(competitor_duration_s) + TAIL_S,
    )


def measure_competition_point(
    incumbent_vca: str,
    workload_kind: str,
    workload_params: Mapping[str, Any],
    capacity_mbps: float,
    competitor_duration_s: float,
    duration_s: Optional[float] = None,
    seed: int = 0,
    overrides: Optional[Mapping[str, float]] = None,
) -> dict[str, Any]:
    """One repetition of one Section 5 cell (campaign work unit).

    Runs :func:`workload_scenario_spec` for ``duration_s`` (the spec's own
    call length by default) and returns C1's link shares (``share_up``,
    ``share_down``), the per-second ``[times, mbps]`` trace of each
    ``"{tx_rx}:{host}"`` of C1 and the competitor F1, against a VCA its
    relay's tx-side downlink loss (``competitor_tx_loss_rate``), and --
    against Netflix -- the player's ``[time, connections]`` log, the number
    of connections it opened and the workload's end time.  ``overrides``
    (a calibration candidate) replaces committed constants for this call.
    """
    spec = workload_scenario_spec(
        incumbent_vca, workload_kind, workload_params, capacity_mbps, competitor_duration_s
    )
    candidate = COMMITTED_CONSTANTS.replace(**overrides) if overrides else active_constants()
    previous = set_active_constants(candidate)
    try:
        # The drivers only read packet captures, never per-second stats.
        run = run_scenario(spec, seed=seed, duration_s=duration_s, collect_stats=False)
    finally:
        set_active_constants(previous)
    metrics: dict[str, Any] = {"share_up": run.share("up"), "share_down": run.share("down")}
    for tx_rx, host in _TRACES:
        times, mbps = run.bitrate_series(tx_rx, host)
        metrics[f"{tx_rx}:{host}"] = [times.tolist(), mbps.tolist()]
    if workload_kind == "vca":
        metrics["competitor_tx_loss_rate"] = run.relay_tx_loss(
            WORKLOAD_SERVER, WORKLOAD_CLIENT, "competitor"
        )
    player = run.workload_apps[0] if run.workload_apps else None
    if isinstance(player, NetflixPlayer):
        metrics["connection_log"] = [[t, count] for t, count in player.connection_log]
        metrics["connections_opened"] = player.connections_opened
        metrics["workload_end_s"] = run.workload_end_s
    return metrics


def competition_conditions(
    cells: Sequence[tuple[str, str, Mapping[str, Any], float]],
    competitor_duration_s: float,
    repetitions: int,
    seed: int,
    overrides: Optional[Mapping[str, float]] = None,
) -> list[Condition]:
    """Campaign conditions of Section 5 cells given as ``(incumbent, kind, params, Mbps)``.

    ``overrides`` joins the unit params only when non-empty, so a
    committed-constant unit keys one store entry whichever driver runs it.
    """
    conditions = []
    for incumbent, kind, params, capacity_mbps in cells:
        spec = workload_scenario_spec(incumbent, kind, params, capacity_mbps, competitor_duration_s)
        unit_params = {
            "incumbent_vca": incumbent,
            "workload_kind": kind,
            "workload_params": dict(params),
            "capacity_mbps": capacity_mbps,
            "competitor_duration_s": competitor_duration_s,
            # The call's length, from which the campaign budgets the unit.
            "duration_s": spec.duration_s,
            **({"overrides": dict(overrides)} if overrides else {}),
        }
        conditions.append(
            Condition(spec.name, measure_competition_point, unit_params, repetitions, seed)
        )
    return conditions


def _only_run(result: ConditionResult) -> Mapping[str, Any]:
    """The single repetition of a trace cell; empty when it was quarantined."""
    return result.runs[0] if result.runs else {}


def _trace(
    figure_id: str, name: str, y_label: str, run: Mapping[str, Any], key: str
) -> FigureSeries:
    """The per-second ``[times, mbps]`` trace ``run[key]``; no points if quarantined."""
    figure = FigureSeries(figure_id, name, "time (s)", y_label)
    for t, value in zip(*run.get(key, ((), ()))):
        figure.add_point(float(t), float(value))
    return figure


def run_vca_vs_vca(
    direction: str = "up",
    capacity_mbps: float = 0.5,
    incumbents: Sequence[str] = DEFAULT_VCAS,
    competitors: Sequence[str] = DEFAULT_VCAS,
    repetitions: int = 3,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> TableResult:
    """Figures 8 / 10: link share of each incumbent against each competitor.

    Shares are :meth:`ScenarioRun.share` over the competition window, which
    starts ``min(10 s, duration / 3)`` after the competitor does.
    """
    check_direction(direction)
    figure_id = "fig8" if direction == "up" else "fig10"
    table = TableResult(
        table_id=figure_id,
        title=f"{figure_id}: incumbent share of the {direction}link at {capacity_mbps} Mbps",
        columns=("incumbent", "competitor", "incumbent_share", "share_ci_low", "share_ci_high"),
    )
    pairs = [(incumbent, competitor) for incumbent in incumbents for competitor in competitors]
    results = run_campaign(competition_conditions(
        [(incumbent, "vca", {"app": competitor}, capacity_mbps)
         for incumbent, competitor in pairs],
        competitor_duration_s, repetitions, seed,
    ), **campaign)
    for (incumbent, competitor), result in zip(pairs, results):
        summary = result.summary(f"share_{direction}")
        table.add_row(incumbent, competitor, summary.mean, summary.ci_low, summary.ci_high)
    return table


def run_self_competition_timeseries(
    vcas: Sequence[str] = ("zoom", "meet"),
    capacity_mbps: float = 0.5,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 9: upstream traces of two same-VCA calls sharing a 0.5 Mbps link."""
    results = run_campaign(competition_conditions(
        [(vca, "vca", {"app": vca}, capacity_mbps) for vca in vcas],
        competitor_duration_s, 1, seed,
    ), **campaign)
    return {
        vca: {
            label: _trace(
                "fig9", f"{vca}-{label}", "upstream bitrate (Mbps)", _only_run(result), f"tx:{host}"
            )
            for label, host in (("incumbent", "C1"), ("competitor", WORKLOAD_CLIENT))
        }
        for vca, result in zip(vcas, results)
    }


def run_pair_timeseries(
    incumbent: str = "teams",
    competitor: str = "zoom",
    capacity_mbps: float = 1.0,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 11: Teams (incumbent) vs Zoom traces in both directions."""
    (result,) = run_campaign(competition_conditions(
        [(incumbent, "vca", {"app": competitor}, capacity_mbps)],
        competitor_duration_s, 1, seed,
    ), **campaign)
    run = _only_run(result)
    return {
        direction: {
            label: _trace(
                "fig11",
                f"{name}-{direction}",
                f"{direction}stream bitrate (Mbps)",
                run,
                f"{tx_rx}:{host}",
            )
            for label, name, host in (
                ("incumbent", incumbent, "C1"),
                ("competitor", competitor, WORKLOAD_CLIENT),
            )
        }
        for direction, tx_rx in (("up", "tx"), ("down", "rx"))
    }


def run_vca_vs_tcp(
    capacity_mbps: float = 2.0,
    vcas: Sequence[str] = DEFAULT_VCAS,
    repetitions: int = 3,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> TableResult:
    """Figure 12: the share iPerf3 obtains against each incumbent VCA.

    Shares use the same competition window as :func:`run_vca_vs_vca`.
    """
    table = TableResult(
        table_id="fig12",
        title=f"fig12: iPerf3 share of a {capacity_mbps} Mbps link vs incumbent VCAs",
        columns=("incumbent", "direction", "iperf_share", "vca_share", "ci_low", "ci_high"),
    )
    grid = [(vca, direction) for vca in vcas for direction in ("up", "down")]
    results = run_campaign(competition_conditions(
        [(vca, "tcp_bulk", {"flows": 1, "direction": direction}, capacity_mbps)
         for vca, direction in grid],
        competitor_duration_s, repetitions, seed,
    ), **campaign)
    for (vca, direction), result in zip(grid, results):
        summary = result.summary(f"share_{direction}")
        table.add_row(vca, direction, 1.0 - summary.mean, summary.mean, summary.ci_low, summary.ci_high)
    return table


def run_zoom_burst_trace(
    capacity_mbps: float = 2.0,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 13: downstream traces of Zoom and a competing iPerf3 download."""
    (result,) = run_campaign(competition_conditions(
        [("zoom", "tcp_bulk", {"flows": 1, "direction": "down"}, capacity_mbps)],
        competitor_duration_s, 1, seed,
    ), **campaign)
    return {
        label: _trace("fig13", label, "downstream bitrate (Mbps)", _only_run(result), f"rx:{host}")
        for label, host in (("zoom", "C1"), ("iperf3", WORKLOAD_CLIENT))
    }


def run_vca_vs_streaming(
    vca: str = "zoom",
    app: str = "netflix",
    capacity_mbps: float = 0.5,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    **campaign: Any,
) -> dict[str, FigureSeries]:
    """Figure 14: a VCA vs a streaming application on a constrained downlink.

    Returns the two downstream traces plus (for Netflix) the number of TCP
    connections open per chunk over time.
    """
    (result,) = run_campaign(competition_conditions(
        [(vca, "streaming", {"app": app}, capacity_mbps)],
        competitor_duration_s, 1, seed,
    ), **campaign)
    run = _only_run(result)
    out = {
        label: _trace("fig14a", label, "downstream bitrate (Mbps)", run, f"rx:{host}")
        for label, host in ((vca, "C1"), (app, WORKLOAD_CLIENT))
    }
    if "connection_log" in run:
        connections = FigureSeries("fig14b", "tcp-connections", "time (s)", "parallel TCP connections")
        for t, count in run["connection_log"]:
            connections.add_point(float(t), float(count))
        connections_total = FigureSeries("fig14b-total", "connections-opened", "time (s)", "count")
        connections_total.add_point(run["workload_end_s"], float(run["connections_opened"]))
        out["tcp_connections"] = connections
        out["tcp_connections_total"] = connections_total
    return out
