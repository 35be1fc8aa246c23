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

from typing import Any, Mapping, Sequence

import numpy as np

from repro.apps.netflix import NetflixPlayer
from repro.core.analysis import aggregate_runs
from repro.core.results import FigureSeries, TableResult
from repro.netem.scenarios import (
    CALL_START_S,
    WORKLOAD_CLIENT,
    ScenarioRun,
    ScenarioSpec,
    run_scenario,
)
from repro.experiments.static import DEFAULT_VCAS

__all__ = [
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


def _run_workload(
    incumbent_vca: str,
    workload_kind: str,
    workload_params: Mapping[str, Any],
    capacity_mbps: float,
    competitor_duration_s: float,
    seed: int,
) -> ScenarioRun:
    spec = workload_scenario_spec(
        incumbent_vca, workload_kind, workload_params, capacity_mbps, competitor_duration_s
    )
    # The drivers only read packet captures, never per-second stats.
    return run_scenario(spec, seed=seed, collect_stats=False)


def _trace(
    figure_id: str, name: str, y_label: str, data: tuple[np.ndarray, np.ndarray]
) -> FigureSeries:
    """A per-second bitrate trace as a figure series."""
    figure = FigureSeries(figure_id, name, "time (s)", y_label)
    for t, value in zip(*data):
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
) -> TableResult:
    """Figures 8 / 10: link share of each incumbent against each competitor.

    Shares are :meth:`ScenarioRun.share` over the competition window, which
    starts ``min(10 s, duration / 3)`` after the competitor does.
    """
    figure_id = "fig8" if direction == "up" else "fig10"
    table = TableResult(
        table_id=figure_id,
        title=f"{figure_id}: incumbent share of the {direction}link at {capacity_mbps} Mbps",
        columns=("incumbent", "competitor", "incumbent_share", "share_ci_low", "share_ci_high"),
    )
    for incumbent in incumbents:
        for competitor in competitors:
            shares = []
            for repetition in range(repetitions):
                run = _run_workload(
                    incumbent,
                    "vca",
                    {"app": competitor},
                    capacity_mbps,
                    competitor_duration_s,
                    seed + repetition,
                )
                shares.append(run.share(direction))
            summary = aggregate_runs(shares)
            table.add_row(incumbent, competitor, summary.mean, summary.ci_low, summary.ci_high)
    return table


def run_self_competition_timeseries(
    vcas: Sequence[str] = ("zoom", "meet"),
    capacity_mbps: float = 0.5,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 9: upstream traces of two same-VCA calls sharing a 0.5 Mbps link."""
    out: dict[str, dict[str, FigureSeries]] = {}
    for vca in vcas:
        run = _run_workload(vca, "vca", {"app": vca}, capacity_mbps, competitor_duration_s, seed)
        out[vca] = {
            label: _trace(
                "fig9", f"{vca}-{label}", "upstream bitrate (Mbps)", run.bitrate_series("tx", host)
            )
            for label, host in (("incumbent", "C1"), ("competitor", WORKLOAD_CLIENT))
        }
    return out


def run_pair_timeseries(
    incumbent: str = "teams",
    competitor: str = "zoom",
    capacity_mbps: float = 1.0,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 11: Teams (incumbent) vs Zoom traces in both directions."""
    run = _run_workload(
        incumbent, "vca", {"app": competitor}, capacity_mbps, competitor_duration_s, seed
    )
    out: dict[str, dict[str, FigureSeries]] = {}
    for direction, tx_rx in (("up", "tx"), ("down", "rx")):
        out[direction] = {
            label: _trace(
                "fig11",
                f"{name}-{direction}",
                f"{direction}stream bitrate (Mbps)",
                run.bitrate_series(tx_rx, host),
            )
            for label, name, host in (
                ("incumbent", incumbent, "C1"),
                ("competitor", competitor, WORKLOAD_CLIENT),
            )
        }
    return out


def run_vca_vs_tcp(
    capacity_mbps: float = 2.0,
    vcas: Sequence[str] = DEFAULT_VCAS,
    repetitions: int = 3,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> TableResult:
    """Figure 12: the share iPerf3 obtains against each incumbent VCA.

    Shares use the same competition window as :func:`run_vca_vs_vca`.
    """
    table = TableResult(
        table_id="fig12",
        title=f"fig12: iPerf3 share of a {capacity_mbps} Mbps link vs incumbent VCAs",
        columns=("incumbent", "direction", "iperf_share", "vca_share", "ci_low", "ci_high"),
    )
    for vca in vcas:
        for direction in ("up", "down"):
            shares = []
            for repetition in range(repetitions):
                run = _run_workload(
                    vca,
                    "tcp_bulk",
                    {"flows": 1, "direction": direction},
                    capacity_mbps,
                    competitor_duration_s,
                    seed + repetition,
                )
                shares.append(run.share(direction))
            summary = aggregate_runs(shares)
            table.add_row(vca, direction, 1.0 - summary.mean, summary.mean, summary.ci_low, summary.ci_high)
    return table


def run_zoom_burst_trace(
    capacity_mbps: float = 2.0,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> dict[str, FigureSeries]:
    """Figure 13: downstream traces of Zoom and a competing iPerf3 download."""
    run = _run_workload(
        "zoom", "tcp_bulk", {"flows": 1, "direction": "down"},
        capacity_mbps, competitor_duration_s, seed,
    )
    return {
        label: _trace("fig13", label, "downstream bitrate (Mbps)", run.bitrate_series("rx", host))
        for label, host in (("zoom", "C1"), ("iperf3", WORKLOAD_CLIENT))
    }


def run_vca_vs_streaming(
    vca: str = "zoom",
    app: str = "netflix",
    capacity_mbps: float = 0.5,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> dict[str, FigureSeries]:
    """Figure 14: a VCA vs a streaming application on a constrained downlink.

    Returns the two downstream traces plus (for Netflix) the number of TCP
    connections open per chunk over time.
    """
    run = _run_workload(
        vca, "streaming", {"app": app}, capacity_mbps, competitor_duration_s, seed
    )
    out = {
        label: _trace("fig14a", label, "downstream bitrate (Mbps)", run.bitrate_series("rx", host))
        for label, host in ((vca, "C1"), (app, WORKLOAD_CLIENT))
    }
    player = run.workload_apps[0] if run.workload_apps else None
    if isinstance(player, NetflixPlayer):
        connections = FigureSeries("fig14b", "tcp-connections", "time (s)", "parallel TCP connections")
        for t, count in player.connection_log:
            connections.add_point(float(t), float(count))
        connections_total = FigureSeries("fig14b-total", "connections-opened", "time (s)", "count")
        connections_total.add_point(run.workload_end_s, float(player.connections_opened))
        out["tcp_connections"] = connections
        out["tcp_connections_total"] = connections_total
    return out
