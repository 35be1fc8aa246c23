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

The table/figure drivers for Figures 8/10/12/14 (``run_vca_vs_vca``,
``run_vca_vs_tcp``, ``run_vca_vs_streaming``) are *deprecated adapters*
over the scenario API's ``workload`` axis: each call compiles a
:class:`~repro.netem.scenarios.ScenarioSpec` with the matching cross-traffic
component (see :func:`workload_scenario_spec`) and reconstructs the legacy
output shape from the :class:`~repro.netem.scenarios.ScenarioRun`.  New code
should build workload specs directly -- they compose with every netem
condition and cache through the result store.  ``run_competition`` and the
timeseries drivers (Figures 9/11/13) keep the original fixed two-server
topology; the calibration harness pins its fig8/10/12 metrics to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.apps.iperf import IperfFlow
from repro.apps.netflix import NetflixPlayer
from repro.apps.youtube import YouTubePlayer
from repro.core.analysis import aggregate_runs
from repro.core.capture import PacketCapture
from repro.core.metrics import rate_share, tx_loss_rate
from repro.core.orchestrator import CallOrchestrator
from repro.core.profiles import static_profile
from repro.core.results import FigureSeries, TableResult
from repro.net.simulator import Simulator
from repro.net.topology import build_competition_topology
from repro.netem.scenarios import (
    CALL_START_S,
    WORKLOAD_CLIENT,
    ScenarioRun,
    ScenarioSpec,
    run_scenario,
)
from repro.vca.call import Call, CallConfig
from repro.experiments.static import DEFAULT_VCAS

__all__ = [
    "CompetitionRun",
    "run_competition",
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
INCUMBENT_START_S = 2.0
COMPETITOR_START_S = 32.0
COMPETITOR_DURATION_S = 120.0
TAIL_S = 60.0

#: Competitor kinds that are not VCA calls.
_APP_COMPETITORS = ("iperf-up", "iperf-down", "netflix", "youtube")


@dataclass
class CompetitionRun:
    """Result handle of one competition experiment."""

    sim: Simulator
    capture: PacketCapture
    incumbent_vca: str
    competitor: str
    capacity_mbps: float
    competitor_start_s: float
    competitor_end_s: float
    end_s: float
    netflix: Optional[NetflixPlayer] = None

    def _series(self, host: str, direction: str) -> tuple[np.ndarray, np.ndarray]:
        return self.capture.aggregate(host, direction).timeseries(0.0, self.end_s)

    def incumbent_series(self, direction: str = "tx") -> tuple[np.ndarray, np.ndarray]:
        """Per-second bitrate of the incumbent client C1 ('tx' or 'rx')."""
        return self._series("C1", direction)

    def competitor_series(self, direction: str = "tx") -> tuple[np.ndarray, np.ndarray]:
        """Per-second bitrate of the competing client F1 ('tx' or 'rx')."""
        return self._series("F1", direction)

    def share(self, direction: str = "up") -> float:
        """Incumbent's share of the bottleneck during the competition window."""
        tx_rx = "tx" if direction == "up" else "rx"
        window = (self.competitor_start_s + 10.0, self.competitor_end_s)
        incumbent = self.capture.aggregate("C1", tx_rx).mean_mbps(*window)
        competitor = self.capture.aggregate("F1", tx_rx).mean_mbps(*window)
        return rate_share(incumbent, competitor)

    def downlink_tx_loss(self, client: str, call_id: str) -> float:
        """Tx-side loss of the relay's forwarded media toward ``client``.

        Compares the media bytes the call's server actually transmitted for
        ``client`` against the bytes that arrived, over the competition
        window (requires ``capture_servers=True``).  This is the metric that
        makes the SVC relay's "flood through sustained loss" behaviour
        visible: the rx-side share can look paper-faithful while most of
        what the server sends dies at the bottleneck.
        """
        server = "S1" if call_id == "incumbent" else "S2"
        # Same 10 s competition lead-in as share(), but capped so reduced
        # runs (competitor window <= 10 s) keep a non-empty window.
        duration = self.competitor_end_s - self.competitor_start_s
        lead_in = min(10.0, duration / 3.0)
        window = (self.competitor_start_s + lead_in, self.competitor_end_s)
        prefix = f"{call_id}:down:"
        suffix = f">{client}"
        sent = sum(
            series.total_bytes(*window)
            for series in self.capture.flows_at(server, "tx")
            if series.flow_id.startswith(prefix) and series.flow_id.endswith(suffix)
        )
        received = sum(
            series.total_bytes(*window)
            for series in self.capture.flows_at(client, "rx")
            if series.flow_id.startswith(prefix) and series.flow_id.endswith(suffix)
        )
        return tx_loss_rate(sent, received)


def run_competition(
    incumbent_vca: str,
    competitor: str,
    capacity_mbps: float,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
    capture_servers: bool = False,
) -> CompetitionRun:
    """Run one incumbent-vs-competitor experiment on a shared bottleneck.

    ``competitor`` is either a VCA name (a second call is established through
    a separate media server) or one of ``iperf-up``, ``iperf-down``,
    ``netflix``, ``youtube``.  ``capture_servers`` additionally taps the
    S1/S2 server hosts so tx-side metrics (what the relay *sent* vs what the
    client received, :func:`repro.core.metrics.tx_loss_rate`) can be
    computed; taps are passive and do not perturb the run.
    """
    sim = Simulator(seed=seed)
    topo = build_competition_topology(sim)
    profile = static_profile(capacity_mbps)
    topo.shape(up_profile=profile, down_profile=static_profile(capacity_mbps))

    capture = PacketCapture(sim)
    capture.attach(topo.host("C1"))
    capture.attach(topo.host("F1"))
    if capture_servers:
        capture.attach(topo.host("S1"))
        capture.attach(topo.host("S2"))

    orchestrator = CallOrchestrator(sim)
    incumbent = Call(
        sim,
        [topo.host("C1"), topo.host("C2")],
        topo.host("S1"),
        CallConfig(vca=incumbent_vca, call_id="incumbent", seed=seed, collect_stats=False),
    )
    competitor_end_s = COMPETITOR_START_S + competitor_duration_s
    end_s = competitor_end_s + TAIL_S
    orchestrator.run_call(incumbent, start=INCUMBENT_START_S, duration=end_s - INCUMBENT_START_S)

    netflix_player: Optional[NetflixPlayer] = None
    if competitor in _APP_COMPETITORS:
        if competitor.startswith("iperf"):
            direction = "up" if competitor.endswith("up") else "down"
            app = IperfFlow(sim, client=topo.host("F1"), server=topo.host("S2"), direction=direction)
        elif competitor == "netflix":
            app = NetflixPlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
            netflix_player = app
        else:
            app = YouTubePlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
        orchestrator.run_competitor(app, start=COMPETITOR_START_S, duration=competitor_duration_s)
    else:
        competing_call = Call(
            sim,
            [topo.host("F1"), topo.host("F2")],
            topo.host("S2"),
            CallConfig(vca=competitor, call_id="competitor", seed=seed + 500, collect_stats=False),
        )
        orchestrator.run_call(competing_call, start=COMPETITOR_START_S, duration=competitor_duration_s)

    sim.run(until=end_s + 2.0)
    return CompetitionRun(
        sim=sim,
        capture=capture,
        incumbent_vca=incumbent_vca,
        competitor=competitor,
        capacity_mbps=capacity_mbps,
        competitor_start_s=COMPETITOR_START_S,
        competitor_end_s=competitor_end_s,
        end_s=end_s,
        netflix=netflix_player,
    )


def workload_scenario_spec(
    incumbent_vca: str,
    workload_kind: str,
    workload_params: Mapping[str, Any],
    capacity_mbps: float,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
) -> ScenarioSpec:
    """The ScenarioSpec equivalent of one legacy competition experiment.

    Reproduces the paper's Section 5 timeline on the scenario API: both
    directions of the access link shaped to ``capacity_mbps``, the workload
    starting ``COMPETITOR_START_S - CALL_START_S`` seconds after the measured
    call joins and running for ``competitor_duration_s``, then a
    :data:`TAIL_S` cool-down with the incumbent alone.  This is the spec the
    deprecated ``run_vca_vs_*`` adapters run; migrating callers should build
    it (or their own variant) and use
    :func:`repro.netem.scenarios.run_scenario` directly.
    """
    params = dict(workload_params)
    params["start_offset_s"] = COMPETITOR_START_S - CALL_START_S
    params["duration_s"] = float(competitor_duration_s)
    label = params.get("app", params.get("direction", workload_kind))
    return ScenarioSpec(
        name=f"adapter/{incumbent_vca}-vs-{workload_kind}-{label}",
        description=(
            f"Legacy competition adapter: {incumbent_vca} vs {workload_kind} "
            f"({label}) on a {capacity_mbps} Mbps symmetric link"
        ),
        vca=incumbent_vca,
        direction="both",
        profile=("constant", {"mbps": float(capacity_mbps)}),
        workload=(workload_kind, params),
        duration_s=(COMPETITOR_START_S - CALL_START_S) + float(competitor_duration_s) + TAIL_S,
    )


def _warn_deprecated(name: str) -> None:
    warnings.warn(
        f"{name} is a deprecated adapter over the scenario workload axis; "
        "build a ScenarioSpec with workload=(kind, params) (see "
        "workload_scenario_spec) and run_scenario instead",
        DeprecationWarning,
        stacklevel=3,
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
    # collect_stats=False mirrors the legacy harness's incumbent CallConfig;
    # the adapters only read packet captures, never per-second stats.
    return run_scenario(spec, seed=seed, collect_stats=False)


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

    .. deprecated:: adapter over the scenario workload axis (see module docs).
       Shares match the workload-scenario path exactly; for
       ``competitor_duration_s`` below 30 s the competition window's lead-in
       is ``min(10 s, duration / 3)`` instead of the legacy flat 10 s.
    """
    _warn_deprecated("run_vca_vs_vca")
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
        run = run_competition(vca, vca, capacity_mbps, competitor_duration_s, seed=seed)
        series = {}
        for label, host_direction in (("incumbent", "tx"), ("competitor", "tx")):
            data = run.incumbent_series("tx") if label == "incumbent" else run.competitor_series("tx")
            figure = FigureSeries("fig9", f"{vca}-{label}", "time (s)", "upstream bitrate (Mbps)")
            for t, value in zip(*data):
                figure.add_point(float(t), float(value))
            series[label] = figure
        out[vca] = series
    return out


def run_pair_timeseries(
    incumbent: str = "teams",
    competitor: str = "zoom",
    capacity_mbps: float = 1.0,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> dict[str, dict[str, FigureSeries]]:
    """Figure 11: Teams (incumbent) vs Zoom traces in both directions."""
    run = run_competition(incumbent, competitor, capacity_mbps, competitor_duration_s, seed=seed)
    out: dict[str, dict[str, FigureSeries]] = {}
    for direction, tx_rx in (("up", "tx"), ("down", "rx")):
        series = {}
        for label in ("incumbent", "competitor"):
            data = run.incumbent_series(tx_rx) if label == "incumbent" else run.competitor_series(tx_rx)
            name = incumbent if label == "incumbent" else competitor
            figure = FigureSeries("fig11", f"{name}-{direction}", "time (s)", f"{direction}stream bitrate (Mbps)")
            for t, value in zip(*data):
                figure.add_point(float(t), float(value))
            series[label] = figure
        out[direction] = series
    return out


def run_vca_vs_tcp(
    capacity_mbps: float = 2.0,
    vcas: Sequence[str] = DEFAULT_VCAS,
    repetitions: int = 3,
    competitor_duration_s: float = COMPETITOR_DURATION_S,
    seed: int = 0,
) -> TableResult:
    """Figure 12: the share iPerf3 obtains against each incumbent VCA.

    .. deprecated:: adapter over the scenario workload axis (see module docs
       and :func:`run_vca_vs_vca` for the window tolerance).
    """
    _warn_deprecated("run_vca_vs_tcp")
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
    run = run_competition("zoom", "iperf-down", capacity_mbps, competitor_duration_s, seed=seed)
    out = {}
    for label, data in (("zoom", run.incumbent_series("rx")), ("iperf3", run.competitor_series("rx"))):
        figure = FigureSeries("fig13", label, "time (s)", "downstream bitrate (Mbps)")
        for t, value in zip(*data):
            figure.add_point(float(t), float(value))
        out[label] = figure
    return out


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

    .. deprecated:: adapter over the scenario workload axis (see module docs).
    """
    _warn_deprecated("run_vca_vs_streaming")
    run = _run_workload(
        vca, "streaming", {"app": app}, capacity_mbps, competitor_duration_s, seed
    )
    out = {}
    for label, host in ((vca, "C1"), (app, WORKLOAD_CLIENT)):
        data = run.capture.aggregate(host, "rx").timeseries(0.0, run.end_s)
        figure = FigureSeries("fig14a", label, "time (s)", "downstream bitrate (Mbps)")
        for t, value in zip(*data):
            figure.add_point(float(t), float(value))
        out[label] = figure
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
