"""Declarative network-condition scenarios and their registry.

A :class:`ScenarioSpec` names one cell of the (capacity profile x impairment
x VCA x workload) space in plain data -- strings and numbers only -- so
specs are picklable, diffable, and fan out over
:func:`repro.core.campaign.run_campaign` without closures.  The registry
ships three packs:

* **paper-baseline** -- conditions the paper itself measured (unconstrained,
  static shaping, a transient disruption, a gallery-mode multiparty call),
  expressed as scenarios so the two harnesses stay comparable,
* **beyond-paper** -- the conditions follow-up measurement work showed to be
  discriminating (trace-driven LTE/Wi-Fi/DSL/LEO capacity, bursty vs i.i.d.
  loss at equal mean, delay jitter, CoDel vs drop-tail), and
* **competition** -- the paper's Section 5 cross-traffic cells expressed
  through the ``workload`` axis (a competing VCA call, TCP bulk flows, or a
  streaming player sharing the measured client's access link).

``run_scenario`` realises a spec on the access topology: the measured
client C1 sits behind the shaped + impaired link, everything else is clean.
A ``workload`` component additionally homes a competing client ``F1``
*behind the same shaped link* (its counterparties ``F2`` / ``S2`` are clean
and remote), so any profile/loss/jitter/aqm/cascade condition composes with
any competitor.  Stochastic impairments get private RNG seeds derived from
the run seed, so scenario runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.apps.iperf import IperfFlow
from repro.apps.netflix import NetflixPlayer
from repro.apps.youtube import YouTubePlayer
from repro.core.analysis import exact_mean, exact_percentile
from repro.core.capture import FlowSeries, PacketCapture
from repro.core.metrics import rate_share, tx_loss_rate
from repro.core.orchestrator import CallOrchestrator
from repro.core.profiles import synthetic_profile
from repro.media.layout import ViewMode
from repro.net.shaper import BandwidthProfile
from repro.net.simulator import Simulator
from repro.net.topology import (
    AccessTopology,
    CascadeTopology,
    DEFAULT_TRUNK_DELAY_S,
    build_access_topology,
    build_cascade_topology,
)
from repro.netem.aqm import CoDelQueue
from repro.netem.impairments import DelayJitter, GilbertElliottLoss, IidLoss
from repro.netem.traces import load_mahimahi
from repro.vca.call import Call, CallConfig
from repro.vca.sfu import CascadePlan, CascadeRegion

__all__ = [
    "ScenarioSpec",
    "ScenarioRun",
    "compile_cascade_plan",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "resolve_trace_path",
    "run_scenario",
    "run_scenario_by_name",
    "SCENARIOS",
    "TRACES_DIR",
]

#: Call join time and post-call slack used by every scenario run.
CALL_START_S = 2.0

#: Seconds of call setup and ramp-up excluded from steady-state metrics.
WARMUP_S = 12.0

#: Seed offsets separating the stochastic roles of one run seed.
_PROFILE_SEED = 7919
_LOSS_SEED = 104_729
_JITTER_SEED = 1_299_709
#: Seed offset of a competing workload VCA call (mirrors the legacy
#: competition harness, whose second call always ran on ``seed + 500``).
_WORKLOAD_SEED = 500
#: Seed offsets of the per-trunk stochastic roles (cascade scenarios).  Each
#: directed trunk adds its index on top, so two trunks of one run never share
#: an impairment RNG stream with each other or with the access link.
_TRUNK_PROFILE_SEED = 15_485_863
_TRUNK_LOSS_SEED = 32_452_843
_TRUNK_JITTER_SEED = 49_979_687

#: Committed capacity-trace packs (satellite data of the cascade PR) live at
#: the repository root so experiment outputs can cite exact file content.
TRACES_DIR = Path(__file__).resolve().parents[3] / "traces"

#: Relative change of the target bitrate that counts as a switch.
RATE_SWITCH_THRESHOLD = 0.10

#: Host names of the compiled workload axis: the competing client homed
#: behind the measured access link, its remote call peer, and its server.
WORKLOAD_CLIENT = "F1"
WORKLOAD_PEER = "F2"
WORKLOAD_SERVER = "S2"

#: Recognised workload kinds ("none" normalises to no workload at all).
_WORKLOAD_KINDS = ("vca", "tcp_bulk", "streaming")
_STREAMING_APPS = ("netflix", "youtube")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative network-condition scenario.

    Component specs are ``(kind, params)`` pairs of plain data:

    * ``profile``: ``("constant", {"mbps": 1.0})``, ``("unconstrained", {})``,
      ``("disruption", {"drop_to_mbps": 0.5, "drop_at_s": 60, "duration_s": 30})``,
      ``("lte" | "wifi" | "dsl" | "leo", {"mean_mbps": ..., "bin_s": ...})``,
      or ``("mahimahi", {"path": ..., "bin_s": ...})``.
    * ``loss``: ``("iid", {"rate": 0.02})`` or ``("gilbert_elliott",
      {"mean_loss": 0.02, "mean_burst_packets": 8})`` (or raw ``p_good_to_bad``
      / ``p_bad_to_good`` / ``loss_good`` / ``loss_bad``).
    * ``jitter``: ``("delay", {"mean_s": 0.01, "std_s": 0.005, "rho": 0.9})``.
    * ``aqm``: ``("codel", {"target_s": 0.005, "interval_s": 0.1})``.
    * ``cascade``: ``("star" | "chain" | "mesh", {...})`` -- run the call over
      a cascade of SFU nodes instead of a single server.  Params:
      ``regions`` (node count), ``clients_per_region`` (int, or list of
      ints), and optionally ``trunk``: a dict with any of ``profile`` /
      ``loss`` / ``jitter`` / ``aqm`` component specs plus ``delay_s`` and
      ``impair_direction`` (``"forward"`` impairs only the R_i->R_j
      direction of each trunk as listed, ``"both"`` -- the default -- both).
      The measured client C1 is homed in region 0; trunk impairments get
      their own RNG seed streams per directed trunk.
    * ``workload``: cross-traffic sharing the measured client's access link.
      ``("vca", {"app": "teams", "participants": 2, "view_mode":
      "gallery"})`` runs a second, independent call (client ``F1`` next to
      C1, peer ``F2`` and server ``S2`` clean and remote, call RNG seeded at
      ``seed + 500``); ``("tcp_bulk", {"flows": 1, "direction": "down"})``
      runs long-lived iPerf3-style TCP CUBIC flows between ``F1`` and
      ``S2``; ``("streaming", {"app": "netflix" | "youtube"})`` runs an ABR
      player at ``F1``.  All three accept ``start_offset_s`` (seconds after
      the measured call joins; default ``0.0``) and ``duration_s`` (default:
      until the call ends).  ``("none", {})`` -- the default -- normalises
      to ``workload=None``: no extra hosts, wiring byte-identical to a
      workload-free run.  With a workload present, :meth:`ScenarioRun.metrics`
      grows share / competitor-throughput / tx-loss columns.

    ``view_mode`` is ``"gallery"`` (default) or ``"speaker"``; anything else
    is rejected.  ``pinned`` names the participant (``C1..Cn``) everyone
    else pins and is valid only in speaker mode; ``"speaker"`` without
    ``pinned`` lays out like gallery, since no tile is enlarged.
    """

    name: str
    description: str
    vca: str = "zoom"
    #: Which side of C1's access link is shaped/impaired: "up", "down", "both".
    direction: str = "up"
    participants: int = 2
    view_mode: str = "gallery"
    pinned: Optional[str] = None
    profile: tuple[str, Mapping[str, Any]] = ("unconstrained", {})
    loss: Optional[tuple[str, Mapping[str, Any]]] = None
    jitter: Optional[tuple[str, Mapping[str, Any]]] = None
    aqm: Optional[tuple[str, Mapping[str, Any]]] = None
    cascade: Optional[tuple[str, Mapping[str, Any]]] = None
    workload: Optional[tuple[str, Mapping[str, Any]]] = None
    duration_s: float = 120.0
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down", "both"):
            raise ValueError(f"scenario direction must be up/down/both, got {self.direction!r}")
        if self.participants < 2:
            raise ValueError("a scenario call needs at least two participants")
        # ``120`` and ``120.0`` hash differently in a cache payload; store
        # the float so two spellings of one duration cannot fork the key.
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if self.duration_s <= 0.0:
            raise ValueError("scenario duration must be positive")
        object.__setattr__(self, "view_mode", _view_mode(self.view_mode).value)
        # Detach the param payloads from whatever dict the caller passed in,
        # so later caller-side mutation cannot rewrite a (frozen, registered)
        # spec.  Plain dicts keep the spec picklable for campaign workers.
        for attr in ("profile", "loss", "jitter", "aqm"):
            value = getattr(self, attr)
            if value is not None:
                kind, params = value
                object.__setattr__(self, attr, (kind, dict(params)))
        if self.cascade is not None:
            kind, params = self.cascade
            if kind not in ("star", "chain", "mesh"):
                raise ValueError(f"cascade kind must be star/chain/mesh, got {kind!r}")
            params = dict(params)
            if "trunk" in params and params["trunk"] is not None:
                params["trunk"] = dict(params["trunk"])
            object.__setattr__(self, "cascade", (kind, params))
            # The cascade axis is the source of truth for the call size.
            object.__setattr__(self, "participants", sum(_cascade_region_sizes(self)))
        if self.pinned is not None:
            if self.view_mode != "speaker":
                raise ValueError("pinned is valid only with view_mode='speaker'")
            if self.pinned not in {f"C{i}" for i in range(1, self.participants + 1)}:
                raise ValueError(
                    f"pinned must name a participant C1..C{self.participants}, "
                    f"got {self.pinned!r}"
                )
        if self.workload is not None:
            kind, params = self.workload
            if kind == "none":
                if params:
                    raise ValueError('workload ("none", ...) takes no params')
                # Normalise to the no-workload representation so cache
                # payloads (and the compiled topology) cannot fork on two
                # spellings of "no cross-traffic".
                object.__setattr__(self, "workload", None)
            else:
                if kind not in _WORKLOAD_KINDS:
                    raise ValueError(
                        f"workload kind must be one of {('none',) + _WORKLOAD_KINDS}, got {kind!r}"
                    )
                params = dict(params)
                if kind == "tcp_bulk":
                    if int(params.get("flows", 1)) < 1:
                        raise ValueError("tcp_bulk workload needs at least one flow")
                    if str(params.get("direction", "down")) not in ("up", "down"):
                        raise ValueError("tcp_bulk workload direction must be up/down")
                if kind == "streaming" and str(params.get("app", "netflix")) not in _STREAMING_APPS:
                    raise ValueError(
                        f"streaming workload app must be one of {_STREAMING_APPS}"
                    )
                if kind == "vca":
                    _view_mode(params.get("view_mode", "gallery"))
                if float(params.get("start_offset_s", 0.0)) < 0.0:
                    raise ValueError("workload start_offset_s must be >= 0")
                object.__setattr__(self, "workload", (kind, params))

    @property
    def directions(self) -> tuple[str, ...]:
        return ("up", "down") if self.direction == "both" else (self.direction,)


def _view_mode(value: Any) -> ViewMode:
    """Parse a spec's view mode, rejecting anything but gallery/speaker."""
    try:
        return ViewMode(value)
    except ValueError:
        raise ValueError(f"view_mode must be gallery/speaker, got {value!r}") from None


def _cascade_region_sizes(spec: ScenarioSpec) -> list[int]:
    """Client count per region of a cascade spec."""
    assert spec.cascade is not None
    _, params = spec.cascade
    regions = int(params.get("regions", 2))
    if regions < 1:
        raise ValueError("a cascade needs at least one region")
    per = params.get("clients_per_region", 2)
    if isinstance(per, (list, tuple)):
        sizes = [int(n) for n in per]
        if len(sizes) != regions:
            raise ValueError("clients_per_region list must have one entry per region")
    else:
        sizes = [int(per)] * regions
    if any(n < 1 for n in sizes):
        raise ValueError("every cascade region needs at least one client")
    return sizes


def compile_cascade_plan(spec: ScenarioSpec) -> CascadePlan:
    """Compile a spec's cascade axis into a concrete :class:`CascadePlan`.

    Nodes are named ``R0..R{n-1}``; clients keep the scenario convention
    ``C1..Cn`` assigned region by region, so the measured client ``C1`` is
    always homed in region 0.
    """
    assert spec.cascade is not None
    kind, _ = spec.cascade
    sizes = _cascade_region_sizes(spec)
    regions = []
    next_client = 1
    for index, size in enumerate(sizes):
        clients = tuple(f"C{i}" for i in range(next_client, next_client + size))
        next_client += size
        regions.append(CascadeRegion(node=f"R{index}", clients=clients))
    n = len(regions)
    if kind == "chain":
        trunks = tuple((f"R{i}", f"R{i + 1}") for i in range(n - 1))
    elif kind == "mesh":
        trunks = tuple(
            (f"R{i}", f"R{j}") for i in range(n) for j in range(i + 1, n)
        )
    else:  # star-of-stars: region 0 is the hub
        trunks = tuple((f"R{0}", f"R{i}") for i in range(1, n))
    return CascadePlan(regions=tuple(regions), trunks=trunks)


# ------------------------------------------------------------- resolvers
def resolve_trace_path(pack: str, direction: str) -> Path:
    """Path of one committed trace-pack file (``traces/{pack}-{dir}.pps``)."""
    if direction not in ("up", "down"):
        raise ValueError(f"trace direction must be up/down, got {direction!r}")
    path = TRACES_DIR / f"{pack}-{direction}.pps"
    if not path.exists():
        raise FileNotFoundError(
            f"trace pack file {path} not found; committed packs: "
            f"{sorted(p.name for p in TRACES_DIR.glob('*.pps')) if TRACES_DIR.exists() else []}"
        )
    return path


def _build_profile(
    spec: tuple[str, Mapping[str, Any]],
    horizon_s: float,
    seed: int,
    direction: Optional[str] = None,
) -> BandwidthProfile:
    kind, params = spec
    if kind == "constant":
        return BandwidthProfile.constant(float(params["mbps"]) * 1e6)
    if kind == "unconstrained":
        return BandwidthProfile.unconstrained()
    if kind == "disruption":
        return BandwidthProfile.disruption(
            drop_to_bps=float(params["drop_to_mbps"]) * 1e6,
            drop_at_s=float(params.get("drop_at_s", 60.0)),
            duration_s=float(params.get("duration_s", 30.0)),
        )
    if kind == "trace":
        # A committed trace pack: Mahimahi packet-delivery format, resolved
        # by pack name and shaped-link direction from ``traces/`` at the
        # repository root.  Unlike "mahimahi" (arbitrary path), the content
        # is versioned with the code, so results stay reproducible.
        trace_direction = str(params.get("direction", direction or "up"))
        path = resolve_trace_path(str(params["pack"]), trace_direction)
        trace = load_mahimahi(path, bin_s=float(params.get("bin_s", 0.2)))
        if "mean_mbps" in params:
            trace = trace.scaled_to_mean(float(params["mean_mbps"]) * 1e6)
        return trace.to_profile(duration_s=horizon_s)
    if kind == "mahimahi":
        trace = load_mahimahi(params["path"], bin_s=float(params.get("bin_s", 0.2)))
        if "mean_mbps" in params:
            trace = trace.scaled_to_mean(float(params["mean_mbps"]) * 1e6)
        return trace.to_profile(duration_s=horizon_s)
    # Synthetic generators (lte / wifi / dsl / leo) via the shared helper.
    return synthetic_profile(kind, seed=seed, duration_s=horizon_s, **params)


def _build_loss(spec: tuple[str, Mapping[str, Any]], seed: int):
    kind, params = spec
    if kind == "iid":
        return IidLoss(float(params["rate"]))
    if kind == "gilbert_elliott":
        if "mean_loss" in params:
            return GilbertElliottLoss.from_mean_loss(
                mean_loss=float(params["mean_loss"]),
                mean_burst_packets=float(params.get("mean_burst_packets", 8.0)),
                seed=seed,
            )
        return GilbertElliottLoss(
            p_good_to_bad=float(params["p_good_to_bad"]),
            p_bad_to_good=float(params["p_bad_to_good"]),
            loss_good=float(params.get("loss_good", 0.0)),
            loss_bad=float(params.get("loss_bad", 1.0)),
            seed=seed,
        )
    raise KeyError(f"unknown loss model kind {kind!r}")


def _build_jitter(spec: tuple[str, Mapping[str, Any]], seed: int):
    kind, params = spec
    if kind != "delay":
        raise KeyError(f"unknown jitter model kind {kind!r}")
    return DelayJitter(
        mean_s=float(params["mean_s"]),
        std_s=float(params["std_s"]),
        rho=float(params.get("rho", 0.0)),
        seed=seed,
    )


def _build_aqm(spec: tuple[str, Mapping[str, Any]]):
    kind, params = spec
    if kind != "codel":
        raise KeyError(f"unknown AQM kind {kind!r}")
    return CoDelQueue(
        target_s=float(params.get("target_s", 0.005)),
        interval_s=float(params.get("interval_s", 0.100)),
    )


# --------------------------------------------------------------- registry
SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the registry (name must be unique)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario by name."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def list_scenarios(tag: Optional[str] = None) -> list[ScenarioSpec]:
    """All registered scenarios (optionally filtered by tag), name-sorted."""
    specs = [
        spec
        for _, spec in sorted(SCENARIOS.items())
        if tag is None or tag in spec.tags
    ]
    return specs


# ------------------------------------------------------------------ runner
@dataclass
class ScenarioRun:
    """Result handle of one realised scenario."""

    sim: Simulator
    spec: ScenarioSpec
    call: Call
    capture: PacketCapture
    topology: Union[AccessTopology, CascadeTopology]
    start_s: float
    end_s: float
    #: (time, queueing-delay estimate) samples of each shaped direction.
    queue_delay_samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Compiled cascade plan (None for classic single-server scenarios).
    plan: Optional[CascadePlan] = None
    #: Workload window bounds (None when the spec carries no workload).
    workload_start_s: Optional[float] = None
    workload_end_s: Optional[float] = None
    #: Compiled workload applications (IperfFlow / NetflixPlayer / ...).
    workload_apps: tuple = ()
    #: The competing call of a ("vca", ...) workload.
    workload_call: Optional[Call] = None

    def steady_window(self) -> tuple[float, float]:
        """The steady-state measurement window ``(start, end)``.

        Normally ``[start + WARMUP_S, end]``; when the warmup would swallow
        a short call, the final two thirds of the call instead, so every
        metric still covers a non-empty interval.
        """
        start = self.start_s + WARMUP_S
        if start >= self.end_s - 1.0:
            start = self.start_s + (self.end_s - self.start_s) / 3.0
        return start, self.end_s

    def bitrate_series(self, tx_rx: str, name: str = "C1") -> tuple[np.ndarray, np.ndarray]:
        """Per-second ``"tx"`` or ``"rx"`` bitrate (Mbps) of a captured host.

        Covers the whole run from t=0 to the call end.  Hosts other than C1
        (and a workload's taps) must be passed to :func:`run_scenario` as
        ``capture_hosts``.
        """
        return self.capture.aggregate(name, tx_rx).timeseries(0.0, self.end_s)

    def mean_stat(self, key: str, name: str = "C1") -> float:
        """Steady-window mean of one WebRTC stat of a client (NaN without stats)."""
        stats = self.call.client(name).stats
        if stats is None:
            return float("nan")
        return stats.mean(key, *self.steady_window())

    def freeze_ratio(self, name: str = "C1") -> float:
        """Share of the call a client's received video spent frozen."""
        client = self.call.client(name)
        freeze = sum(
            receiver.freeze_tracker.total_freeze_s
            for receiver in client.receivers.values()
            if receiver.freeze_tracker is not None
        )
        duration = self.end_s - self.start_s
        return min(freeze / duration, 1.0) if duration > 0 else 0.0

    def fir_count(self, name: str = "C1") -> int:
        """Full Intra Requests the *other* participants sent for ``name``'s video."""
        total = 0
        for participant, client in self.call.clients.items():
            if participant == name:
                continue
            receiver = client.receivers.get(name)
            if receiver is not None:
                total += receiver.fir_sent
        return total

    def _shaped_links(self):
        return [
            self.topology.uplink if direction == "up" else self.topology.downlink
            for direction in self.spec.directions
        ]

    def workload_window(self) -> tuple[float, float]:
        """The steady competition window of a workload run.

        Starts ``min(10 s, a third of the workload)`` after the workload does
        (the legacy harness's flat 10 s lead-in, capped so reduced-duration
        runs keep a non-empty window) and ends when the workload stops.
        """
        if self.workload_start_s is None or self.workload_end_s is None:
            raise ValueError("scenario has no workload; no competition window")
        duration = self.workload_end_s - self.workload_start_s
        lead_in = min(10.0, duration / 3.0)
        return (self.workload_start_s + lead_in, self.workload_end_s)

    def share(self, direction: str = "up") -> float:
        """Measured call's share of the access link against its workload.

        The incumbent (C1) and competitor (F1) bitrates are averaged over
        :meth:`workload_window`; ``direction="up"`` compares transmitted
        bytes, ``"down"`` received bytes.
        """
        tx_rx = "tx" if direction == "up" else "rx"
        window = self.workload_window()
        return rate_share(
            self.capture.aggregate("C1", tx_rx).mean_mbps(*window),
            self.capture.aggregate(WORKLOAD_CLIENT, tx_rx).mean_mbps(*window),
        )

    def relay_tx_loss(self, server: str, client: str, call_id: str) -> float:
        """Tx-side loss of a relay's forwarded media toward ``client``.

        Compares the media bytes ``server`` transmitted for ``client``
        (flow ids ``{call_id}:down:...>{client}``) against the bytes that
        arrived, over :meth:`workload_window`.  Requires the run to have
        captured the server host (workload runs always do).
        """
        window = self.workload_window()
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

    def rate_switches(self) -> int:
        """Target-bitrate switches of the measured client's encoder.

        Counts per-second stats samples whose target changed by more than
        :data:`RATE_SWITCH_THRESHOLD` relative to the previous sample --
        the "how often did the VCA have to re-decide" signal that separates
        trace-driven capacity from static shaping.
        """
        stats = self.call.client("C1").stats
        if stats is None:
            return 0
        start, end = self.start_s + 5.0, self.end_s
        switches = 0
        previous: Optional[float] = None
        for sample in stats.samples:
            if sample.timestamp < start or sample.timestamp > end:
                continue
            value = sample.get("target_bitrate_bps")
            if value <= 0.0:
                continue
            if previous is not None and abs(value - previous) > RATE_SWITCH_THRESHOLD * previous:
                switches += 1
            previous = value
        return switches

    def metrics(self) -> dict[str, float]:
        """The flat, picklable metric payload used by campaign fan-out.

        Bitrate/fps metrics cover the steady window (warmup excluded);
        loss/drop counters and the queue-delay percentiles are whole-run
        totals of the shaped link(s), startup transient included.  Workload
        runs additionally report the competition columns (``share_up`` /
        ``share_down``, competitor throughput over the workload window, and
        the relay tx-loss rates the fig10 analysis needs); workload-free
        payloads are unchanged.
        """
        window = self.steady_window()
        up = self.capture.aggregate("C1", "tx")
        down = self.capture.aggregate("C1", "rx")
        delays: list[float] = []
        for samples in self.queue_delay_samples.values():
            delays.extend(map(itemgetter(1), samples))
        # Loss/drop counters aggregate over every shaped direction, so a
        # "both"-direction scenario reports downlink impairments too; the
        # ratio is LinkStats.tx_loss_rate generalised to summed counters.
        link_stats = [link.stats for link in self._shaped_links()]
        offered = sum(s.packets_sent + s.packets_dropped for s in link_stats)
        undelivered = sum(s.packets_dropped + s.packets_lost_random for s in link_stats)
        payload = {
            "median_up_mbps": up.median_mbps(*window),
            "median_down_mbps": down.median_mbps(*window),
            "mean_up_mbps": up.mean_mbps(*window),
            "mean_down_mbps": down.mean_mbps(*window),
            "freeze_ratio": self.freeze_ratio(),
            "mean_received_fps": self.mean_stat("received_fps"),
            "rate_switches": float(self.rate_switches()),
            "tx_loss_rate": undelivered / offered if offered else 0.0,
            "queue_drops": float(sum(
                s.packets_dropped - s.packets_dropped_aqm for s in link_stats
            )),
            "aqm_drops": float(sum(s.packets_dropped_aqm for s in link_stats)),
            "random_losses": float(sum(s.packets_lost_random for s in link_stats)),
            "mean_queue_delay_s": exact_mean(delays) if delays else 0.0,
            "p95_queue_delay_s": exact_percentile(delays, 95) if delays else 0.0,
        }
        if self.plan is not None:
            payload.update(self._cascade_metrics())
        if self.workload_start_s is not None:
            payload.update(self._workload_metrics(up, down))
        return payload

    def _workload_metrics(self, up: FlowSeries, down: FlowSeries) -> dict[str, float]:
        """Competition columns of a workload run (see :meth:`metrics`).

        ``up`` and ``down`` are C1's aggregated tx and rx series.
        """
        assert self.spec.workload is not None
        window = self.workload_window()
        competitor_up = self.capture.aggregate(WORKLOAD_CLIENT, "tx").mean_mbps(*window)
        competitor_down = self.capture.aggregate(WORKLOAD_CLIENT, "rx").mean_mbps(*window)
        payload = {
            "share_up": rate_share(up.mean_mbps(*window), competitor_up),
            "share_down": rate_share(down.mean_mbps(*window), competitor_down),
            "competitor_up_mbps": competitor_up,
            "competitor_down_mbps": competitor_down,
        }
        if self.plan is None:
            payload["incumbent_tx_loss_rate"] = self.relay_tx_loss(
                "S", "C1", self.call.config.call_id
            )
        if self.spec.workload[0] == "vca":
            payload["competitor_tx_loss_rate"] = self.relay_tx_loss(
                WORKLOAD_SERVER, WORKLOAD_CLIENT, "competitor"
            )
        return payload

    def _cascade_metrics(self) -> dict[str, float]:
        """Per-region freeze ratios and trunk-link aggregates.

        ``cascade_freeze_ratio_R{k}`` averages the freeze ratio of region
        ``k``'s clients; ``cascade_freeze_gap`` is the worst far region minus
        region 0, the directional "a lossy trunk hurts the far side more"
        signal the trunk-impairment gates score.
        """
        assert self.plan is not None
        topo = self.topology
        assert isinstance(topo, CascadeTopology)
        payload: dict[str, float] = {}
        region_ratios: list[float] = []
        for index, region in enumerate(self.plan.regions):
            ratios = [self.freeze_ratio(name) for name in region.clients]
            ratio = exact_mean(ratios) if ratios else 0.0
            payload[f"cascade_freeze_ratio_R{index}"] = ratio
            region_ratios.append(ratio)
        if len(region_ratios) > 1:
            payload["cascade_freeze_gap"] = max(region_ratios[1:]) - region_ratios[0]
        trunk_stats = [link.stats for link in topo.trunk_links.values()]
        offered = sum(s.packets_sent + s.packets_dropped for s in trunk_stats)
        undelivered = sum(s.packets_dropped + s.packets_lost_random for s in trunk_stats)
        payload["trunk_tx_loss_rate"] = undelivered / offered if offered else 0.0
        payload["trunk_bytes_sent"] = float(sum(s.bytes_sent for s in trunk_stats))
        duration = self.end_s - self.start_s
        payload["trunk_mean_mbps"] = (
            sum(s.bytes_sent for s in trunk_stats) * 8.0 / duration / 1e6 / len(trunk_stats)
            if duration > 0 and trunk_stats
            else 0.0
        )
        return payload


def _apply_trunk_conditions(
    topo: CascadeTopology,
    plan: CascadePlan,
    spec: ScenarioSpec,
    seed: int,
    horizon_s: float,
) -> None:
    """Shape/impair every directed trunk from the spec's ``trunk`` sub-spec.

    ``impair_direction: "forward"`` conditions only the ``a -> b`` direction
    of each trunk edge as listed in the plan (the "away from region 0" side
    for star/chain cascades), ``"both"`` (default) conditions both.  Each
    directed trunk gets its own RNG streams via the ``_TRUNK_*`` seed
    offsets plus its index.
    """
    assert spec.cascade is not None
    trunk = spec.cascade[1].get("trunk") or {}
    impair_direction = str(trunk.get("impair_direction", "both"))
    if impair_direction not in ("forward", "both"):
        raise ValueError(
            f"trunk impair_direction must be forward/both, got {impair_direction!r}"
        )
    directed: list[tuple[str, str]] = []
    for a, b in plan.trunks:
        directed.append((a, b))
        if impair_direction == "both":
            directed.append((b, a))
    profile_spec = trunk.get("profile")
    loss_spec = trunk.get("loss")
    jitter_spec = trunk.get("jitter")
    aqm_spec = trunk.get("aqm")
    for index, (src, dst) in enumerate(directed):
        if profile_spec is not None:
            topo.shape_trunk(
                src,
                dst,
                _build_profile(profile_spec, horizon_s, seed + _TRUNK_PROFILE_SEED + index),
                both=False,
            )
        if loss_spec or jitter_spec or aqm_spec:
            topo.impair_trunk(
                src,
                dst,
                loss_model=_build_loss(loss_spec, seed + _TRUNK_LOSS_SEED + index)
                if loss_spec
                else None,
                jitter_model=_build_jitter(jitter_spec, seed + _TRUNK_JITTER_SEED + index)
                if jitter_spec
                else None,
                aqm=_build_aqm(aqm_spec) if aqm_spec else None,
            )


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    duration_s: Optional[float] = None,
    collect_stats: bool = True,
    queue_sample_interval_s: float = 0.1,
    capture_hosts: Sequence[str] = (),
) -> ScenarioRun:
    """Realise one scenario: build, impair, run, and return the handle.

    The measured client C1 is always packet-captured; ``capture_hosts``
    names further hosts to tap (Figure 6 reads C2's uplink).  Taps are
    passive, so they never perturb the run.

    A ``workload`` component compiles onto the same topology: the competing
    client ``F1`` is homed behind the measured client's shaped access link,
    its counterparties (``F2`` for a VCA workload, the server ``S2``) are
    clean and remote, and the workload's hosts plus the relevant servers are
    packet-captured so the competition metrics can be computed.  Without a
    workload the build is byte-identical to the pre-workload layout.
    """
    duration = float(duration_s) if duration_s is not None else spec.duration_s
    sim = Simulator(seed=seed)
    names = [f"C{i}" for i in range(1, spec.participants + 1)]
    horizon = CALL_START_S + duration + 5.0

    workload = spec.workload
    local_names = (WORKLOAD_CLIENT,) if workload is not None else ()
    remote_names = (WORKLOAD_PEER,) if workload is not None and workload[0] == "vca" else ()
    server_extras = (WORKLOAD_SERVER,) if workload is not None else ()

    plan: Optional[CascadePlan] = None
    topo: Union[AccessTopology, CascadeTopology]
    if spec.cascade is not None:
        plan = compile_cascade_plan(spec)
        trunk_params = spec.cascade[1].get("trunk") or {}
        topo = build_cascade_topology(
            sim,
            plan,
            trunk_delay_s=float(trunk_params.get("delay_s", DEFAULT_TRUNK_DELAY_S)),
            local_client_names=local_names,
            extra_client_names=remote_names,
            extra_server_names=server_extras,
        )
    else:
        topo = build_access_topology(
            sim,
            client_names=[*names, *remote_names],
            extra_server_names=server_extras,
            local_client_names=local_names,
        )

    profiles: dict[str, BandwidthProfile] = {}
    for offset, direction in enumerate(spec.directions):
        profiles[direction] = _build_profile(
            spec.profile, horizon, seed + _PROFILE_SEED + offset, direction=direction
        )
    topo.shape(up_profile=profiles.get("up"), down_profile=profiles.get("down"))
    for offset, direction in enumerate(spec.directions):
        topo.impair(
            direction,
            loss_model=_build_loss(spec.loss, seed + _LOSS_SEED + offset) if spec.loss else None,
            jitter_model=_build_jitter(spec.jitter, seed + _JITTER_SEED + offset)
            if spec.jitter
            else None,
            aqm=_build_aqm(spec.aqm) if spec.aqm else None,
        )
    if plan is not None:
        _apply_trunk_conditions(topo, plan, spec, seed, horizon)

    taps = ["C1", *capture_hosts]
    if workload is not None:
        # The competing client and the relevant relays.
        taps += [WORKLOAD_CLIENT, WORKLOAD_SERVER, *(("S",) if plan is None else ())]
    capture = PacketCapture(sim)
    for name in dict.fromkeys(taps):
        capture.attach(topo.host(name))

    call = Call(
        sim,
        [topo.host(name) for name in names],
        topo.host("S") if plan is None else topo.host(plan.nodes[0]),
        CallConfig(
            vca=spec.vca,
            seed=seed,
            view_mode=ViewMode(spec.view_mode),
            pinned=spec.pinned,
            collect_stats=collect_stats,
        ),
        cascade=plan,
        cascade_hosts=(
            {node: topo.host(node) for node in plan.nodes} if plan is not None else None
        ),
    )
    orchestrator = CallOrchestrator(sim)
    end_s = CALL_START_S + duration
    orchestrator.run_call(call, start=CALL_START_S, duration=duration)

    workload_start: Optional[float] = None
    workload_end: Optional[float] = None
    workload_apps: list = []
    workload_call: Optional[Call] = None
    if workload is not None:
        kind, params = workload
        workload_start = CALL_START_S + float(params.get("start_offset_s", 0.0))
        wl_duration = params.get("duration_s")
        workload_end = (
            end_s if wl_duration is None else min(workload_start + float(wl_duration), end_s)
        )
        if workload_end <= workload_start:
            raise ValueError(
                f"workload window is empty: starts at {workload_start:.1f}s, "
                f"call ends at {end_s:.1f}s"
            )
        if kind == "vca":
            workload_call = Call(
                sim,
                [topo.host(WORKLOAD_CLIENT), topo.host(WORKLOAD_PEER)],
                topo.host(WORKLOAD_SERVER),
                CallConfig(
                    vca=str(params.get("app", "zoom")),
                    call_id="competitor",
                    seed=seed + _WORKLOAD_SEED,
                    view_mode=ViewMode(params.get("view_mode", "gallery")),
                    collect_stats=False,
                ),
            )
            orchestrator.run_call(
                workload_call, start=workload_start, duration=workload_end - workload_start
            )
        elif kind == "tcp_bulk":
            flows = int(params.get("flows", 1))
            tcp_direction = str(params.get("direction", "down"))
            for index in range(flows):
                app = IperfFlow(
                    sim,
                    client=topo.host(WORKLOAD_CLIENT),
                    server=topo.host(WORKLOAD_SERVER),
                    direction=tcp_direction,
                    flow_id=(
                        f"iperf-{WORKLOAD_CLIENT}-{tcp_direction}-{index}" if flows > 1 else None
                    ),
                )
                workload_apps.append(app)
                orchestrator.run_competitor(
                    app, start=workload_start, duration=workload_end - workload_start
                )
        else:  # streaming
            app_name = str(params.get("app", "netflix"))
            player_cls = NetflixPlayer if app_name == "netflix" else YouTubePlayer
            app = player_cls(
                sim, client=topo.host(WORKLOAD_CLIENT), server=topo.host(WORKLOAD_SERVER)
            )
            workload_apps.append(app)
            orchestrator.run_competitor(
                app, start=workload_start, duration=workload_end - workload_start
            )

    queue_samples: dict[str, list[tuple[float, float]]] = {
        direction: [] for direction in spec.directions
    }

    def _sample_queues() -> None:
        for direction, samples in queue_samples.items():
            link = topo.uplink if direction == "up" else topo.downlink
            samples.append((sim.now, link.queueing_delay_estimate()))

    sim.every(queue_sample_interval_s, _sample_queues, start=CALL_START_S, end=end_s)
    sim.run(until=end_s + 2.0)
    return ScenarioRun(
        sim=sim,
        spec=spec,
        call=call,
        capture=capture,
        topology=topo,
        start_s=CALL_START_S,
        end_s=end_s,
        queue_delay_samples=queue_samples,
        plan=plan,
        workload_start_s=workload_start,
        workload_end_s=workload_end,
        workload_apps=tuple(workload_apps),
        workload_call=workload_call,
    )


def run_scenario_by_name(
    name: str,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> dict[str, float]:
    """Campaign work unit: run a registered scenario, return its metrics.

    Module-level and keyword-driven so :class:`repro.core.campaign.Condition`
    can pickle it into worker processes.
    """
    run = run_scenario(get_scenario(name), seed=seed, duration_s=duration_s)
    return run.metrics()


# ------------------------------------------------------------------- packs
def _register_builtin_packs() -> None:
    paper = ("paper-baseline",)
    beyond = ("beyond-paper",)

    # Paper-baseline pack: the paper's own conditions as scenarios.
    register_scenario(ScenarioSpec(
        name="paper/unconstrained-zoom",
        description="Two-party Zoom on the unconstrained 1 Gbps baseline (Table 2 row)",
        vca="zoom", profile=("unconstrained", {}), tags=paper,
    ))
    register_scenario(ScenarioSpec(
        name="paper/unconstrained-meet",
        description="Two-party Meet on the unconstrained baseline (Table 2 row)",
        vca="meet", profile=("unconstrained", {}), tags=paper,
    ))
    register_scenario(ScenarioSpec(
        name="paper/static-0.5up-zoom",
        description="Zoom with the uplink shaped to 0.5 Mbps (Figure 1a point)",
        vca="zoom", direction="up", profile=("constant", {"mbps": 0.5}), tags=paper,
    ))
    register_scenario(ScenarioSpec(
        name="paper/static-1.0down-meet",
        description="Meet with the downlink shaped to 1 Mbps (Figure 1b point)",
        vca="meet", direction="down", profile=("constant", {"mbps": 1.0}), tags=paper,
    ))
    register_scenario(ScenarioSpec(
        name="paper/disruption-0.5up-zoom",
        description="30 s uplink drop to 0.5 Mbps one minute in (Figure 4 condition)",
        vca="zoom", direction="up",
        profile=("disruption", {"drop_to_mbps": 0.5, "drop_at_s": 60.0, "duration_s": 30.0}),
        tags=paper,
    ))
    register_scenario(ScenarioSpec(
        name="paper/gallery-5p-meet",
        description="Five-party Meet gallery call, unconstrained (Figure 15 point)",
        vca="meet", participants=5, profile=("unconstrained", {}), tags=paper,
    ))

    # Beyond-paper pack: trace-driven backhauls and bursty impairments.
    register_scenario(ScenarioSpec(
        name="lte-uplink-zoom",
        description="Zoom uplink over a synthetic LTE capacity process (mean 2.5 Mbps)",
        vca="zoom", direction="up", profile=("lte", {"mean_mbps": 2.5}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="static-2.5up-zoom",
        description="Static 2.5 Mbps uplink at the LTE trace mean (control for lte-uplink-zoom)",
        vca="zoom", direction="up", profile=("constant", {"mbps": 2.5}),
        tags=beyond + ("control",),
    ))
    register_scenario(ScenarioSpec(
        name="lte-downlink-meet",
        description="Meet downlink over a synthetic LTE capacity process (mean 2.5 Mbps)",
        vca="meet", direction="down", profile=("lte", {"mean_mbps": 2.5}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="wifi-contended-meet",
        description="Meet on contended Wi-Fi: two-state capacity plus bursty loss",
        vca="meet", direction="both", profile=("wifi", {"mean_mbps": 4.0}),
        loss=("gilbert_elliott", {"mean_loss": 0.02, "mean_burst_packets": 8}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="dsl-resync-teams",
        description="Teams on DSL: stable sync rate with rare resync outages",
        vca="teams", direction="both", profile=("dsl", {"mean_mbps": 4.0}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="leo-handover-zoom",
        description="Zoom over LEO satellite: 15 s handover dips plus wandering jitter",
        vca="zoom", direction="both", profile=("leo", {"mean_mbps": 10.0}),
        jitter=("delay", {"mean_s": 0.008, "std_s": 0.004, "rho": 0.9}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="bursty-loss-zoom",
        description="Zoom at 2 Mbps with Gilbert-Elliott burst loss (3% mean, ~10-packet bursts)",
        vca="zoom", direction="both", profile=("constant", {"mbps": 2.0}),
        loss=("gilbert_elliott", {"mean_loss": 0.03, "mean_burst_packets": 10}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="iid-loss-zoom",
        description="Zoom at 2 Mbps with i.i.d. 3% loss (control for bursty-loss-zoom)",
        vca="zoom", direction="both", profile=("constant", {"mbps": 2.0}),
        loss=("iid", {"rate": 0.03}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="bursty-downlink-zoom",
        description="Zoom downlink at 2 Mbps with harsh burst loss (8% mean, ~24-packet bursts)",
        vca="zoom", direction="down", profile=("constant", {"mbps": 2.0}),
        loss=("gilbert_elliott", {"mean_loss": 0.08, "mean_burst_packets": 24}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="iid-downlink-zoom",
        description="Zoom downlink at 2 Mbps with i.i.d. 8% loss (control for bursty-downlink-zoom)",
        vca="zoom", direction="down", profile=("constant", {"mbps": 2.0}),
        loss=("iid", {"rate": 0.08}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="jitter-wander-teams",
        description="Teams at 1.5 Mbps with slowly wandering 15 ms delay jitter",
        vca="teams", direction="both", profile=("constant", {"mbps": 1.5}),
        jitter=("delay", {"mean_s": 0.015, "std_s": 0.010, "rho": 0.95}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="codel-downlink-zoom",
        description="Zoom on a 0.8 Mbps downlink policed by CoDel",
        vca="zoom", direction="down", profile=("constant", {"mbps": 0.8}),
        aqm=("codel", {}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="droptail-downlink-zoom",
        description="Zoom on a 0.8 Mbps drop-tail downlink (control for codel-downlink-zoom)",
        vca="zoom", direction="down", profile=("constant", {"mbps": 0.8}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="leo-gallery-5p-meet",
        description="Five-party Meet gallery call with a LEO-satellite downlink",
        vca="meet", participants=5, direction="down",
        profile=("leo", {"mean_mbps": 10.0}), tags=beyond,
    ))
    register_scenario(ScenarioSpec(
        name="verizon-lte-uplink-zoom",
        description="Zoom uplink over the committed Verizon-LTE Mahimahi trace pack",
        vca="zoom", direction="up",
        profile=("trace", {"pack": "verizon-lte", "mean_mbps": 2.5}),
        tags=beyond + ("trace-pack",),
    ))

    # Barometer anchors: two fixed, registered representatives of the
    # population sampler's ISP tiers (repro.barometer.population), so the
    # recorded quality-index targets have named, verifiable scenarios.  The
    # sampled household grids themselves are compiled on the fly and never
    # registered.
    barometer = ("beyond-paper", "barometer")
    register_scenario(ScenarioSpec(
        name="barometer/dsl-2p-meet",
        description="Representative DSL-tier household on a two-party Meet call "
                    "(quality-barometer anchor: healthy wired access)",
        vca="meet", direction="both", participants=2,
        profile=("dsl", {"mean_mbps": 6.0}),
        tags=barometer,
    ))
    register_scenario(ScenarioSpec(
        name="barometer/constrained-lte-5p-meet",
        description="Representative constrained-LTE-tier household in a five-party "
                    "Meet gallery (quality-barometer stress cell)",
        vca="meet", direction="both", participants=5,
        profile=("lte", {"mean_mbps": 1.2}),
        loss=("gilbert_elliott", {"mean_loss": 0.02, "mean_burst_packets": 8}),
        tags=barometer,
    ))

    # Cascade pack: the same call fabric over geo-distributed SFU cascades.
    cascade = ("beyond-paper", "cascade")
    register_scenario(ScenarioSpec(
        name="cascade/2region-lte-trunk-zoom",
        description="Two-region Zoom cascade whose inter-region trunk rides a "
                    "synthetic LTE capacity process (mean 3 Mbps)",
        vca="zoom",
        cascade=("star", {
            "regions": 2, "clients_per_region": 3,
            "trunk": {"profile": ("lte", {"mean_mbps": 3.0})},
        }),
        tags=cascade,
    ))
    register_scenario(ScenarioSpec(
        name="cascade/3region-chain-meet",
        description="Three-region Meet chain cascade with clean 40 ms trunks "
                    "(baseline for the trunk-impairment cells)",
        vca="meet",
        cascade=("chain", {"regions": 3, "clients_per_region": 2}),
        tags=cascade,
    ))
    register_scenario(ScenarioSpec(
        name="cascade/trunk-codel-zoom",
        description="Two-region Zoom cascade over a 1.2 Mbps trunk policed by CoDel",
        vca="zoom",
        cascade=("star", {
            "regions": 2, "clients_per_region": 2,
            "trunk": {"profile": ("constant", {"mbps": 1.2}), "aqm": ("codel", {})},
        }),
        tags=cascade,
    ))
    register_scenario(ScenarioSpec(
        name="cascade/trunk-droptail-zoom",
        description="Two-region Zoom cascade over a 1.2 Mbps drop-tail trunk "
                    "(control for cascade/trunk-codel-zoom)",
        vca="zoom",
        cascade=("star", {
            "regions": 2, "clients_per_region": 2,
            "trunk": {"profile": ("constant", {"mbps": 1.2})},
        }),
        tags=cascade + ("control",),
    ))
    register_scenario(ScenarioSpec(
        name="cascade/trunk-outage-meet",
        description="Two-region Meet cascade whose trunk collapses to 0.1 Mbps "
                    "for 30 s one minute in (inter-region disruption)",
        vca="meet",
        cascade=("star", {
            "regions": 2, "clients_per_region": 2,
            "trunk": {"profile": ("disruption",
                                  {"drop_to_mbps": 0.1, "drop_at_s": 60.0, "duration_s": 30.0})},
        }),
        tags=cascade,
    ))
    # Competition pack: the paper's Section 5 cross-traffic cells expressed
    # through the workload axis.  Workloads start with the call and run to
    # its end (no start offset), so the pack composes with any --duration --
    # the CI smoke runs it at 10 s, the recorded targets at 10 s and 45 s.
    competition = ("competition",)
    register_scenario(ScenarioSpec(
        name="competition/teams-vs-zoom-droptail",
        description="Teams (measured) vs a competing Zoom call on a 0.5 Mbps "
                    "drop-tail access link (the Fig 10b calibration cell)",
        vca="teams", direction="both", profile=("constant", {"mbps": 0.5}),
        workload=("vca", {"app": "zoom"}),
        tags=competition,
    ))
    register_scenario(ScenarioSpec(
        name="competition/zoom-vs-tcp-codel",
        description="Zoom (measured) vs one bulk TCP download on a 2 Mbps "
                    "downlink policed by CoDel",
        vca="zoom", direction="down", profile=("constant", {"mbps": 2.0}),
        aqm=("codel", {}),
        workload=("tcp_bulk", {"flows": 1, "direction": "down"}),
        tags=competition,
    ))
    register_scenario(ScenarioSpec(
        name="competition/zoom-vs-tcp-droptail",
        description="Zoom (measured) vs one bulk TCP download on a 2 Mbps "
                    "drop-tail downlink (control for competition/zoom-vs-tcp-codel)",
        vca="zoom", direction="down", profile=("constant", {"mbps": 2.0}),
        workload=("tcp_bulk", {"flows": 1, "direction": "down"}),
        tags=competition + ("control",),
    ))
    register_scenario(ScenarioSpec(
        name="competition/netflix-vs-zoom-lte",
        description="Zoom (measured) vs a Netflix ABR player on a synthetic "
                    "LTE downlink (mean 2.5 Mbps) -- Fig 14 meets netem",
        vca="zoom", direction="down", profile=("lte", {"mean_mbps": 2.5}),
        workload=("streaming", {"app": "netflix"}),
        tags=competition,
    ))

    register_scenario(ScenarioSpec(
        name="cascade/lossy-trunk-far-freeze-zoom",
        description="Two-region Zoom cascade with bursty loss on the forward "
                    "(R0 -> R1) trunk only: far-region viewers freeze, near ones do not",
        vca="zoom",
        cascade=("star", {
            "regions": 2, "clients_per_region": 2,
            "trunk": {
                "loss": ("gilbert_elliott", {"mean_loss": 0.06, "mean_burst_packets": 12}),
                "impair_direction": "forward",
            },
        }),
        tags=cascade,
    ))


_register_builtin_packs()
