"""Subscription and layer-decision state of an SFU node.

This module is the *control half* of the SFU split: everything a node knows
about a participant (layouts, per-layer bitrate meters, RTCP aggregates,
forwarding decisions) plus the pure layer-selection policies that turn a
bandwidth budget into a set of simulcast copies / SVC layers.  The
*forwarding plane* -- cached dispatch plans, per-hop sequence rewrite, trunk
egress -- lives in :mod:`repro.vca.sfu.node` and only consumes these
decisions.

The decision functions are pure (profile + state + budget in, layer set
out), so they behave identically whether the receiver sits behind the node's
own access legs or behind a server-to-server trunk in a cascade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cc.base import FeedbackReport
from repro.cc.gcc import GCCController
from repro.media.codec import Resolution
from repro.rtp.jitter import StreamReceiver
from repro.vca.base import VCAProfile

__all__ = [
    "ParticipantState",
    "aggregate_reports",
    "decide_simulcast",
    "decide_svc",
    "top_of",
    "is_top_selection",
    "cap_layers_for_budget",
    "SVC_LAYER_ORDER",
    "SIMULCAST_ORDER",
]


@dataclass
class _LayerMeter:
    """EWMA bitrate of one layer of one sender's uplink stream."""

    bytes_in_window: int = 0
    rate_bps: float = 0.0

    def roll(self, interval_s: float, smoothing: float = 0.4) -> None:
        instantaneous = self.bytes_in_window * 8 / max(interval_s, 1e-6)
        if self.rate_bps == 0.0:
            self.rate_bps = instantaneous
        else:
            self.rate_bps = (1 - smoothing) * self.rate_bps + smoothing * instantaneous
        self.bytes_in_window = 0


@dataclass
class ParticipantState:
    """Everything an SFU node tracks about one media source.

    A node keeps one of these per *local* participant and one per *remote*
    sender whose media arrives over an ingress trunk; for remote senders the
    ``uplink_receiver`` observes the trunk leg and ``downlink_estimator`` is
    ``None`` (the sender's home node owns its uplink feedback loop).
    """

    name: str
    #: Receiver-side state of this participant's uplink stream (loss/delay
    #: observations the server reports back to the sender).
    uplink_receiver: Optional[StreamReceiver] = None
    #: The server's estimate of this participant's *downlink* capacity,
    #: driven by the RTCP reports the participant sends about the streams it
    #: receives.  Used to select simulcast copies / SVC layers.
    downlink_estimator: Optional[GCCController] = None
    #: Last RTCP report per forwarded stream (keyed by original sender).
    last_reports: dict[str, FeedbackReport] = field(default_factory=dict)
    #: Tiles this participant currently displays: sender -> requested resolution.
    layout: dict[str, Resolution] = field(default_factory=dict)
    #: Viewing mode ("gallery" / "speaker").
    view_mode: str = "gallery"
    #: Measured per-layer uplink bitrates of this participant's stream.
    layer_meters: dict[str, _LayerMeter] = field(default_factory=dict)
    #: Flat per-layer byte accumulator for the current metering window.  The
    #: per-packet path does one dict add here; the bytes are rolled into
    #: :attr:`layer_meters` (EWMA) on demand at each feedback tick.
    layer_bytes: dict[str, int] = field(default_factory=dict)
    #: Current forwarding decision toward each receiver: receiver ->
    #: (set of layers to forward, keep-probability of the top forwarded layer).
    forwarding: dict[str, tuple[set[str], float]] = field(default_factory=dict)
    #: Simulation time since when this receiver's aggregate downlink loss has
    #: continuously exceeded the sustained-loss shedding threshold (negative
    #: while below it).  Drives the egress node's relay pacing under the
    #: competition floor.
    loss_high_since: float = -1.0
    #: Aggregate delivered rate the receiver last reported, the anchor of the
    #: sustained-loss shed budget.
    delivered_rate_bps: float = 0.0
    #: EWMA of the receiver's aggregate loss fraction, the signal the shed
    #: thresholds read -- raw per-window loss is bursty enough that single
    #: good windows would otherwise flap the shed state.
    shed_loss_ewma: float = 0.0


#: Order of SVC layers from base to top (must match repro.media.svc defaults).
SVC_LAYER_ORDER = ("base", "mid", "top")
#: Order of simulcast copies from low to high (must match repro.media.simulcast).
SIMULCAST_ORDER = ("low", "high")

#: Nominal per-layer rates used before the meters have seen traffic.
LAYER_RATE_DEFAULTS = {
    "base": 110_000.0,
    "mid": 240_000.0,
    "top": 390_000.0,
    "low": 150_000.0,
    "high": 800_000.0,
}


def aggregate_reports(reports: Iterable[FeedbackReport]) -> Optional[FeedbackReport]:
    """Combine per-stream RTCP reports into one conservative aggregate.

    Rates and packet counts add; loss/delay observations take the worst
    stream, because one congested path impairs every stream sharing it.
    Used both for a receiver's downlink estimator and for the per-trunk
    relay estimators of a cascade.

    One pass over the reports.  The result is bit-identical to ``max()`` and
    ``sum()`` of each field: a maximum keeps the first of tied values (so
    ``-0.0`` before ``0.0`` stays ``-0.0``), and sums add left to right from
    the integer ``0`` (so a lone ``-0.0`` rate sums to ``0.0``).
    """
    it = iter(reports)
    first = next(it, None)
    if first is None:
        return None
    timestamp = first.timestamp
    interval = first.interval_s
    loss = first.loss_fraction
    queueing = first.queueing_delay_s
    gradient = first.delay_gradient_s
    rtt = first.rtt_s
    rate = 0 + first.receive_rate_bps
    expected = 0 + first.packets_expected
    received = 0 + first.packets_received
    for r in it:
        if r.timestamp > timestamp:
            timestamp = r.timestamp
        if r.interval_s > interval:
            interval = r.interval_s
        if r.loss_fraction > loss:
            loss = r.loss_fraction
        if r.queueing_delay_s > queueing:
            queueing = r.queueing_delay_s
        if r.delay_gradient_s > gradient:
            gradient = r.delay_gradient_s
        if r.rtt_s > rtt:
            rtt = r.rtt_s
        rate += r.receive_rate_bps
        expected += r.packets_expected
        received += r.packets_received
    return FeedbackReport(
        timestamp=timestamp,
        interval_s=interval,
        receive_rate_bps=rate,
        loss_fraction=loss,
        queueing_delay_s=queueing,
        delay_gradient_s=gradient,
        rtt_s=rtt,
        packets_expected=expected,
        packets_received=received,
    )


def top_of(layers: set[str]) -> str:
    """The highest layer of a forwarded set (SVC or simulcast ordering)."""
    order = SVC_LAYER_ORDER if "base" in layers or "mid" in layers else SIMULCAST_ORDER
    top = ""
    for name in order:
        if name in layers:
            top = name
    return top or (sorted(layers)[-1] if layers else "")


def is_top_selection(
    profile: VCAProfile, sender_state: ParticipantState, layers: set[str]
) -> bool:
    """True if the forwarded layer set already includes the best layer."""
    available = set(sender_state.layer_meters) or {"main"}
    order = SVC_LAYER_ORDER if profile.architecture == "svc_relay" else SIMULCAST_ORDER
    best = None
    for name in order:
        if name in available:
            best = name
    if best is None:
        return True
    return best in layers


def decide_simulcast(
    profile: VCAProfile,
    sender_state: ParticipantState,
    budget: float,
    requested: Optional[Resolution],
) -> tuple[set[str], float]:
    """Meet-style copy selection: the one copy that fits the budget."""
    high_rate = sender_state.layer_meters.get("high", _LayerMeter()).rate_bps or 800_000.0
    wants_high = requested is None or requested.width >= 640
    high_floor = high_rate * profile.server_thinning_floor
    if wants_high and "high" in sender_state.layer_meters and budget >= max(high_floor, 300_000.0):
        keep = min(budget / max(high_rate, 1.0), 1.0)
        return ({"high"}, keep)
    return ({"low"}, 1.0)


def decide_svc(
    profile: VCAProfile,
    sender_state: ParticipantState,
    budget: float,
    requested: Optional[Resolution],
) -> tuple[set[str], float]:
    """Zoom-style SVC layer packing: cumulative layers within the budget."""
    # Cap the forwarded hierarchy by the receiver's requested resolution.
    allowed = set(SVC_LAYER_ORDER)
    if requested is not None:
        if requested.width < 640:
            allowed = {"base"}
        elif requested.width < 1280:
            allowed = {"base", "mid"}
    layers: set[str] = set()
    keep = 1.0
    cumulative = 0.0
    defaults = {"base": 110_000.0, "mid": 240_000.0, "top": 390_000.0}
    fec_factor = 1.0 + profile.server_fec_ratio
    for layer_name in SVC_LAYER_ORDER:
        if layer_name not in allowed:
            break
        meter = sender_state.layer_meters.get(layer_name)
        rate = (meter.rate_bps if meter and meter.rate_bps > 0 else defaults[layer_name]) * fec_factor
        if layer_name == "base":
            layers.add(layer_name)
            cumulative += rate
            continue
        if cumulative + rate * profile.server_thinning_floor <= budget:
            layers.add(layer_name)
            keep = min((budget - cumulative) / max(rate, 1.0), 1.0)
            cumulative += rate * keep
        else:
            break
    return (layers, keep)


def cap_layers_for_budget(
    profile: VCAProfile,
    sender_state: ParticipantState,
    layers: frozenset[str],
    budget: float,
) -> frozenset[str]:
    """Trim a demanded layer set to a trunk's bandwidth budget.

    Only layers *above* the lowest demanded one are dropped: a downstream
    receiver whose decision names a specific copy must still get it, so a
    congested trunk degrades quality for the region behind it without
    silencing it.
    """
    order = SVC_LAYER_ORDER if profile.architecture == "svc_relay" else SIMULCAST_ORDER
    kept: set[str] = set()
    cumulative = 0.0
    for name in order:
        if name not in layers:
            continue
        meter = sender_state.layer_meters.get(name)
        rate = meter.rate_bps if meter is not None and meter.rate_bps > 0 else LAYER_RATE_DEFAULTS[name]
        if not kept or cumulative + rate <= budget:
            kept.add(name)
            cumulative += rate
        else:
            break
    extras = set(layers) - set(order)
    return frozenset(kept | extras)
