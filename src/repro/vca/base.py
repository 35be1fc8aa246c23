"""The common VCA client and the per-VCA profile description.

A :class:`VCAClient` is the emulated application running on one of the
paper's laptops: it encodes the talking-head source, sends it (congestion
controlled) to the call's media server, receives the other participants'
streams, returns RTCP feedback and FIRs, and exposes the per-second
WebRTC-style statistics the paper scrapes from Chrome.

Everything that differs between Zoom, Meet, Teams and their browser variants
is captured in a :class:`VCAProfile` -- factories for the encoder and the
congestion controller, the media-server architecture, FEC overheads, layout
behaviour and client quirks -- so the client, server and call machinery is
shared by all five application models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cc.base import RateController
from repro.core.webrtc_stats import WebRTCStatsCollector
from repro.media.codec import CodecModel, Resolution
from repro.media.layout import LayoutSpec, ViewMode, layout_for
from repro.media.source import TalkingHeadSource
from repro.net.node import Host
from repro.net.packet import SIGNALING, Packet
from repro.net.simulator import PeriodicTask, Simulator
from repro.rtp.jitter import ReceiverConfig, StreamReceiver
from repro.rtp.rtcp import make_fir_packet, make_report_packet
from repro.rtp.session import MediaEncoder, RtpStreamSender, SenderConfig
from repro.rtp.sip import SignalingMessage, SignalKind, send_signal

__all__ = ["VCAProfile", "VCAClient", "uplink_flow", "downlink_flow"]


def uplink_flow(participant: str, call_id: str = "call") -> str:
    """Flow id of a participant's uplink media stream."""
    return f"{call_id}:up:{participant}"


def downlink_flow(sender: str, receiver: str, call_id: str = "call") -> str:
    """Flow id of the server-forwarded stream from ``sender`` to ``receiver``."""
    return f"{call_id}:down:{sender}>{receiver}"


@dataclass
class VCAProfile:
    """Everything that distinguishes one VCA (and platform) from another."""

    #: Canonical VCA name: ``zoom`` / ``meet`` / ``teams``.
    name: str
    #: ``native`` or ``chrome``.
    platform: str
    #: Media-server behaviour: ``svc_relay`` (Zoom), ``sfu_simulcast`` (Meet)
    #: or ``plain_relay`` (Teams).
    architecture: str
    #: Builds the sender-side encoder (single stream, simulcast or SVC).
    encoder_factory: Callable[[CodecModel, TalkingHeadSource], MediaEncoder]
    #: Builds the sender-side congestion controller.
    controller_factory: Callable[[np.random.Generator], RateController]
    #: Nominal video bitrate of the uplink when unconstrained (for reference
    #: and for the time-to-recovery metric's nominal-rate baseline).
    nominal_video_bps: float
    #: FEC overhead the *server* adds when forwarding to receivers (Zoom).
    server_fec_ratio: float = 0.0
    #: Fraction of the per-receiver bandwidth estimate the server is willing
    #: to spend when selecting which copy/layers to forward.
    server_headroom: float = 0.85
    #: Lowest forwarded rate of the top copy/layer before the server falls
    #: back to the next lower one (frame thinning floor).
    server_thinning_floor: float = 0.5
    #: Whether the server adapts per receiver at all (False for Teams, whose
    #: server is a plain relay and adaptation happens at the sender).
    server_adapts: bool = True
    #: Whether the sender honours resolution caps derived from receivers'
    #: layouts (Teams does not -- its uplink stays flat in gallery mode).
    honors_layout_caps: bool = True
    #: Uplink bitrate ceiling to use when this client is pinned in speaker
    #: mode, as a function of the number of call participants.  ``None``
    #: keeps the nominal ceiling.
    speaker_uplink_bps: Optional[Callable[[int], float]] = None
    #: Uplink video bitrate used when the largest resolution any receiver
    #: displays this client at is the given one (drives the participant-count
    #: effects of Figure 15b).  ``None`` keeps the nominal rate regardless.
    rate_for_resolution: Optional[Callable[[Resolution], float]] = None
    #: Mean interval between spontaneous encoder stalls (Teams-Chrome's
    #: baseline freezes, Section 3.2); ``None`` disables the quirk.
    stall_interval_s: Optional[float] = None
    #: Duration of one encoder stall.
    stall_duration_s: float = 0.3
    #: Whether per-second WebRTC statistics are available (False for
    #: Zoom-Chrome, which uses DataChannels).
    stats_available: bool = True
    #: Interval between RTCP receiver reports sent by clients and servers.
    feedback_interval_s: float = 0.25
    #: Audio bitrate (constant, not congestion controlled).
    audio_bps: float = 40_000.0

    def display_name(self) -> str:
        """Human-readable name as used in the paper's figures."""
        if self.platform == "chrome" and self.name != "meet":
            return f"{self.name.capitalize()}-Chrome"
        return self.name.capitalize()


class VCAClient:
    """One participant's VCA application instance."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        profile: VCAProfile,
        server_name: str,
        call_id: str = "call",
        codec: Optional[CodecModel] = None,
        seed: int = 0,
        collect_stats: bool = True,
    ) -> None:
        self.sim = sim
        self.host = host
        self.profile = profile
        self.server_name = server_name
        self.call_id = call_id
        self.name = host.name
        self.rng = np.random.default_rng(seed)
        self.codec = codec or CodecModel()

        source = TalkingHeadSource(seed=seed)
        self.encoder = profile.encoder_factory(self.codec, source)
        # Rebase this sender's frame ids into a seed-derived disjoint range
        # so the SFU's deterministic frame-hash thinning is decorrelated
        # across participants (ids stay unique within the flow, which is all
        # the receivers need).
        reseed = getattr(self.encoder, "reseed_frame_ids", None)
        if reseed is not None:
            reseed(1 + (seed % 4096) * 5_000_000)
        self.controller = profile.controller_factory(self.rng)
        self.sender = RtpStreamSender(
            sim=sim,
            host=host,
            flow_id=uplink_flow(self.name, call_id),
            dst=server_name,
            encoder=self.encoder,
            controller=self.controller,
            config=SenderConfig(audio_bitrate_bps=profile.audio_bps),
        )

        #: One receiver per remote participant whose stream we are sent.
        self.receivers: dict[str, StreamReceiver] = {}
        self._receiver_tasks: dict[str, PeriodicTask] = {}
        self._stall_task: Optional[PeriodicTask] = None
        self._paused_until = 0.0
        self.in_call = False
        self.view_mode = ViewMode.GALLERY
        self.pinned: Optional[str] = None
        self._participants: tuple[str, ...] = (self.name,)

        self.stats: Optional[WebRTCStatsCollector] = None
        if collect_stats and profile.stats_available:
            self.stats = WebRTCStatsCollector(sim, provider=self._stats_snapshot)

        host.set_default_handler(self._on_unclassified_packet)

    # ------------------------------------------------------------ lifecycle
    def join(self, participants: tuple[str, ...]) -> None:
        """Join the call: signal the server and start sending media."""
        self._participants = tuple(participants)
        send_signal(
            self.host,
            self.server_name,
            SignalingMessage(kind=SignalKind.INVITE, sender=self.name, payload={}),
        )
        self.in_call = True
        self.sender.start()
        if self.stats is not None:
            self.stats.start()
        if self.profile.stall_interval_s is not None:
            self._schedule_stall()
        self._announce_layout()

    def leave(self) -> None:
        """Leave the call and stop all periodic work."""
        if not self.in_call:
            return
        self.in_call = False
        send_signal(
            self.host,
            self.server_name,
            SignalingMessage(kind=SignalKind.BYE, sender=self.name, payload={}),
        )
        self.sender.stop()
        if self.stats is not None:
            self.stats.stop()
        for task in self._receiver_tasks.values():
            task.stop()
        self._receiver_tasks.clear()
        if self._stall_task is not None:
            self._stall_task.stop()

    # ------------------------------------------------------------ receiving
    def expect_stream_from(self, remote: str) -> StreamReceiver:
        """Prepare to receive (and acknowledge) a remote participant's stream."""
        if remote in self.receivers:
            return self.receivers[remote]
        flow = downlink_flow(remote, self.name, self.call_id)
        # The stream's RTCP flow id is formatted once, not on every report.
        rtcp_flow = f"{flow}:rtcp"
        receiver = StreamReceiver(
            self.sim,
            flow,
            config=ReceiverConfig(),
            on_fir=lambda _flow: self._send_fir(rtcp_flow),
        )
        self.receivers[remote] = receiver
        self.host.register_flow(flow, receiver.on_packet, batch_handler=receiver.on_packet_batch)
        task = self.sim.every(
            self.profile.feedback_interval_s,
            lambda: self._send_feedback(receiver, rtcp_flow),
        )
        self._receiver_tasks[remote] = task
        return receiver

    def _send_feedback(self, receiver: StreamReceiver, rtcp_flow: str) -> None:
        if not self.in_call:
            return
        now = self.sim._now
        report = receiver.make_report(now)
        self.host.send(make_report_packet(rtcp_flow, self.name, self.server_name, report, now))

    def _send_fir(self, rtcp_flow: str) -> None:
        self.host.send(make_fir_packet(rtcp_flow, self.name, self.server_name, self.sim._now))

    # --------------------------------------------------------------- layout
    def set_view(self, mode: ViewMode, pinned: Optional[str] = None) -> None:
        """Switch between gallery and speaker mode (optionally pinning a user)."""
        self.view_mode = mode
        self.pinned = pinned
        if self.in_call:
            self._announce_layout()

    def current_layout(self) -> LayoutSpec:
        """The tiles this client currently displays."""
        return layout_for(
            self.profile.name,
            viewer=self.name,
            participants=self._participants,
            mode=self.view_mode,
            pinned=self.pinned,
        )

    def _announce_layout(self) -> None:
        layout = self.current_layout()
        payload = {
            "tiles": {name: (res.width, res.height) for name, res in layout.tiles.items()},
            "mode": layout.mode.value,
        }
        send_signal(
            self.host,
            self.server_name,
            SignalingMessage(kind=SignalKind.LAYOUT_UPDATE, sender=self.name, payload=payload),
        )

    def apply_uplink_cap(
        self, resolution: Resolution, n_participants: int, pinned_in_speaker: bool = False
    ) -> None:
        """Apply the server-derived cap on the resolution anyone displays us at.

        For Zoom and Meet the cap lowers the congestion controller's ceiling
        (this is the uplink drop at five/seven participants in Figure 15b);
        Teams ignores gallery caps.  A client pinned in speaker mode instead
        raises its ceiling according to the profile's speaker behaviour
        (Figure 15c).
        """
        if pinned_in_speaker and self.profile.speaker_uplink_bps is not None:
            ceiling = self.profile.speaker_uplink_bps(n_participants)
            self.controller.config.max_bitrate_bps = ceiling
            # Single-stream encoders also need their policy ceiling raised,
            # otherwise the encoder clamps below the new target (this is how
            # Teams reaches 2.9 Mbps when pinned in an 8-party call).
            policy = getattr(self.encoder, "policy", None)
            if policy is not None and hasattr(policy, "nominal_bitrate_bps"):
                policy.nominal_bitrate_bps = max(policy.nominal_bitrate_bps, ceiling)
            return
        if not self.profile.honors_layout_caps:
            return
        if self.profile.rate_for_resolution is not None:
            cap = self.profile.rate_for_resolution(resolution)
        else:
            cap = self.profile.nominal_video_bps
        cap = min(cap, self.profile.nominal_video_bps)
        ceiling = max(cap, self.controller.config.min_bitrate_bps)
        self.controller.config.max_bitrate_bps = ceiling
        # The client re-targets immediately when told that nobody displays it
        # at a larger resolution: lowering only the ceiling would leave the
        # current target above it, which a controller on an uncongested link
        # never corrects (and the Zoom-style FBRA controller would misread as
        # a post-disruption overshoot, padding the gap with sustained FEC).
        # Figure 15b's uplink drop at five (Zoom) / seven (Meet) participants
        # is this clamp taking effect.
        if self.controller.target_bitrate_bps > ceiling:
            self.controller.reset(ceiling)
            self.encoder.set_target_bitrate(ceiling)

    # --------------------------------------------------------------- quirks
    def _schedule_stall(self) -> None:
        assert self.profile.stall_interval_s is not None
        interval = float(self.rng.exponential(self.profile.stall_interval_s))
        interval = min(max(interval, 1.0), 4.0 * self.profile.stall_interval_s)
        self._stall_task = None
        self.sim.schedule(interval, self._do_stall)

    def _do_stall(self) -> None:
        if not self.in_call:
            return
        # Pause the encoder briefly: downstream receivers see a frame gap,
        # reproducing Teams-Chrome's baseline freeze ratio (~3.6%).
        self.sender.paused_until = self.sim.now + self.profile.stall_duration_s
        self._schedule_stall()

    # ---------------------------------------------------------------- stats
    def _stats_snapshot(self) -> dict[str, float]:
        settings = self.sender.current_settings
        snapshot: dict[str, float] = {
            "target_bitrate_bps": self.sender.target_bitrate_bps,
            "sent_width": settings.width,
            "sent_fps": settings.fps,
            "sent_qp": settings.qp,
            "fir_received": self.sender.fir_received,
            "bytes_sent": self.host.bytes_sent,
            "bytes_received": self.host.bytes_received,
        }
        # Received-stream statistics, aggregated over remote participants
        # (in two-party calls there is exactly one remote stream, matching
        # what the paper reads from Chrome).
        fps_total = 0
        freeze_total = 0.0
        fir_total = 0
        width = 0.0
        qp = 0.0
        for receiver in self.receivers.values():
            fps_total += receiver.sample_received_fps()
            fir_total += receiver.fir_sent
            if receiver.freeze_tracker is not None:
                freeze_total += receiver.freeze_tracker.total_freeze_s
            received = receiver.received_settings
            width = max(width, received.get("width", 0.0))
            qp = max(qp, received.get("qp", 0.0))
        snapshot.update(
            {
                "received_fps": float(fps_total),
                "received_width": width,
                "received_qp": qp,
                "freeze_total_s": freeze_total,
                "fir_sent": float(fir_total),
            }
        )
        return snapshot

    # ------------------------------------------------------------- plumbing
    def _on_unclassified_packet(self, packet: Packet) -> None:
        """Handle signalling addressed to this client; ignore everything else."""
        if packet.kind is not SIGNALING:
            return
        from repro.rtp.sip import extract_signal  # local import avoids cycle at module load

        message = extract_signal(packet)
        if message is None or message.kind is not SignalKind.LAYER_REQUEST:
            return
        payload = message.payload
        resolution = Resolution(int(payload.get("width", 1280)), int(payload.get("height", 720)))
        self.apply_uplink_cap(
            resolution,
            n_participants=int(payload.get("participants", len(self._participants))),
            pinned_in_speaker=bool(payload.get("pinned", False)),
        )
