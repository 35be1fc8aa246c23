"""The SFU forwarding plane: one composable media-server node.

:class:`SfuNode` is the successor of the monolithic ``MediaServer``: the
same SFU copy selection, SVC layer relay (+FEC) and plain relay the paper's
three VCAs exhibit (see :mod:`repro.vca.sfu.state` for the architecture
notes), factored so a node can be *one hop* of a cascaded, geo-distributed
call instead of its single center.

A node forwards media from two kinds of sources -- its local participants'
uplinks and remote senders arriving over ingress trunks -- to two kinds of
destinations: local receivers (per-receiver copies with sequence rewrite,
thinning and regenerated FEC, exactly as before) and egress trunks.  The
cached dispatch plans become per-hop: a plan maps ``(sender, layer)`` to the
local receiver fan-out *plus* the set of egress trunks whose subtree demands
that layer, so a packet train crosses each trunk exactly once no matter how
many receivers sit behind it.

Standalone (``control=None``) a node *is* the old ``MediaServer`` -- same
event order, same RNG draws, byte-identical link statistics -- which the
equivalence suite asserts against the pre-refactor fingerprints.
"""

from __future__ import annotations

from typing import Optional

from repro.calibrate.constants import active_constants
from repro.cc.gcc import GCCController
from repro.media.codec import Resolution
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.simulator import PeriodicTask, Simulator
from repro.rtp.jitter import LegacyStreamReceiver, StreamReceiver
from repro.rtp.rtcp import extract_report, is_fir, make_fir_packet, make_report_packet
from repro.rtp.sip import SignalingMessage, SignalKind, extract_signal, send_signal
from repro.vca.base import VCAProfile, downlink_flow, uplink_flow
from repro.vca.sfu.cascade import CascadeControl, TrunkIngress
from repro.vca.sfu.state import (
    SIMULCAST_ORDER,
    SVC_LAYER_ORDER,
    ParticipantState,
    _LayerMeter,
    aggregate_reports,
    cap_layers_for_budget,
    decide_simulcast,
    decide_svc,
    is_top_selection,
    top_of,
)

__all__ = ["SfuNode", "MediaServer"]

_SVC_LAYER_ORDER = SVC_LAYER_ORDER
_SIMULCAST_ORDER = SIMULCAST_ORDER


def trunk_flow(call_id: str, src_node: str, dst_node: str, sender: str) -> str:
    """Flow id of one sender's media on the ``src_node -> dst_node`` trunk."""
    return f"{call_id}:trunk:{src_node}>{dst_node}:{sender}"


class SfuNode:
    """One media-server node (SFU / SVC relay / plain relay), cascade-capable."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        profile: VCAProfile,
        call_id: str = "call",
        polled: bool = False,
        control: Optional[CascadeControl] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.profile = profile
        self.call_id = call_id
        #: Mirror of the clients' pipeline mode: in polled (PR 1 replica)
        #: mode the server's uplink receivers keep the original per-packet
        #: stale-frame scan so the benchmark baseline stays faithful.
        self.polled = polled
        #: Node identity within a cascade; the host name doubles as the id.
        self.node_id = host.name
        #: Shared cascade control plane, or ``None`` for a standalone node.
        self._control = control
        self.participants: dict[str, ParticipantState] = {}
        #: Senders homed at other nodes whose media arrives over a trunk.
        self.remote_senders: dict[str, ParticipantState] = {}
        #: Receive-side trunk state keyed by the upstream node id.
        self._trunk_ingress: dict[str, TrunkIngress] = {}
        self.bytes_forwarded = 0
        self.fec_bytes_added = 0
        self.probe_bytes_sent = 0
        #: Bytes copied onto egress trunks (kept apart from the per-receiver
        #: ``bytes_forwarded`` accounting: one trunk train serves a whole
        #: subtree).
        self.trunk_bytes_forwarded = 0
        self._fec_rng = sim.rng
        self._task: Optional[PeriodicTask] = None
        self._last_probe_at: dict[str, float] = {}
        #: Per-(sender, receiver) RTP sequence counters for forwarded media.
        #: Selective forwarding (dropping copies, layers or thinned frames)
        #: would otherwise leave gaps in the original sequence space that the
        #: receiver would misread as network loss; real SFUs rewrite the RTP
        #: sequence numbers for exactly this reason.  Counters are one-element
        #: lists so cached dispatch plans can bump them without a dict lookup
        #: per packet (and they survive plan invalidation).
        self._forward_seq: dict[tuple[str, str], list[int]] = {}
        #: Per-(sender, egress-trunk-peer) sequence counters: a trunk is a
        #: selective hop too (the subtree's demanded layers only), so the
        #: downstream node's trunk receiver needs its own gapless space.
        self._trunk_seq: dict[tuple[str, str], list[int]] = {}
        #: Cached forwarding plans keyed by ``(sender, layer)`` (``None`` for
        #: audio): the per-receiver dispatch decision resolved once and
        #: invalidated on layout / membership / forwarding-decision changes
        #: instead of being recomputed for every packet.  Each video entry is
        #: ``(receiver, keep_probability, downlink_flow_id, seq_key)``.
        self._forward_plans: dict[tuple[str, Optional[str]], list] = {}
        #: Per-hop trunk plans keyed like :attr:`_forward_plans`: which
        #: egress trunks demand this ``(sender, layer)``.  Video entries are
        #: ``(peer_node, trunk_flow_id, seq_cell)``; audio entries
        #: ``(peer_node, trunk_flow_id)``.  Invalidated by the control plane
        #: when any subtree's demand or layout changes.
        self._trunk_plans: dict[tuple[str, Optional[str]], list] = {}
        #: Uplink flow id -> participant state, so the per-train dispatch
        #: skips the flow-id string parse (invalidated with the plans).
        self._state_by_flow: dict[str, ParticipantState] = {}
        #: Downlink RTCP flow id -> ``(sender, receiver)``, so each report
        #: skips the flow-id string parse.
        self._rtcp_streams: dict[str, tuple[str, str]] = {}
        #: Interval between downlink bandwidth probes toward an
        #: application-limited receiver (the emulated ALR probing).
        self.probe_interval_s = 3.0
        # Sustained-loss shedding (svc_relay only): when a receiver's
        # aggregate downlink loss stays above the threshold for the holdoff,
        # the relay paces its layer budget to a multiple of the *delivered*
        # rate instead of flooding the estimator floor into the queue -- the
        # bounded-tx-loss behaviour at the 0.5 Mbps competition floor.
        constants = active_constants()
        if profile.architecture == "svc_relay":
            self._shed_loss_threshold = constants.zoom_relay_shed_loss_threshold
            self._shed_after_s = constants.zoom_relay_shed_after_s
            self._shed_headroom = constants.zoom_relay_shed_headroom
            self._shed_smoothing = constants.zoom_relay_shed_loss_smoothing
        else:
            self._shed_loss_threshold = 1.0
            self._shed_after_s = 0.0
            self._shed_headroom = 0.0
            self._shed_smoothing = 0.0
        if control is not None:
            control.register_node(self)
        host.set_default_handler(self.on_packet, batch_handler=self.on_packet_batch)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin the periodic feedback / forwarding-decision loop."""
        if self._task is None:
            self._task = self.sim.every(self.profile.feedback_interval_s, self._feedback_tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def add_participant(self, name: str) -> ParticipantState:
        """Register a locally homed participant (idempotent)."""
        state = self.participants.get(name)
        if state is not None:
            return state
        state = ParticipantState(name=name)
        receiver_cls = LegacyStreamReceiver if self.polled else StreamReceiver
        state.uplink_receiver = receiver_cls(
            self.sim,
            uplink_flow(name, self.call_id),
            track_quality=False,
        )
        # The per-receiver estimator: GCC with a wider receive-rate cap and a
        # low floor, standing in for the probing an SFU performs to discover
        # downlink headroom while it is application-limited on a cheap copy.
        # Zoom's relay is markedly less delay-sensitive than Meet's SFU: its
        # FEC lets it ride out queueing and loss, so its estimate follows the
        # loss-based leg of the shared BWE -- the source of Zoom's
        # aggressiveness against TCP and other VCAs on the downlink
        # (Section 5).  Both estimator parameterisations come from the
        # jointly calibrated competition constants (repro.calibrate): the
        # same constants must satisfy Figures 8, 10, 12 and 14 at once.
        state.downlink_estimator = GCCController(self._estimator_config())
        self.participants[name] = state
        self._forward_plans.clear()
        self._trunk_plans.clear()
        self._state_by_flow.clear()
        return state

    def remove_participant(self, name: str) -> None:
        self.participants.pop(name, None)
        self._forward_plans.clear()
        self._trunk_plans.clear()
        self._state_by_flow.clear()

    def _estimator_config(self):
        constants = active_constants()
        if self.profile.architecture == "svc_relay":
            return constants.zoom_relay_estimator_config()
        return constants.meet_relay_estimator_config()

    def _n_call_participants(self) -> int:
        if self._control is not None:
            return self._control.total_participants()
        return len(self.participants)

    # ------------------------------------------------------------ data path
    def on_packet(self, packet: Packet) -> None:
        """Dispatch every packet arriving at the server host."""
        if packet.kind is PacketKind.SIGNALING:
            self._on_signal(packet)
            return
        if packet.kind is PacketKind.RTCP:
            self._on_rtcp(packet)
            return
        if packet.kind in (PacketKind.RTP_VIDEO, PacketKind.RTP_AUDIO, PacketKind.FEC):
            # Media arriving one packet at a time (e.g. through the measured
            # client's shaped link): the event-driven server still resolves
            # the forwarding decision from the cached dispatch plans; the
            # polled escape hatch keeps the original per-packet path.
            if self.polled:
                self._on_media(packet)
            else:
                self._on_media_batch((packet,))
            return

    # ------------------------------------------------------------ signalling
    def _on_signal(self, packet: Packet) -> None:
        message = extract_signal(packet)
        if message is None:
            return
        if message.kind is SignalKind.INVITE:
            self.add_participant(message.sender)
        elif message.kind is SignalKind.BYE:
            self.remove_participant(message.sender)
        elif message.kind is SignalKind.LAYOUT_UPDATE:
            state = self.add_participant(message.sender)
            tiles = message.payload.get("tiles", {})
            state.layout = {
                sender: Resolution(int(w), int(h)) for sender, (w, h) in tiles.items()
            }
            state.view_mode = message.payload.get("mode", "gallery")
            self._forward_plans.clear()
            self._recompute_uplink_caps()
            if self._control is not None:
                self._control.publish_layout(self.node_id)

    def _recompute_uplink_caps(self) -> None:
        """Tell every local sender the largest resolution anyone displays it at.

        This is the signalling path that produces the uplink reductions at
        five (Zoom) and seven (Meet) participants and the speaker-mode uplink
        increase of Figure 15c.  In a cascade the remote viewers' published
        requests are folded in, so a sender's cap reflects the whole call
        while the LAYER_REQUEST still travels only the local leg.
        """
        n_participants = self._n_call_participants()
        for sender in self.participants:
            best: Optional[Resolution] = None
            pinned = False
            for receiver, state in self.participants.items():
                if receiver == sender:
                    continue
                requested = state.layout.get(sender)
                if requested is None:
                    continue
                if state.view_mode == "speaker" and requested.width >= 1280:
                    pinned = True
                if best is None or requested.pixels > best.pixels:
                    best = requested
            if self._control is not None:
                best, pinned = self._control.merge_remote_requests(
                    self.node_id, sender, best, pinned
                )
            if best is None:
                continue
            send_signal(
                self.host,
                sender,
                SignalingMessage(
                    kind=SignalKind.LAYER_REQUEST,
                    sender=self.host.name,
                    payload={
                        "width": best.width,
                        "height": best.height,
                        "pinned": pinned,
                        "participants": n_participants,
                    },
                ),
            )

    # --------------------------------------------------------------- RTCP
    def _on_rtcp(self, packet: Packet) -> None:
        flow = packet.flow_id
        stream = self._rtcp_streams.get(flow)
        if stream is None:
            # Reports/FIRs from receivers concern flows named
            # ``{call}:down:{sender}>{receiver}:rtcp``.
            if ":down:" not in flow:
                self._relay_uplink_rtcp(packet)
                return
            stream_part = flow.split(":down:", 1)[1].rsplit(":rtcp", 1)[0]
            sender_name, _, receiver_name = stream_part.partition(">")
            stream = self._rtcp_streams[flow] = (sender_name, receiver_name)
        sender_name, receiver_name = stream
        if is_fir(packet):
            # Ask the original sender for a keyframe regardless of architecture.
            fir = make_fir_packet(
                f"{uplink_flow(sender_name, self.call_id)}:rtcp",
                self.host.name,
                sender_name,
                self.sim.now,
            )
            if self._control is not None and sender_name not in self.participants:
                self._forward_toward(sender_name, fir)
            else:
                self.host.send(fir)
            return
        report = extract_report(packet)
        if report is None:
            return
        receiver_state = self.participants.get(receiver_name)
        if receiver_state is None:
            return
        receiver_state.last_reports[sender_name] = report
        if self.profile.server_adapts:
            aggregate = self._aggregate_reports(receiver_state)
            if aggregate is not None:
                receiver_state.downlink_estimator.on_feedback(aggregate, self.sim.now)
                if self._shed_after_s > 0.0:
                    receiver_state.delivered_rate_bps = aggregate.receive_rate_bps
                    # Smooth the bursty per-window loss before thresholding,
                    # and release with hysteresis: shedding itself pulls the
                    # loss below the engage threshold, so disengaging there
                    # (or on one good window) would re-flood immediately --
                    # a flood/shed limit cycle.  Only a genuinely recovered
                    # link, loss under half the engage threshold, re-arms.
                    ewma = receiver_state.shed_loss_ewma
                    ewma += self._shed_smoothing * (aggregate.loss_fraction - ewma)
                    receiver_state.shed_loss_ewma = ewma
                    if ewma >= self._shed_loss_threshold:
                        if receiver_state.loss_high_since < 0.0:
                            receiver_state.loss_high_since = self.sim.now
                    elif ewma < 0.5 * self._shed_loss_threshold:
                        receiver_state.loss_high_since = -1.0
        else:
            # Plain relay: hand the end-to-end report to the original sender.
            relayed = make_report_packet(
                f"{uplink_flow(sender_name, self.call_id)}:rtcp",
                self.host.name,
                sender_name,
                report,
                self.sim.now,
            )
            if self._control is not None and sender_name not in self.participants:
                self._forward_toward(sender_name, relayed)
            else:
                self.host.send(relayed)

    def _relay_uplink_rtcp(self, packet: Packet) -> None:
        """Pass uplink-directed RTCP on toward its remote sender.

        Relayed reports and keyframe requests cross the cascade this way;
        a standalone node drops them.
        """
        flow = packet.flow_id
        if self._control is None or ":up:" not in flow or not flow.endswith(":rtcp"):
            return
        target = flow.split(":up:", 1)[1].rsplit(":rtcp", 1)[0]
        if target in self.participants:
            packet.dst = target
            self.host.send(packet)
        elif self._control.home_of(target) is not None:
            self._forward_toward(target, packet)

    @staticmethod
    def _aggregate_reports(state: ParticipantState):
        return aggregate_reports(state.last_reports.values())

    def _forward_toward(self, participant: str, packet: Packet) -> None:
        """Send a control packet one trunk hop closer to a remote participant."""
        control = self._control
        home = control.home_of(participant) if control is not None else None
        if home is None:
            return
        packet.dst = control.next_hop(self.node_id, home)
        self.host.send(packet)

    # --------------------------------------------------------------- media
    def _on_media(self, packet: Packet) -> None:
        sender_name = packet.flow_id.split(":up:", 1)[-1]
        state = self.participants.get(sender_name)
        if state is None:
            return
        if state.uplink_receiver is not None:
            state.uplink_receiver.on_packet(packet)
        meta = packet._meta
        layer = meta.get("layer", "main") if meta is not None else "main"
        if packet.kind is PacketKind.RTP_VIDEO:
            layer_bytes = state.layer_bytes
            layer_bytes[layer] = layer_bytes.get(layer, 0) + packet.size_bytes

        for receiver_name, receiver_state in self.participants.items():
            if receiver_name == sender_name:
                continue
            if receiver_state.layout and sender_name not in receiver_state.layout:
                # The receiver does not display this sender (e.g. beyond
                # Teams' four visible tiles): nothing is forwarded.
                continue
            if not self._should_forward(state, receiver_name, packet):
                continue
            # PR 1 replica path: construct the copy the way the original
            # per-packet pipeline did (constructor + per-copy metadata dict),
            # so the polled baseline keeps its original cost profile.
            forwarded = Packet(
                size_bytes=packet.size_bytes,
                flow_id=downlink_flow(sender_name, receiver_name, self.call_id),
                src=self.host.name,
                dst=receiver_name,
                kind=packet.kind,
                seq=packet.seq,
                created_at=packet.created_at,
                meta=dict(meta) if meta else None,
            )
            if packet.kind is PacketKind.RTP_VIDEO:
                key = (sender_name, receiver_name)
                cell = self._forward_seq.get(key)
                if cell is None:
                    cell = self._forward_seq[key] = [0]
                cell[0] = seq = cell[0] + 1
                forwarded.seq = seq
            self.bytes_forwarded += forwarded.size_bytes
            self.host.send(forwarded)
            if (
                self.profile.server_fec_ratio > 0
                and packet.kind is PacketKind.RTP_VIDEO
                and self._fec_rng.random() < self.profile.server_fec_ratio
            ):
                repair = Packet(
                    size_bytes=forwarded.size_bytes,
                    flow_id=forwarded.flow_id,
                    src=self.host.name,
                    dst=receiver_name,
                    kind=PacketKind.FEC,
                    seq=1_000_000 + packet.seq,
                    created_at=self.sim.now,
                    meta={"fec_group": packet.meta.get("frame_id", 0)},
                )
                self.fec_bytes_added += repair.size_bytes
                self.host.send(repair)

    def on_packet_batch(self, packets) -> None:
        """Dispatch a packet train arriving at the server host in one call.

        Trains produced by the media pipeline contain only media/FEC packets
        of a single uplink (or ingress-trunk) flow; anything else falls back
        to per-packet dispatch.
        """
        kind = packets[0].kind
        if kind in (PacketKind.RTP_VIDEO, PacketKind.RTP_AUDIO, PacketKind.FEC):
            self._on_media_batch(packets)
            return
        for packet in packets:
            self.on_packet(packet)

    def _on_media_batch(self, packets) -> None:
        """Forward a whole media packet train using the cached dispatch plans.

        Per-packet semantics (metering, sequence rewrite, thinning, server
        FEC draws in arrival x receiver order) are identical to calling
        :meth:`_on_media` per packet; the difference is that the forwarding
        decision comes from :meth:`_video_plan` / :meth:`_audio_plan` and the
        per-receiver copies leave the host as one train each, all handed to
        :meth:`Host.send_forwarded_trains` as one burst.  With egress
        trunks configured, each train is additionally copied *once per
        demanding trunk* (never once per downstream receiver) from the
        per-hop trunk plans.
        """
        flow = packets[0].flow_id
        state = self._state_by_flow.get(flow)
        if state is None:
            sender_name = flow.split(":up:", 1)[-1]
            state = self.participants.get(sender_name)
            if state is None:
                state = self._trunk_sender_state(flow)
                if state is None:
                    return
            self._state_by_flow[flow] = state
        if state.uplink_receiver is not None:
            state.uplink_receiver.on_packet_batch(packets)
        host_name = self.host.name
        has_trunks = self._control is not None and len(self._control.neighbors.get(self.node_id, ())) > 0
        if len(packets) == 1 and packets[0].kind is PacketKind.RTP_AUDIO:
            # One audio packet (the common case: one every 20 ms per sender)
            # fans out as one single-packet train per receiver and trunk.
            packet = packets[0]
            size = packet.size_bytes
            copy = packet.copy_for_forwarding
            outbound = [
                [size, [copy(host_name, receiver, flow_id)]]
                for receiver, flow_id in self._audio_plan(state)
            ]
            self.bytes_forwarded += size * len(outbound)
            if has_trunks:
                trunk = [
                    [size, [copy(host_name, peer, flow_id)]]
                    for peer, flow_id in self._trunk_audio_plan(state)
                ]
                self.trunk_bytes_forwarded += size * len(trunk)
                outbound += trunk
            self.host.send_forwarded_trains(outbound)
            return
        layer_bytes = state.layer_bytes
        server_fec = self.profile.server_fec_ratio
        fec_rng = self.sim.rng if server_fec > 0 else None
        rtp_video = PacketKind.RTP_VIDEO
        rtp_audio = PacketKind.RTP_AUDIO
        now = self.sim._now
        bytes_forwarded = 0
        trunk_bytes = 0
        fec_bytes = 0
        outbound: dict[str, list] = {}
        plan_layer: Optional[str] = None
        plan: list = []
        trunk_plan: list = []
        for packet in packets:
            kind = packet.kind
            copy = packet.copy_for_forwarding
            if kind is rtp_audio:
                size = packet.size_bytes
                for receiver, flow_id in self._audio_plan(state):
                    forwarded = copy(host_name, receiver, flow_id)
                    bytes_forwarded += size
                    out = outbound.get(receiver)
                    if out is None:
                        out = outbound[receiver] = [0, []]
                    out[0] += size
                    out[1].append(forwarded)
                if has_trunks:
                    for peer, flow_id in self._trunk_audio_plan(state):
                        forwarded = copy(host_name, peer, flow_id)
                        trunk_bytes += size
                        out = outbound.get(peer)
                        if out is None:
                            out = outbound[peer] = [0, []]
                        out[0] += size
                        out[1].append(forwarded)
                continue
            meta = packet._meta
            layer = meta.get("layer", "main") if meta is not None else "main"
            is_video = kind is rtp_video
            size = packet.size_bytes
            if is_video:
                layer_bytes[layer] = layer_bytes.get(layer, 0) + size
            repairs = fec_rng is not None and is_video
            if layer != plan_layer:
                plan_layer = layer
                plan = self._video_plan(state, layer)
                if has_trunks:
                    trunk_plan = self._trunk_video_plan(state, layer)
            for receiver, keep, flow_id, seq_cell in plan:
                if keep < 1.0:
                    # Frame-consistent thinning: drop whole frames of the top
                    # forwarded layer, never individual fragments.
                    frame_id = meta.get("frame_id", packet.seq) if meta is not None else packet.seq
                    if not (frame_id * 2654435761 % 1000) / 1000.0 < keep:
                        continue
                forwarded = copy(host_name, receiver, flow_id)
                if is_video:
                    seq_cell[0] = seq = seq_cell[0] + 1
                    forwarded.seq = seq
                bytes_forwarded += size
                out = outbound.get(receiver)
                if out is None:
                    out = outbound[receiver] = [0, []]
                out[0] += size
                out[1].append(forwarded)
                if repairs and fec_rng.random() < server_fec:
                    repair = Packet(
                        size_bytes=size,
                        flow_id=forwarded.flow_id,
                        src=host_name,
                        dst=receiver,
                        kind=PacketKind.FEC,
                        seq=1_000_000 + packet.seq,
                        created_at=now,
                        meta={"fec_group": meta.get("frame_id", 0) if meta is not None else 0},
                    )
                    fec_bytes += size
                    out[0] += size
                    out[1].append(repair)
            if trunk_plan:
                # One copy per demanding trunk: the subtree behind the trunk
                # fans out at its own node.  No thinning and no fresh FEC on
                # the trunk leg -- the egress node regenerates FEC for its
                # local receivers, so a trunk carries the clean layer stream.
                for peer, flow_id, seq_cell in trunk_plan:
                    forwarded = copy(host_name, peer, flow_id)
                    if is_video:
                        seq_cell[0] = seq = seq_cell[0] + 1
                        forwarded.seq = seq
                    trunk_bytes += size
                    out = outbound.get(peer)
                    if out is None:
                        out = outbound[peer] = [0, []]
                    out[0] += size
                    out[1].append(forwarded)
        self.bytes_forwarded += bytes_forwarded
        self.trunk_bytes_forwarded += trunk_bytes
        self.fec_bytes_added += fec_bytes
        self.host.send_forwarded_trains(outbound.values())

    # ------------------------------------------------------------- trunks
    def _trunk_sender_state(self, flow: str) -> Optional[ParticipantState]:
        """Resolve (or create) the remote-sender state of an ingress-trunk flow."""
        control = self._control
        if control is None:
            return None
        marker = f"{self.call_id}:trunk:"
        if not flow.startswith(marker):
            return None
        hop, sep, sender_name = flow[len(marker):].partition(":")
        if not sep or control.home_of(sender_name) is None:
            return None
        upstream = hop.split(">", 1)[0]
        state = self.remote_senders.get(sender_name)
        if state is None:
            state = ParticipantState(name=sender_name)
            state.uplink_receiver = StreamReceiver(self.sim, flow, track_quality=False)
            self.remote_senders[sender_name] = state
            ingress = self._trunk_ingress.get(upstream)
            if ingress is None:
                ingress = self._trunk_ingress[upstream] = TrunkIngress(
                    upstream=upstream,
                    estimator=GCCController(self._estimator_config()),
                )
            ingress.states.append(state)
        return state

    def _trunk_video_plan(self, state: ParticipantState, layer: str) -> list:
        """Cached egress-trunk dispatch for one ``(sender, layer)``.

        A trunk to peer ``X`` is included exactly when the subtree behind
        ``X`` (as published through the control plane) demands this layer of
        this sender; unknown demand forwards everything, mirroring the
        pre-decision behaviour of the local plans.
        """
        key = (state.name, layer)
        plan = self._trunk_plans.get(key)
        if plan is None:
            plan = []
            control = self._control
            sender_name = state.name
            home = control.home_of(sender_name)
            if home is not None:
                for peer in control.children(self.node_id, home):
                    demand = control.demand_for(peer, sender_name)
                    if demand.layers is not None and layer not in demand.layers:
                        continue
                    seq_key = (sender_name, peer)
                    seq_cell = self._trunk_seq.get(seq_key)
                    if seq_cell is None:
                        seq_cell = self._trunk_seq[seq_key] = [0]
                    plan.append(
                        (
                            peer,
                            trunk_flow(self.call_id, self.node_id, peer, sender_name),
                            seq_cell,
                        )
                    )
            self._trunk_plans[key] = plan
        return plan

    def _trunk_audio_plan(self, state: ParticipantState) -> list:
        """Cached egress-trunk dispatch for a sender's audio."""
        key = (state.name, None)
        plan = self._trunk_plans.get(key)
        if plan is None:
            plan = []
            control = self._control
            sender_name = state.name
            home = control.home_of(sender_name)
            if home is not None:
                for peer in control.children(self.node_id, home):
                    demand = control.demand_for(peer, sender_name)
                    if not demand.audio:
                        continue
                    plan.append(
                        (peer, trunk_flow(self.call_id, self.node_id, peer, sender_name))
                    )
            self._trunk_plans[key] = plan
        return plan

    def _trunk_feedback_tick(self, now: float) -> None:
        """Aggregate each ingress trunk's stream receivers into its estimator."""
        for ingress in self._trunk_ingress.values():
            reports = [
                state.uplink_receiver.make_report(now)
                for state in ingress.states
                if state.uplink_receiver is not None
            ]
            aggregate = aggregate_reports(reports)
            if aggregate is not None:
                ingress.estimator.on_feedback(aggregate, now)
                ingress.loss_fraction = aggregate.loss_fraction

    #: Aggregate trunk loss fraction above which demands are capped to the
    #: trunk estimator's budget.  A healthy trunk carries the full demanded
    #: union: the estimator is anchored to the delivered rate, so capping
    #: unconditionally would lock the cascade into whatever it started with
    #: (headroom is never offered, hence never discovered).
    TRUNK_SHED_LOSS_THRESHOLD = 0.05

    def _trunk_budget(self, upstream: str, n_senders: int) -> Optional[float]:
        """Per-sender bandwidth budget of one *congested* ingress trunk.

        Returns ``None`` while the trunk shows no loss, meaning "do not cap".
        """
        ingress = self._trunk_ingress.get(upstream)
        if ingress is None or ingress.loss_fraction < self.TRUNK_SHED_LOSS_THRESHOLD:
            return None
        if self.profile.architecture == "svc_relay":
            estimate = ingress.estimator.loss_estimate_bps
        else:
            estimate = ingress.estimator.available_bandwidth_estimate()
        return self.profile.server_headroom * estimate / max(n_senders, 1)

    def _publish_trunk_demands(self) -> None:
        """Publish what this node's subtree wants of every remote sender.

        The demand unions this node's local receiver decisions with the
        demands its own downstream children published, then caps the layer
        set by the ingress trunk's estimated budget -- the mechanism that
        lets a congested trunk shed layers *only* for the region behind it.
        """
        control = self._control
        adapts = self.profile.server_adapts
        by_upstream: dict[str, int] = {}
        for sender_name in self.remote_senders:
            home = control.home_of(sender_name)
            if home is None:
                continue
            upstream = control.next_hop(self.node_id, home)
            by_upstream[upstream] = by_upstream.get(upstream, 0) + 1
        for sender_name, sender_state in self.remote_senders.items():
            home = control.home_of(sender_name)
            if home is None:
                continue
            layers: Optional[frozenset[str]] = frozenset()
            audio = False
            for receiver_name, receiver_state in self.participants.items():
                if receiver_name == sender_name:
                    continue
                if receiver_state.layout and sender_name not in receiver_state.layout:
                    continue
                audio = True
                if not adapts:
                    layers = None
                    continue
                decision = sender_state.forwarding.get(receiver_name)
                if decision is None or decision[0] is None:
                    layers = None
                elif layers is not None:
                    layers = layers | frozenset(decision[0])
            child = control.subtree_demand(self.node_id, sender_name)
            audio = audio or child.audio
            if child.layers is None or layers is None:
                layers = None
            else:
                layers = layers | child.layers
            if layers is not None:
                upstream = control.next_hop(self.node_id, home)
                budget = self._trunk_budget(upstream, by_upstream.get(upstream, 1))
                if budget is not None:
                    layers = cap_layers_for_budget(
                        self.profile, sender_state, layers, budget
                    )
            control.publish_demand(self.node_id, sender_name, layers, audio)

    # --------------------------------------------------------- local plans
    def _video_plan(self, state: ParticipantState, layer: str) -> list:
        """Cached per-receiver dispatch decision for one sender layer.

        Mirrors the layout check and :meth:`_should_forward` for video/FEC
        packets; rebuilt lazily after any layout, membership or
        forwarding-decision change.
        """
        key = (state.name, layer)
        plan = self._forward_plans.get(key)
        if plan is None:
            plan = []
            sender_name = state.name
            adapts = self.profile.server_adapts
            for receiver, receiver_state in self.participants.items():
                if receiver == sender_name:
                    continue
                if receiver_state.layout and sender_name not in receiver_state.layout:
                    continue
                keep = 1.0
                if adapts:
                    layers, keep_probability = state.forwarding.get(receiver, (None, 1.0))
                    if layers is not None:
                        if layer not in layers:
                            continue
                        if keep_probability < 1.0 and layer == self._top_of(layers):
                            keep = keep_probability
                seq_key = (sender_name, receiver)
                seq_cell = self._forward_seq.get(seq_key)
                if seq_cell is None:
                    seq_cell = self._forward_seq[seq_key] = [0]
                plan.append(
                    (
                        receiver,
                        keep,
                        downlink_flow(sender_name, receiver, self.call_id),
                        seq_cell,
                    )
                )
            self._forward_plans[key] = plan
        return plan

    def _audio_plan(self, state: ParticipantState) -> list:
        """Cached per-receiver dispatch for audio (always forwarded if displayed)."""
        key = (state.name, None)
        plan = self._forward_plans.get(key)
        if plan is None:
            plan = []
            sender_name = state.name
            for receiver, receiver_state in self.participants.items():
                if receiver == sender_name:
                    continue
                if receiver_state.layout and sender_name not in receiver_state.layout:
                    continue
                plan.append((receiver, downlink_flow(sender_name, receiver, self.call_id)))
            self._forward_plans[key] = plan
        return plan

    def _should_forward(self, sender_state: ParticipantState, receiver: str, packet: Packet) -> bool:
        """Apply the per-architecture forwarding policy to one packet."""
        if packet.kind is PacketKind.RTP_AUDIO:
            return True
        if not self.profile.server_adapts:
            return True
        layers, keep_probability = sender_state.forwarding.get(
            receiver, (None, 1.0)
        )
        if layers is None:
            return True
        layer = packet.meta.get("layer", "main")
        if layer not in layers:
            return False
        if keep_probability >= 1.0:
            return True
        top_layer = self._top_of(layers)
        if layer != top_layer:
            return True
        # Frame-consistent thinning: drop whole frames of the top forwarded
        # layer, never individual fragments.
        frame_id = packet.meta.get("frame_id", packet.seq)
        return (frame_id * 2654435761 % 1000) / 1000.0 < keep_probability

    @staticmethod
    def _top_of(layers: set[str]) -> str:
        return top_of(layers)

    # ------------------------------------------------------ periodic control
    def _feedback_tick(self) -> None:
        interval = self.profile.feedback_interval_s
        now = self.sim.now
        for name, state in self.participants.items():
            meters = state.layer_meters
            layer_bytes = state.layer_bytes
            if layer_bytes:
                for layer, window_bytes in layer_bytes.items():
                    meter = meters.get(layer)
                    if meter is None:
                        meter = meters[layer] = _LayerMeter()
                    meter.bytes_in_window = window_bytes
                layer_bytes.clear()
            for meter in meters.values():
                meter.roll(interval)
            if self.profile.server_adapts and state.uplink_receiver is not None:
                report = state.uplink_receiver.make_report(now)
                packet = make_report_packet(
                    f"{uplink_flow(name, self.call_id)}:rtcp",
                    self.host.name,
                    name,
                    report,
                    now,
                )
                self.host.send(packet)
        for state in self.remote_senders.values():
            # Remote senders meter like local ones (the decisions need layer
            # rates) but their uplink feedback loop lives at their home node.
            meters = state.layer_meters
            layer_bytes = state.layer_bytes
            if layer_bytes:
                for layer, window_bytes in layer_bytes.items():
                    meter = meters.get(layer)
                    if meter is None:
                        meter = meters[layer] = _LayerMeter()
                    meter.bytes_in_window = window_bytes
                layer_bytes.clear()
            for meter in meters.values():
                meter.roll(interval)
        if self.profile.server_adapts:
            self._update_forwarding_decisions()
            self._maybe_probe_downlinks()
        if self._control is not None:
            self._trunk_feedback_tick(now)
            self._publish_trunk_demands()

    def _update_forwarding_decisions(self) -> None:
        changed = False
        for senders in (self.participants, self.remote_senders):
            for sender_name, sender_state in senders.items():
                forwarding = sender_state.forwarding
                for receiver_name, receiver_state in self.participants.items():
                    if receiver_name == sender_name:
                        continue
                    decision = self._decide_forwarding(sender_state, receiver_state)
                    if not changed and forwarding.get(receiver_name) != decision:
                        changed = True
                    forwarding[receiver_name] = decision
        # The cached dispatch plans encode the decisions: rebuild them only
        # when one changed.
        if changed:
            self._forward_plans.clear()

    def _maybe_probe_downlinks(self) -> None:
        """Send padding bursts toward application-limited receivers.

        When the server is forwarding less than a receiver's downlink could
        carry (because the next copy/layer up is too expensive), the only way
        to discover recovered or additional capacity is to probe -- this is
        WebRTC's ALR probing, and it is what lets Meet return to the full
        copy within ten seconds of a downlink disruption ending (Figure 5).
        """
        now = self.sim.now
        for receiver_name, receiver_state in self.participants.items():
            estimator = receiver_state.downlink_estimator
            if estimator is None:
                continue
            # Only probe when something better could be forwarded.
            limited = False
            for sender_name, sender_state in self.participants.items():
                if sender_name == receiver_name:
                    continue
                layers, _keep = sender_state.forwarding.get(receiver_name, (None, 1.0))
                if layers is None:
                    continue
                # Probe only while stuck on a lower copy/layer; when the top
                # selection is already forwarded (possibly thinned) the
                # receiver is not application-limited enough to justify the
                # extra probe traffic on a link that is likely near capacity.
                if not self._is_top_selection(sender_state, layers):
                    limited = True
                    break
            if not limited:
                for sender_state in self.remote_senders.values():
                    layers, _keep = sender_state.forwarding.get(receiver_name, (None, 1.0))
                    if layers is None:
                        continue
                    if not self._is_top_selection(sender_state, layers):
                        limited = True
                        break
            if not limited:
                continue
            if now - self._last_probe_at.get(receiver_name, -1e9) < self.probe_interval_s:
                continue
            self._last_probe_at[receiver_name] = now
            # Probe at roughly the current estimate on top of the forwarded
            # media (i.e. approximately doubling the delivery rate for 200 ms),
            # which is how WebRTC's ALR prober sizes its bursts.
            estimate = estimator.available_bandwidth_estimate()
            probe_bytes = int(min(max(estimate, 300_000.0), 1_500_000.0) * 0.4 / 8)
            packet_size = 1000
            count = max(probe_bytes // packet_size, 2)
            sender_name = next(
                (n for n in self.participants if n != receiver_name), None
            )
            if sender_name is None:
                sender_name = next(iter(self.remote_senders), None)
            if sender_name is None:
                continue
            flow = downlink_flow(sender_name, receiver_name, self.call_id)
            for index in range(count):
                probe = Packet(
                    size_bytes=packet_size,
                    flow_id=flow,
                    src=self.host.name,
                    dst=receiver_name,
                    kind=PacketKind.FEC,
                    seq=5_000_000 + index,
                    created_at=now,
                    meta={"probe": True},
                )
                self.probe_bytes_sent += probe.size_bytes
                self.host.send(probe)

    def _is_top_selection(self, sender_state: ParticipantState, layers: set[str]) -> bool:
        return is_top_selection(self.profile, sender_state, layers)

    def _decide_forwarding(
        self, sender_state: ParticipantState, receiver_state: ParticipantState
    ) -> tuple[set[str], float]:
        """Pick which layers of ``sender`` to forward to ``receiver``."""
        estimator = receiver_state.downlink_estimator
        if estimator is None:
            estimate = 6_000_000.0
        elif self.profile.architecture == "svc_relay":
            # Zoom's layer selection follows the *loss-based* estimate alone.
            # The delay path must not participate: under competition the
            # relay's own goodput is starved, so a delay-led estimate (capped
            # at a multiple of that starved receive rate) ratchets into a
            # base-layer fixed point it can never leave -- the Figure 10
            # failure.  The loss estimate is anchored at the delivered rate
            # and recovers through the moderate-loss band (FEC masks it),
            # which is exactly Zoom's measured queue-filling behaviour.
            estimate = estimator.loss_estimate_bps
            if (
                self._shed_after_s > 0.0
                and receiver_state.loss_high_since >= 0.0
                and self.sim.now - receiver_state.loss_high_since >= self._shed_after_s
                and receiver_state.delivered_rate_bps > 0.0
            ):
                # Sustained heavy loss: the floor-anchored estimate is just
                # filling the queue.  Pace the layer budget to a multiple of
                # what the receiver actually gets, which sheds the top of the
                # ladder and bounds the relay's tx-side loss while keeping
                # enough pressure to defend Zoom's queue share (Figure 10).
                estimate = min(
                    estimate, receiver_state.delivered_rate_bps * self._shed_headroom
                )
        else:
            estimate = estimator.available_bandwidth_estimate()
        displayed = (
            len(receiver_state.layout)
            if receiver_state.layout
            else max(self._n_call_participants() - 1, 1)
        )
        budget = self.profile.server_headroom * estimate / max(displayed, 1)
        requested = receiver_state.layout.get(sender_state.name)

        if self.profile.architecture == "sfu_simulcast":
            return decide_simulcast(self.profile, sender_state, budget, requested)
        if self.profile.architecture == "svc_relay":
            return decide_svc(self.profile, sender_state, budget, requested)
        return (set(sender_state.layer_meters) or {"main"}, 1.0)


#: Backwards-compatible name: a standalone :class:`SfuNode` *is* the old
#: single-server ``MediaServer``.
MediaServer = SfuNode
