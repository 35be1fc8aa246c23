"""Sender side of an RTP media session.

:class:`RtpStreamSender` ties together an encoder (single-stream, simulcast
or SVC -- anything exposing ``frames_due`` / ``next_due_time`` /
``set_target_bitrate`` / ``request_keyframe``), a congestion controller, a
packetizer, an optional FEC generator, and the host it sends from.  It is the per-participant
"uplink" of a VCA call; the application model (``repro.vca``) wires its
RTCP feedback path and decides where the stream terminates (media server or
remote client).

Event-driven emission
---------------------

Emission instants live on the ``start + n / tick_hz`` grid (the grid is
the model's capture-clock quantisation).  The sender computes the next grid
point at which a frame is due *analytically* from the encoder's
fps/GOP state and schedules exactly one simulator event there -- idle grid
points cost nothing.  The scheduled event is re-derived only when the
operating point changes (``set_target_bitrate`` via the encoder's
``on_timing_change`` hook, e.g. a reallocation reactivating a simulcast copy
whose stale due time is already in the past).  All frames due at one instant
are packetized into a single packet train and handed to
:meth:`repro.net.node.Host.send_batch` as one transaction.  Audio is a
self-rescheduling event chain on the ``start + n * interval`` grid with no
idle ticks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.cc.base import FeedbackReport, RateController
from repro.media.encoder import EncodedFrame, EncoderSettings
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.rtp.fec import FecGenerator
from repro.rtp.packetizer import DEFAULT_MTU_BYTES, Packetizer, make_audio_packet
from repro.rtp.rtcp import extract_report, is_fir

__all__ = ["SenderConfig", "RtpStreamSender", "MediaEncoder"]

#: Tolerance of the encoder due-time comparison (must match ``frames_due``).
_DUE_EPS = 1e-9

_INF = float("inf")


class MediaEncoder(Protocol):
    """The encoder interface the sender drives (see :mod:`repro.media`)."""

    @property
    def settings(self) -> EncoderSettings:  # pragma: no cover - protocol
        ...

    def frames_due(self, now: float) -> list[EncodedFrame]:  # pragma: no cover
        ...

    def next_due_time(self) -> float:  # pragma: no cover
        ...

    def set_target_bitrate(self, target_bps: float) -> None:  # pragma: no cover
        ...

    def request_keyframe(self) -> None:  # pragma: no cover
        ...


@dataclass
class SenderConfig:
    """Tunables of the sending pipeline."""

    #: Emission grid rate: frame events are scheduled on this grid.
    tick_hz: float = 30.0
    #: Audio bitrate; ~40 kbps matches the Opus streams the VCAs send.
    audio_bitrate_bps: float = 40_000.0
    #: Interval between (bundled) audio packets.
    audio_packet_interval_s: float = 0.06
    #: RTP payload MTU.
    mtu_bytes: int = DEFAULT_MTU_BYTES
    #: Whether audio is sent at all (servers forwarding video-only legs skip it).
    send_audio: bool = True


class RtpStreamSender:
    """Congestion-controlled media sender for one participant's uplink."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        dst: str,
        encoder: MediaEncoder,
        controller: RateController,
        config: Optional[SenderConfig] = None,
        rtcp_flow_id: Optional[str] = None,
        on_target_change: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        self.encoder = encoder
        self.controller = controller
        self.config = config or SenderConfig()
        self.rtcp_flow_id = rtcp_flow_id or f"{flow_id}:rtcp"
        self.on_target_change = on_target_change

        self._packetizer = Packetizer(
            flow_id=flow_id, src=host.name, dst=dst, mtu_bytes=self.config.mtu_bytes
        )
        self._fec = FecGenerator(flow_id=flow_id, src=host.name, dst=dst)
        self._audio_seq = itertools.count(1)
        self._running = False
        #: While the simulation clock is before this time the encoder emits no
        #: frames (used to model spontaneous encoder stalls, e.g. the
        #: Teams-Chrome baseline freezes of Section 3.2).
        self.paused_until = 0.0

        # Event-driven emission state.
        self._tick = 1.0 / self.config.tick_hz
        self._grid_start = 0.0
        #: Sequence number of the armed media event (None when idle).
        self._media_event_seq: Optional[int] = None
        #: Grid index the armed media event will fire at.
        self._media_event_index = 0
        #: Lowest grid index the next media event may use (one past the last
        #: fired index: each grid point is offered to the encoder at most once).
        self._media_floor = 0
        # Audio event chain (anchored like PeriodicTask: anchor + n * interval).
        self._audio_event_seq: Optional[int] = None
        self._audio_anchor = 0.0
        self._audio_count = 0
        self._audio_next_time = float("inf")

        # Lifetime statistics (consumed by the WebRTC-stats collector).
        self.bytes_sent = 0
        self.frames_sent = 0
        self.fir_received = 0
        self.reports_received = 0

        # The sender listens for RTCP on its own host under the RTCP flow id.
        host.register_flow(self.rtcp_flow_id, self._on_rtcp)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin encoding and sending media."""
        if self._running:
            return
        self._running = True
        self.encoder.set_target_bitrate(self.controller.target_bitrate_bps)
        now = self.sim.now
        self._grid_start = now + self._tick
        self._media_floor = 0
        self.encoder.on_timing_change = self._on_encoder_timing_change  # type: ignore[attr-defined]
        self._schedule_next_media()
        if self.config.send_audio:
            self._audio_anchor = now + self.config.audio_packet_interval_s
            self._audio_count = 0
            self._audio_next_time = self._audio_anchor
            self._audio_event_seq = self.sim.call_at(self._audio_anchor, self._audio_event)

    def stop(self) -> None:
        """Stop sending (the client left the call)."""
        self._running = False
        if self._media_event_seq is not None:
            self.sim.cancel_seq(self._media_event_seq)
            self._media_event_seq = None
        if self._audio_event_seq is not None:
            self.sim.cancel_seq(self._audio_event_seq)
            self._audio_event_seq = None

    @property
    def is_running(self) -> bool:
        return self._running

    # ----------------------------------------------- event-driven scheduling
    def _grid_time(self, index: int) -> float:
        return self._grid_start + index * self._tick

    def _index_for_due(self, due: float) -> int:
        """Smallest grid index whose time satisfies the due comparison.

        ``frames_due`` emits at ``t`` iff ``t + 1e-9 >= due``; the initial
        estimate from float division is fixed up with exact comparisons so
        the chosen index is exact, not subject to division rounding.
        """
        anchor = self._grid_start
        tick = self._tick
        k = int((due - anchor) / tick)
        if k < 0:
            k = 0
        while anchor + k * tick + _DUE_EPS < due:
            k += 1
        while k > 0 and anchor + (k - 1) * tick + _DUE_EPS >= due:
            k -= 1
        return k

    def _index_at_or_after(self, when: float) -> int:
        """Smallest grid index whose time is ``>= when`` (no tolerance)."""
        anchor = self._grid_start
        tick = self._tick
        k = int((when - anchor) / tick)
        if k < 0:
            k = 0
        while anchor + k * tick < when:
            k += 1
        while k > 0 and anchor + (k - 1) * tick >= when:
            k -= 1
        return k

    def _arm_media_at_index(self, index: int) -> None:
        if self._media_event_seq is not None:
            if self._media_event_index <= index:
                return
            self.sim.cancel_seq(self._media_event_seq)
        self._media_event_index = index
        self._media_event_seq = self.sim.call_at(self._grid_time(index), self._media_event)

    def _schedule_next_media(self) -> None:
        due = self.encoder.next_due_time()
        if due == _INF:
            return
        index = self._index_for_due(due)
        floor = self._media_floor
        if index < floor:
            index = floor
        self._arm_media_at_index(index)

    def _on_encoder_timing_change(self) -> None:
        """Re-derive the armed emission event after a retarget.

        A retarget never delays the pending due time, but it can *advance*
        it (a reactivated copy/layer with a stale due time becomes due at the
        next grid point), so the armed event only ever moves earlier.
        """
        if not self._running:
            return
        due = self.encoder.next_due_time()
        if due == _INF:
            return
        index = self._index_for_due(due)
        floor = self._media_floor
        if index < floor:
            index = floor
        now_index = self._index_at_or_after(self.sim._now)
        if index < now_index:
            index = now_index
        self._arm_media_at_index(index)

    def _media_event(self) -> None:
        self._media_event_seq = None
        if not self._running:
            return
        now = self.sim._now
        if self._audio_next_time == now and self._audio_event_seq is not None:
            # Exact grid collision with the audio chain: at equal timestamps
            # audio runs first (seeded results depend on this order), so
            # defer emission behind the pending audio event within this
            # instant.
            self._media_event_seq = self.sim.call_at(now, self._media_event)
            return
        self._media_floor = self._media_event_index + 1
        if now < self.paused_until:
            # Stalled: skip every grid point before ``paused_until``;
            # resume at the first one at or past it.
            self._arm_media_at_index(self._index_at_or_after(self.paused_until))
            return
        frames = self.encoder.frames_due(now)
        if frames:
            fec_ratio = self.controller.fec_overhead_ratio(now)
            packetizer = self._packetizer
            if fec_ratio > 0:
                train: list[Packet] = []
                fec = self._fec
                for frame in frames:
                    packets = packetizer.packetize(frame, now)
                    train.extend(packets)
                    train.extend(fec.protect(packets, fec_ratio, now))
            else:
                train = packetizer.packetize_train(frames, now)
            self.frames_sent += len(frames)
            size_total = 0
            for packet in train:
                size_total += packet.size_bytes
            self.bytes_sent += size_total
            self.host.send_batch(train)
        self._schedule_next_media()

    def _audio_event(self) -> None:
        self._audio_event_seq = None
        if not self._running:
            return
        packet = make_audio_packet(
            self.flow_id, self.host.name, self.dst, next(self._audio_seq), self.sim.now
        )
        self.bytes_sent += packet.size_bytes
        # A one-packet train: keeps audio on the same batched fan-out path
        # (cached dispatch plans) as video at the media server.
        self.host.send_batch([packet])
        self._audio_count = count = self._audio_count + 1
        self._audio_next_time = when = (
            self._audio_anchor + count * self.config.audio_packet_interval_s
        )
        self._audio_event_seq = self.sim.call_at(when, self._audio_event)

    # ------------------------------------------------------------- feedback
    def _on_rtcp(self, packet: Packet) -> None:
        if is_fir(packet):
            self.fir_received += 1
            self.encoder.request_keyframe()
            return
        report = extract_report(packet)
        if report is None:
            return
        self.reports_received += 1
        self.apply_feedback(report)

    def apply_feedback(self, report: FeedbackReport) -> None:
        """Feed a report into the controller and retarget the encoder."""
        target = self.controller.on_feedback(report, self.sim.now)
        self.encoder.set_target_bitrate(target)
        if self.on_target_change is not None:
            self.on_target_change(target)

    # ----------------------------------------------------------------- stats
    @property
    def current_settings(self) -> EncoderSettings:
        """The encoder's current operating point (sent-stream WebRTC stats)."""
        return self.encoder.settings

    @property
    def target_bitrate_bps(self) -> float:
        return self.controller.target_bitrate_bps
