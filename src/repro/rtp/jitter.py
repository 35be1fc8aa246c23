"""Receive-side stream processing: reassembly, loss, delay and freezes.

:class:`StreamReceiver` is the emulated counterpart of the WebRTC receive
pipeline whose statistics the paper scrapes: it reassembles frames from RTP
fragments, tracks packet loss and one-way delay (the congestion-control
signals), detects undecodable situations and issues Full Intra Requests, and
feeds displayed-frame times into the freeze detector of
:mod:`repro.media.quality`.

A single :class:`StreamReceiver` handles one inbound media flow; VCA clients
instantiate one per remote participant, and media servers instantiate one per
uplink stream they terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cc.base import FeedbackReport
from repro.media.quality import FreezeTracker
from repro.net.packet import Packet, PacketKind
from repro.net.simulator import Simulator

__all__ = ["ReceiverConfig", "StreamReceiver", "LegacyStreamReceiver"]


@dataclass
class ReceiverConfig:
    """Tunables of the receive pipeline."""

    #: Consecutive undecodable (lost) frames that trigger a Full Intra Request.
    fir_loss_threshold: int = 3
    #: Minimum spacing between FIRs for the same stream.
    fir_min_interval_s: float = 1.0
    #: How long to wait for missing fragments before declaring a frame lost.
    frame_timeout_s: float = 0.4
    #: EWMA weight for the smoothed one-way delay.
    delay_smoothing: float = 0.1


@dataclass(slots=True)
class _PendingFrame:
    frame_id: int
    fragments_expected: int
    fragments_received: int = 0
    keyframe: bool = False
    first_arrival: float = 0.0
    completed: bool = False


class StreamReceiver:
    """Receive-side state for one inbound RTP media stream."""

    __slots__ = (
        "sim",
        "flow_id",
        "config",
        "on_fir",
        "freeze_tracker",
        "_interval_bytes",
        "_interval_video_packets",
        "_interval_started_at",
        "_prev_highest_seq",
        "_highest_seq",
        "_smoothed_rate_bps",
        "_base_owd",
        "_smoothed_owd",
        "_prev_report_owd",
        "_pending",
        "_oldest_pending_arrival",
        "_last_completed_frame",
        "_consecutive_lost_frames",
        "_last_fir_at",
        "_fec_credits",
        "total_bytes",
        "total_video_packets",
        "total_frames",
        "lost_frames",
        "fir_sent",
        "_frames_this_second",
        "_last_settings",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        config: Optional[ReceiverConfig] = None,
        on_fir: Optional[Callable[[str], None]] = None,
        track_quality: bool = True,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.config = config or ReceiverConfig()
        self.on_fir = on_fir
        self.freeze_tracker = FreezeTracker() if track_quality else None

        # Interval (per-report) accounting.
        self._interval_bytes = 0
        self._interval_video_packets = 0
        self._interval_started_at = 0.0
        self._prev_highest_seq: Optional[int] = None
        self._highest_seq: Optional[int] = None
        #: EWMA of the per-interval receive rate; frame boundaries make the
        #: raw per-interval rate noisy, and congestion controllers key their
        #: backoff on it (real GCC smooths its incoming-bitrate estimate the
        #: same way).
        self._smoothed_rate_bps: Optional[float] = None

        # Delay tracking.
        self._base_owd: Optional[float] = None
        self._smoothed_owd: Optional[float] = None
        self._prev_report_owd: Optional[float] = None

        # Frame reassembly.
        self._pending: dict[int, _PendingFrame] = {}
        #: Lower bound on the earliest ``first_arrival`` among pending frames
        #: (conservative: may be stale after completions).  The per-packet
        #: stale-frame scan is skipped while ``now - bound <= timeout``, i.e.
        #: while it provably could not find anything -- the scan itself (and
        #: its list allocation) was the receiver's main per-packet cost.
        self._oldest_pending_arrival = float("inf")
        self._last_completed_frame = 0
        self._consecutive_lost_frames = 0
        self._last_fir_at = -1e9

        # FEC recovery credits: repair packets received since the last loss.
        self._fec_credits = 0

        # Lifetime statistics.
        self.total_bytes = 0
        self.total_video_packets = 0
        self.total_frames = 0
        self.lost_frames = 0
        self.fir_sent = 0
        self._frames_this_second = 0
        self._last_settings: dict[str, float] = {}

    # --------------------------------------------------------------- ingest
    def on_packet(self, packet: Packet) -> None:
        """Process one arriving packet of this stream."""
        now = self.sim._now
        size = packet.size_bytes
        self.total_bytes += size
        self._interval_bytes += size

        kind = packet.kind
        if kind is not PacketKind.RTP_VIDEO:
            if kind is PacketKind.FEC:
                self._fec_credits += 1
            return

        self.total_video_packets += 1
        self._interval_video_packets += 1

        # Sequence tracking for loss estimation.
        seq = packet.seq
        if self._highest_seq is None or seq > self._highest_seq:
            self._highest_seq = seq
        if self._prev_highest_seq is None:
            self._prev_highest_seq = seq - 1

        # One-way delay tracking (the emulated clocks are synchronised).
        owd = now - packet.created_at
        if owd < 0.0:
            owd = 0.0
        if self._base_owd is None or owd < self._base_owd:
            self._base_owd = owd
        if self._smoothed_owd is None:
            self._smoothed_owd = owd
        else:
            w = self.config.delay_smoothing
            self._smoothed_owd = (1 - w) * self._smoothed_owd + w * owd

        # Frame reassembly (the same steps as the batch loop below).
        meta = packet._meta
        frame_id = meta.get("frame_id") if meta is not None else None
        pending = self._pending
        if frame_id is not None:
            frame = pending.get(frame_id)
            if frame is not None:
                frame.fragments_received += 1
                if frame.fragments_received >= frame.fragments_expected and not frame.completed:
                    frame.completed = True
                    self._on_frame_complete(packet, now)
                    del pending[frame_id]
                    if not pending:
                        self._oldest_pending_arrival = float("inf")
            else:
                expected = int(meta.get("frag_count", 1))
                if expected <= 1:
                    # A one-fragment frame completes on arrival; it never
                    # needs to be held, so no reassembly state changes.
                    self._on_frame_complete(packet, now)
                else:
                    pending[frame_id] = _PendingFrame(
                        frame_id=frame_id,
                        fragments_expected=expected,
                        fragments_received=1,
                        keyframe=bool(meta.get("keyframe", False)),
                        first_arrival=now,
                    )
                    if now < self._oldest_pending_arrival:
                        self._oldest_pending_arrival = now
        if pending and now - self._oldest_pending_arrival > self.config.frame_timeout_s:
            self._expire_stale_frames(now)

    def on_packet_batch(self, packets) -> None:
        """Process a train of packets of this stream arriving together.

        Semantically identical (bit-for-bit, including the EWMA update
        order) to calling :meth:`on_packet` per packet; the batch form
        hoists the per-packet attribute lookups and dispatch out of the loop
        -- this is the hottest receive-side path of a multi-party call.
        """
        if len(packets) == 1:
            # One-packet trains (audio, single-fragment frames) are cheaper
            # through the per-packet path than through the loop prologue.
            self.on_packet(packets[0])
            return
        now = self.sim._now
        config = self.config
        timeout = config.frame_timeout_s
        w = config.delay_smoothing
        one_minus_w = 1 - w
        pending = self._pending
        video_kind = PacketKind.RTP_VIDEO
        fec_kind = PacketKind.FEC
        total_bytes = 0
        video_packets = 0
        highest = self._highest_seq
        prev_highest = self._prev_highest_seq
        base_owd = self._base_owd
        smoothed = self._smoothed_owd
        for packet in packets:
            total_bytes += packet.size_bytes
            kind = packet.kind
            if kind is not video_kind:
                if kind is fec_kind:
                    self._fec_credits += 1
                continue
            video_packets += 1
            seq = packet.seq
            if highest is None or seq > highest:
                highest = seq
            if prev_highest is None:
                prev_highest = seq - 1
            owd = now - packet.created_at
            if owd < 0.0:
                owd = 0.0
            if base_owd is None or owd < base_owd:
                base_owd = owd
            smoothed = owd if smoothed is None else one_minus_w * smoothed + w * owd

            meta = packet._meta
            frame_id = meta.get("frame_id") if meta is not None else None
            if frame_id is not None:
                frame = pending.get(frame_id)
                if frame is not None:
                    frame.fragments_received += 1
                    if frame.fragments_received >= frame.fragments_expected and not frame.completed:
                        frame.completed = True
                        self._on_frame_complete(packet, now)
                        del pending[frame_id]
                        if not pending:
                            self._oldest_pending_arrival = float("inf")
                else:
                    expected = int(meta.get("frag_count", 1))
                    if expected <= 1:
                        self._on_frame_complete(packet, now)
                    else:
                        pending[frame_id] = _PendingFrame(
                            frame_id=frame_id,
                            fragments_expected=expected,
                            fragments_received=1,
                            keyframe=bool(meta.get("keyframe", False)),
                            first_arrival=now,
                        )
                        if now < self._oldest_pending_arrival:
                            self._oldest_pending_arrival = now
            if pending and now - self._oldest_pending_arrival > timeout:
                self._expire_stale_frames(now)
        self.total_bytes += total_bytes
        self._interval_bytes += total_bytes
        self.total_video_packets += video_packets
        self._interval_video_packets += video_packets
        self._highest_seq = highest
        self._prev_highest_seq = prev_highest
        self._base_owd = base_owd
        self._smoothed_owd = smoothed

    def _on_frame_complete(self, packet: Packet, now: float) -> None:
        self.total_frames += 1
        self._frames_this_second += 1
        self._consecutive_lost_frames = 0
        meta = packet.meta
        frame_id = meta["frame_id"]
        if frame_id > self._last_completed_frame:
            self._last_completed_frame = frame_id
        # Keep a reference to the frame's write-once metadata; the settings
        # view is materialised lazily by :attr:`received_settings` (read at
        # 1 Hz by the stats collector, vs one dict build per frame here).
        self._last_settings = meta
        if self.freeze_tracker is not None:
            self.freeze_tracker.on_frame(now)

    def _expire_stale_frames(self, now: float) -> None:
        timeout = self.config.frame_timeout_s
        stale: list[_PendingFrame] = []
        oldest = float("inf")
        for frame in self._pending.values():
            if now - frame.first_arrival > timeout and not frame.completed:
                stale.append(frame)
            elif frame.first_arrival < oldest:
                oldest = frame.first_arrival
        self._oldest_pending_arrival = oldest
        for frame in stale:
            del self._pending[frame.frame_id]
            missing = frame.fragments_expected - frame.fragments_received
            if self._fec_credits >= missing > 0:
                # Enough repair data arrived to reconstruct the frame.
                self._fec_credits -= missing
                self._on_frame_complete_from_recovery(frame, now)
                continue
            self.lost_frames += 1
            self._consecutive_lost_frames += 1
            should_fir = frame.keyframe or (
                self._consecutive_lost_frames >= self.config.fir_loss_threshold
            )
            if should_fir and now - self._last_fir_at >= self.config.fir_min_interval_s:
                self._last_fir_at = now
                self.fir_sent += 1
                self._consecutive_lost_frames = 0
                if self.on_fir is not None:
                    self.on_fir(self.flow_id)

    def _on_frame_complete_from_recovery(self, frame: _PendingFrame, now: float) -> None:
        self.total_frames += 1
        self._frames_this_second += 1
        self._consecutive_lost_frames = 0
        if self.freeze_tracker is not None:
            self.freeze_tracker.on_frame(now)

    # -------------------------------------------------------------- reports
    def make_report(self, now: float, rtt_s: float = 0.05) -> FeedbackReport:
        """Summarise the interval since the previous report and reset it."""
        interval = max(now - self._interval_started_at, 1e-6)
        expected = 0
        if self._highest_seq is not None and self._prev_highest_seq is not None:
            expected = max(self._highest_seq - self._prev_highest_seq, 0)
        received = self._interval_video_packets
        loss = 0.0
        if expected > 0:
            loss = min(max(1.0 - received / expected, 0.0), 1.0)
        queueing = 0.0
        gradient = 0.0
        if self._smoothed_owd is not None and self._base_owd is not None:
            queueing = max(self._smoothed_owd - self._base_owd, 0.0)
            if self._prev_report_owd is not None:
                gradient = self._smoothed_owd - self._prev_report_owd
            self._prev_report_owd = self._smoothed_owd

        instantaneous_rate = self._interval_bytes * 8 / interval
        if self._smoothed_rate_bps is None:
            self._smoothed_rate_bps = instantaneous_rate
        else:
            self._smoothed_rate_bps = 0.5 * self._smoothed_rate_bps + 0.5 * instantaneous_rate

        report = FeedbackReport(
            timestamp=now,
            interval_s=interval,
            receive_rate_bps=self._smoothed_rate_bps,
            loss_fraction=loss,
            queueing_delay_s=queueing,
            delay_gradient_s=gradient,
            rtt_s=rtt_s,
            packets_expected=expected,
            packets_received=received,
        )

        self._interval_started_at = now
        self._interval_bytes = 0
        self._interval_video_packets = 0
        self._prev_highest_seq = self._highest_seq
        return report

    # ---------------------------------------------------------------- stats
    def sample_received_fps(self) -> int:
        """Frames displayed since the previous call (per-second sampler hook)."""
        frames = self._frames_this_second
        self._frames_this_second = 0
        return frames

    @property
    def received_settings(self) -> dict[str, float]:
        """Encoding parameters of the most recently received frame."""
        meta = self._last_settings
        if not meta:
            return {}
        return {
            "width": meta.get("width", 0),
            "fps": meta.get("fps", 0.0),
            "qp": meta.get("qp", 0.0),
        }


class LegacyStreamReceiver(StreamReceiver):
    """The PR 1 receive pipeline, preserved verbatim as a baseline replica.

    Identical output to :class:`StreamReceiver` (the optimisations there are
    behaviour-preserving); what this subclass restores is the original *cost
    profile*: per-packet ``meta`` property access, the per-packet stale-frame
    list-comprehension scan, and a per-frame settings dict.  The polled
    escape-hatch pipeline uses it so the scaling benchmark's "PR 1 engine"
    baseline stays faithful, the same way ``test_bench_engine`` replicates
    the seed engine.
    """

    def on_packet(self, packet: Packet) -> None:
        now = self.sim.now
        self.total_bytes += packet.size_bytes
        self._interval_bytes += packet.size_bytes

        if packet.kind is PacketKind.FEC:
            self._fec_credits += 1
            return
        if packet.kind is PacketKind.RTP_AUDIO:
            return
        if packet.kind is not PacketKind.RTP_VIDEO:
            return

        self.total_video_packets += 1
        self._interval_video_packets += 1

        if self._highest_seq is None or packet.seq > self._highest_seq:
            self._highest_seq = packet.seq
        if self._prev_highest_seq is None:
            self._prev_highest_seq = packet.seq - 1

        owd = max(now - packet.created_at, 0.0)
        if self._base_owd is None or owd < self._base_owd:
            self._base_owd = owd
        if self._smoothed_owd is None:
            self._smoothed_owd = owd
        else:
            w = self.config.delay_smoothing
            self._smoothed_owd = (1 - w) * self._smoothed_owd + w * owd

        self._ingest_fragment_legacy(packet, now)
        self._expire_stale_frames_legacy(now)

    def on_packet_batch(self, packets) -> None:
        for packet in packets:
            self.on_packet(packet)

    def _ingest_fragment_legacy(self, packet: Packet, now: float) -> None:
        frame_id = packet.meta.get("frame_id")
        if frame_id is None:
            return
        pending = self._pending.get(frame_id)
        if pending is None:
            pending = _PendingFrame(
                frame_id=frame_id,
                fragments_expected=int(packet.meta.get("frag_count", 1)),
                keyframe=bool(packet.meta.get("keyframe", False)),
                first_arrival=now,
            )
            self._pending[frame_id] = pending
        pending.fragments_received += 1
        if pending.fragments_received >= pending.fragments_expected and not pending.completed:
            pending.completed = True
            self._on_frame_complete(packet, now)
            del self._pending[frame_id]

    def _on_frame_complete(self, packet: Packet, now: float) -> None:
        self.total_frames += 1
        self._frames_this_second += 1
        self._consecutive_lost_frames = 0
        if packet.meta["frame_id"] > self._last_completed_frame:
            self._last_completed_frame = packet.meta["frame_id"]
        self._last_settings = {
            "width": packet.meta.get("width", 0),
            "fps": packet.meta.get("fps", 0.0),
            "qp": packet.meta.get("qp", 0.0),
        }
        if self.freeze_tracker is not None:
            self.freeze_tracker.on_frame(now)

    def _expire_stale_frames_legacy(self, now: float) -> None:
        timeout = self.config.frame_timeout_s
        stale = [
            frame
            for frame in self._pending.values()
            if now - frame.first_arrival > timeout and not frame.completed
        ]
        for frame in stale:
            del self._pending[frame.frame_id]
            missing = frame.fragments_expected - frame.fragments_received
            if self._fec_credits >= missing > 0:
                self._fec_credits -= missing
                self._on_frame_complete_from_recovery(frame, now)
                continue
            self.lost_frames += 1
            self._consecutive_lost_frames += 1
            should_fir = frame.keyframe or (
                self._consecutive_lost_frames >= self.config.fir_loss_threshold
            )
            if should_fir and now - self._last_fir_at >= self.config.fir_min_interval_s:
                self._last_fir_at = now
                self.fir_sent += 1
                self._consecutive_lost_frames = 0
                if self.on_fir is not None:
                    self.on_fir(self.flow_id)
