"""Tests for the RTP substrate: packetizer, RTCP, FEC, receiver, sender, SIP."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cc.base import FeedbackReport
from repro.cc.gcc import GCCConfig, GCCController
from repro.media.codec import CodecModel, Resolution
from repro.media.encoder import AdaptiveEncoder, EncodedFrame, EncoderSettings, MeetEncoderPolicy
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.simulator import Simulator
from repro.rtp.fec import FecGenerator
from repro.rtp.jitter import StreamReceiver
from repro.rtp.packetizer import Packetizer, make_audio_packet
from repro.rtp.rtcp import extract_report, is_fir, is_report, make_fir_packet, make_report_packet
from repro.rtp.session import RtpStreamSender, SenderConfig
from repro.rtp.sip import SignalKind, SignalingMessage, extract_signal, send_signal


def make_frame(size_bytes=6000, frame_id=1, keyframe=False, layer="main"):
    return EncodedFrame(
        frame_id=frame_id,
        capture_time=0.0,
        size_bytes=size_bytes,
        settings=EncoderSettings(resolution=Resolution(640, 360), fps=30.0, qp=28.0),
        keyframe=keyframe,
        layer=layer,
    )


class TestPacketizer:
    def test_small_frame_single_packet(self):
        packetizer = Packetizer("f", "a", "b")
        packets = packetizer.packetize(make_frame(size_bytes=800), now=1.0)
        assert len(packets) == 1
        assert packets[0].meta["frag_count"] == 1

    def test_large_frame_fragmented_and_payload_preserved(self):
        packetizer = Packetizer("f", "a", "b", mtu_bytes=1200)
        frame = make_frame(size_bytes=5000)
        packets = packetizer.packetize(frame, now=1.0)
        assert len(packets) == 5
        payload_total = sum(p.size_bytes - 48 for p in packets)
        assert payload_total == 5000

    def test_sequence_numbers_strictly_increasing(self):
        packetizer = Packetizer("f", "a", "b")
        seqs = []
        for frame_id in range(5):
            for packet in packetizer.packetize(make_frame(frame_id=frame_id), now=0.0):
                seqs.append(packet.seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_metadata_carried(self):
        packetizer = Packetizer("f", "a", "b")
        packet = packetizer.packetize(make_frame(keyframe=True, layer="top"), now=2.0)[0]
        assert packet.meta["keyframe"] is True
        assert packet.meta["layer"] == "top"
        assert packet.meta["width"] == 640
        assert packet.kind is PacketKind.RTP_VIDEO

    def test_audio_packet(self):
        packet = make_audio_packet("f", "a", "b", seq=3, now=1.0)
        assert packet.kind is PacketKind.RTP_AUDIO
        assert packet.size_bytes > 300

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=100_000))
    def test_property_fragments_cover_frame(self, size):
        packetizer = Packetizer("f", "a", "b", mtu_bytes=1200)
        packets = packetizer.packetize(make_frame(size_bytes=size), now=0.0)
        payload = sum(p.size_bytes - 48 for p in packets)
        assert payload == max(size, 1)
        assert all(p.size_bytes - 48 <= 1200 for p in packets)


class TestRtcp:
    def test_report_round_trip(self):
        report = FeedbackReport(
            timestamp=1.0,
            interval_s=0.25,
            receive_rate_bps=5e5,
            loss_fraction=0.1,
            queueing_delay_s=0.02,
        )
        packet = make_report_packet("f:rtcp", "b", "a", report, now=1.0)
        assert is_report(packet)
        assert not is_fir(packet)
        assert extract_report(packet) is report

    def test_fir_packet(self):
        packet = make_fir_packet("f:rtcp", "b", "a", now=1.0, layer="high")
        assert is_fir(packet)
        assert extract_report(packet) is None
        assert packet.meta["layer"] == "high"

    def test_non_rtcp_packet_not_classified(self):
        media = Packet(size_bytes=100, flow_id="f", src="a", dst="b")
        assert not is_report(media)
        assert not is_fir(media)


class TestFecGenerator:
    def test_no_fec_for_zero_ratio(self):
        fec = FecGenerator("f", "a", "b")
        assert fec.protect([Packet(1200, "f", "a", "b")], 0.0, now=0.0) == []

    def test_ratio_determines_count(self):
        fec = FecGenerator("f", "a", "b")
        media = [Packet(1200, "f", "a", "b", seq=i) for i in range(10)]
        repair = fec.protect(media, 0.2, now=0.0)
        assert len(repair) == 2
        assert all(p.kind is PacketKind.FEC for p in repair)

    def test_groups_are_distinct(self):
        fec = FecGenerator("f", "a", "b")
        first = fec.protect([Packet(1200, "f", "a", "b", seq=1)], 0.5, now=0.0)
        second = fec.protect([Packet(1200, "f", "a", "b", seq=2)], 0.5, now=0.0)
        assert first[0].meta["fec_group"] != second[0].meta["fec_group"]


class TestStreamReceiver:
    def _packets_for_frame(self, frame_id, count, start_seq, keyframe=False, created_at=0.0):
        return [
            Packet(
                1248,
                "f",
                "a",
                "b",
                kind=PacketKind.RTP_VIDEO,
                seq=start_seq + i,
                created_at=created_at,
                meta={"frame_id": frame_id, "frag_index": i, "frag_count": count, "keyframe": keyframe,
                      "width": 640, "fps": 30.0, "qp": 28.0},
            )
            for i in range(count)
        ]

    def test_complete_frame_counted(self):
        sim = Simulator()
        receiver = StreamReceiver(sim, "f")
        for packet in self._packets_for_frame(1, 3, start_seq=1):
            receiver.on_packet(packet)
        assert receiver.total_frames == 1
        assert receiver.received_settings["width"] == 640

    def test_loss_fraction_from_sequence_gap(self):
        sim = Simulator()
        receiver = StreamReceiver(sim, "f")
        packets = self._packets_for_frame(1, 10, start_seq=1)
        for packet in packets[:5] + packets[7:]:  # drop two fragments
            receiver.on_packet(packet)
        sim.run(until=1.0)
        report = receiver.make_report(now=1.0)
        assert report.loss_fraction == pytest.approx(2 / 9, abs=0.05)

    def test_receive_rate_reported(self):
        sim = Simulator()
        receiver = StreamReceiver(sim, "f")
        for packet in self._packets_for_frame(1, 10, start_seq=1):
            receiver.on_packet(packet)
        report = receiver.make_report(now=1.0)
        assert report.receive_rate_bps == pytest.approx(10 * 1248 * 8, rel=0.01)

    def test_queueing_delay_measured_against_base(self):
        sim = Simulator()
        receiver = StreamReceiver(sim, "f")
        # First packet with 20 ms one-way delay establishes the base.
        sim.run(until=0.02)
        receiver.on_packet(self._packets_for_frame(1, 1, start_seq=1, created_at=0.0)[0])
        # Later packets delayed by an extra 100 ms.
        for i in range(2, 40):
            sim.run(until=0.02 + i * 0.03 + 0.1)
            receiver.on_packet(
                self._packets_for_frame(i, 1, start_seq=i, created_at=0.02 + i * 0.03)[0]
            )
        report = receiver.make_report(now=sim.now)
        assert report.queueing_delay_s > 0.05

    def test_fir_on_lost_keyframe(self):
        sim = Simulator()
        fired = []
        receiver = StreamReceiver(sim, "f", on_fir=lambda flow: fired.append(flow))
        packets = self._packets_for_frame(1, 4, start_seq=1, keyframe=True)
        for packet in packets[:2]:  # keyframe incomplete
            receiver.on_packet(packet)
        # A much later packet triggers expiry of the stale keyframe.
        sim.run(until=1.0)
        receiver.on_packet(self._packets_for_frame(2, 1, start_seq=10)[0])
        assert fired == ["f"]
        assert receiver.fir_sent == 1

    def test_fec_credit_recovers_missing_fragment(self):
        sim = Simulator()
        fired = []
        receiver = StreamReceiver(sim, "f", on_fir=lambda flow: fired.append(flow))
        receiver.on_packet(Packet(1200, "f", "a", "b", kind=PacketKind.FEC, seq=999))
        packets = self._packets_for_frame(1, 3, start_seq=1, keyframe=True)
        for packet in packets[:2]:
            receiver.on_packet(packet)
        sim.run(until=1.0)
        receiver.on_packet(self._packets_for_frame(2, 1, start_seq=10)[0])
        # The FEC credit reconstructed the frame: no FIR, frame counted.
        assert fired == []
        assert receiver.total_frames >= 1

    def test_one_fragment_frames_match_the_reference_receiver(self):
        """One-fragment frames complete on arrival, even while other frames
        are pending, exactly as the per-packet reference receiver counts them."""
        from repro.rtp.jitter import LegacyStreamReceiver

        def schedule():
            # (time, train): a 3-fragment keyframe missing a fragment, one-
            # fragment frames around it, an FEC repair that recovers it on
            # expiry, then a keyframe lost for good (FIR).
            multi = self._packets_for_frame(1, 3, start_seq=1, keyframe=True)
            lost = self._packets_for_frame(7, 3, start_seq=10, keyframe=True)
            fec = Packet(1200, "f", "a", "b", kind=PacketKind.FEC, seq=999)
            return [
                (0.00, multi[:1]),
                (0.01, self._packets_for_frame(2, 1, start_seq=4)),
                (0.02, [multi[2], fec]),
                (0.03, self._packets_for_frame(3, 1, start_seq=5)),
                (0.60, self._packets_for_frame(4, 1, start_seq=6)),
                (0.61, self._packets_for_frame(5, 2, start_seq=7)),
                (1.50, self._packets_for_frame(6, 1, start_seq=9) + lost[:1]),
                (1.60, self._packets_for_frame(8, 1, start_seq=13)),
                (2.00, self._packets_for_frame(9, 1, start_seq=14)),
            ]

        def observe(receiver_cls, batched):
            sim = Simulator()
            fired = []
            receiver = receiver_cls(sim, "f", on_fir=fired.append)
            trajectory = []
            for when, train in schedule():
                sim._now = when
                if batched:
                    receiver.on_packet_batch(train)
                else:
                    for packet in train:
                        receiver.on_packet(packet)
                trajectory.append(
                    (receiver.total_frames, receiver.lost_frames, len(fired),
                     receiver._fec_credits, sorted(receiver._pending))
                )
            return trajectory, receiver.sample_received_fps(), receiver.make_report(now=2.5)

        reference = observe(LegacyStreamReceiver, batched=False)
        assert reference[0][-1][:3] == (8, 1, 1)
        assert observe(StreamReceiver, batched=False) == reference
        assert observe(StreamReceiver, batched=True) == reference

    def test_received_fps_sampler_resets(self):
        sim = Simulator()
        receiver = StreamReceiver(sim, "f")
        for i in range(1, 11):
            receiver.on_packet(self._packets_for_frame(i, 1, start_seq=i)[0])
        assert receiver.sample_received_fps() == 10
        assert receiver.sample_received_fps() == 0


class TestRtpStreamSender:
    def _wire(self, sim):
        """A sender host directly connected to a receiver host."""
        sender_host = Host(sim, "a")
        receiver_host = Host(sim, "b")
        sender_host.set_egress(lambda p: sim.schedule(0.01, lambda pkt=p: receiver_host.receive(pkt)))
        receiver_host.set_egress(lambda p: sim.schedule(0.01, lambda pkt=p: sender_host.receive(pkt)))
        return sender_host, receiver_host

    def test_sender_emits_media_and_audio(self):
        sim = Simulator()
        sender_host, receiver_host = self._wire(sim)
        received = {"video": 0, "audio": 0}

        def on_packet(packet):
            if packet.kind is PacketKind.RTP_VIDEO:
                received["video"] += 1
            elif packet.kind is PacketKind.RTP_AUDIO:
                received["audio"] += 1

        receiver_host.register_flow("media", on_packet)
        sender = RtpStreamSender(
            sim,
            sender_host,
            flow_id="media",
            dst="b",
            encoder=AdaptiveEncoder(CodecModel(), MeetEncoderPolicy()),
            controller=GCCController(GCCConfig(start_bitrate_bps=600_000, max_bitrate_bps=900_000)),
        )
        sender.start()
        sim.run(until=5.0)
        sender.stop()
        assert received["video"] > 50
        assert received["audio"] > 20

    def test_feedback_changes_encoder_target(self):
        sim = Simulator()
        sender_host, _ = self._wire(sim)
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy())
        sender = RtpStreamSender(
            sim,
            sender_host,
            flow_id="media",
            dst="b",
            encoder=encoder,
            controller=GCCController(GCCConfig(start_bitrate_bps=600_000, max_bitrate_bps=900_000)),
        )
        sender.start()
        report = FeedbackReport(
            timestamp=1.0, interval_s=0.25, receive_rate_bps=300_000, loss_fraction=0.3,
            queueing_delay_s=0.2,
        )
        sender.apply_feedback(report)
        assert encoder.target_bitrate_bps < 600_000

    def test_fir_packet_triggers_keyframe(self):
        sim = Simulator()
        sender_host, receiver_host = self._wire(sim)
        keyframes = []
        receiver_host.register_flow(
            "media",
            lambda p: keyframes.append(p.meta.get("keyframe"))
            if p.kind is PacketKind.RTP_VIDEO
            else None,
        )
        sender = RtpStreamSender(
            sim,
            sender_host,
            flow_id="media",
            dst="b",
            encoder=AdaptiveEncoder(CodecModel(), MeetEncoderPolicy()),
            controller=GCCController(GCCConfig()),
        )
        sender.start()
        sim.run(until=2.0)
        before = sum(bool(k) for k in keyframes)
        sender_host.receive(make_fir_packet("media:rtcp", "b", "a", now=sim.now))
        sim.run(until=2.5)
        after = sum(bool(k) for k in keyframes)
        assert after > before
        assert sender.fir_received == 1

    def test_pause_suppresses_frames(self):
        sim = Simulator()
        sender_host, receiver_host = self._wire(sim)
        count = []
        receiver_host.register_flow("media", lambda p: count.append(sim.now))
        sender = RtpStreamSender(
            sim,
            sender_host,
            flow_id="media",
            dst="b",
            encoder=AdaptiveEncoder(CodecModel(), MeetEncoderPolicy()),
            controller=GCCController(GCCConfig()),
            config=SenderConfig(send_audio=False),
        )
        sender.start()
        sender.paused_until = 2.0
        sim.run(until=1.9)
        assert count == []
        sim.run(until=3.0)
        assert count


class TestSignaling:
    def test_signal_round_trip(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        a.set_egress(lambda p: b.receive(p))
        received = []
        b.set_default_handler(lambda p: received.append(extract_signal(p)))
        send_signal(a, "b", SignalingMessage(kind=SignalKind.INVITE, sender="a", payload={"x": 1}))
        assert received[0].kind is SignalKind.INVITE
        assert received[0].payload == {"x": 1}

    def test_extract_signal_rejects_media(self):
        assert extract_signal(Packet(100, "f", "a", "b")) is None
