"""Tests for packets, links, shapers, hosts, routers and topologies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.router import Router
from repro.net.shaper import UNCONSTRAINED_BPS, BandwidthProfile, LinkShaper
from repro.net.simulator import Simulator
from repro.net.topology import build_access_topology, build_competition_topology


def make_packet(size=1000, flow="f", src="a", dst="b", **kw):
    return Packet(size_bytes=size, flow_id=flow, src=src, dst=dst, **kw)


class TestPacket:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            make_packet(size=0)

    def test_size_bits(self):
        assert make_packet(size=125).size_bits == 1000

    def test_unique_packet_ids(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_copy_for_forwarding_preserves_media_metadata(self):
        packet = make_packet(meta={"frame_id": 7, "layer": "top"}, seq=42)
        packet.created_at = 1.25
        copy = packet.copy_for_forwarding(src="server", dst="client", flow_id="down")
        assert copy.src == "server"
        assert copy.dst == "client"
        assert copy.flow_id == "down"
        assert copy.seq == 42
        assert copy.created_at == 1.25
        assert copy.meta["frame_id"] == 7
        # Metadata is write-once, so forwarded clones share the dict (the
        # per-copy dict duplication dominated SFU fan-out cost).
        assert copy.meta is packet.meta


class TestLink:
    def test_serialization_delay_matches_rate(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(make_packet(size=1000))  # 8000 bits at 8 kbps -> 1 second
        sim.run(until=2.0)
        assert arrivals == pytest.approx([1.0])

    def test_propagation_delay_added(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, delay_s=0.5)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(make_packet(size=1000))
        sim.run(until=3.0)
        assert arrivals == pytest.approx([1.5])

    def test_fifo_ordering(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=80_000.0)
        order = []
        link.connect(lambda p: order.append(p.seq))
        for seq in range(5):
            link.send(make_packet(seq=seq))
        sim.run(until=2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_drop_tail_when_queue_full(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, queue_bytes=2500)
        delivered = []
        link.connect(lambda p: delivered.append(p.seq))
        for seq in range(10):
            link.send(make_packet(size=1000, seq=seq))
        sim.run(until=60.0)
        assert link.stats.packets_dropped > 0
        assert len(delivered) + link.stats.packets_dropped == 10

    def test_on_drop_callback(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, queue_bytes=1500)
        link.connect(lambda p: None)
        dropped = []
        link.on_drop = lambda p: dropped.append(p.seq)
        for seq in range(5):
            link.send(make_packet(size=1000, seq=seq))
        assert dropped  # at least one packet did not fit the 1500 B queue

    def test_random_loss(self):
        sim = Simulator(seed=1)
        link = Link(sim, "l", rate_bps=1e9, loss_rate=0.5)
        delivered = []
        link.connect(lambda p: delivered.append(p))
        for _ in range(500):
            link.send(make_packet(size=100))
        sim.run(until=10.0)
        assert 100 < len(delivered) < 400

    def test_set_rate_changes_serialization(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.set_rate(80_000.0)
        link.send(make_packet(size=1000))
        sim.run(until=1.0)
        assert arrivals == pytest.approx([0.1])

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", rate_bps=0)
        link = Link(sim, "l", rate_bps=1e6)
        with pytest.raises(ValueError):
            link.set_rate(-5)

    def test_queueing_delay_estimate(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0)
        link.connect(lambda p: None)
        link.send(make_packet(size=1000))
        link.send(make_packet(size=1000))
        # One packet in service, one waiting -> 1000 B / 1 kB/s = 1 s backlog.
        assert link.queueing_delay_estimate() == pytest.approx(1.0)

    def test_stats_drop_rate(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8_000.0, queue_bytes=1000)
        link.connect(lambda p: None)
        for _ in range(4):
            link.send(make_packet(size=1000))
        sim.run(until=10.0)
        assert 0.0 < link.stats.drop_rate < 1.0


class TestBandwidthProfile:
    def test_constant_profile(self):
        profile = BandwidthProfile.constant(2e6)
        assert profile.rate_at(0.0) == 2e6
        assert profile.rate_at(1000.0) == 2e6

    def test_disruption_profile_shape(self):
        profile = BandwidthProfile.disruption(0.25e6, drop_at_s=60, duration_s=30)
        assert profile.rate_at(10) == UNCONSTRAINED_BPS
        assert profile.rate_at(60) == 0.25e6
        assert profile.rate_at(89.9) == 0.25e6
        assert profile.rate_at(90) == UNCONSTRAINED_BPS

    def test_from_segments(self):
        profile = BandwidthProfile.from_segments([(0.0, 1e6), (10.0, 2e6)])
        assert profile.rate_at(5) == 1e6
        assert profile.rate_at(15) == 2e6

    def test_from_segments_must_start_at_zero(self):
        with pytest.raises(ValueError):
            BandwidthProfile.from_segments([(5.0, 1e6)])

    def test_steps_must_increase(self):
        with pytest.raises(ValueError):
            BandwidthProfile(initial_bps=1e6, steps=((5.0, 2e6), (5.0, 3e6)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthProfile.constant(-1)

    def test_shaper_applies_steps(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9)
        link.connect(lambda p: None)
        shaper = LinkShaper(sim, link, BandwidthProfile.disruption(1e6, drop_at_s=5, duration_s=5))
        shaper.apply()
        sim.run(until=6.0)
        assert link.rate_bps == 1e6
        sim.run(until=11.0)
        assert link.rate_bps == UNCONSTRAINED_BPS

    def test_shaper_cannot_be_applied_twice(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9)
        shaper = LinkShaper(sim, link, BandwidthProfile.constant(1e6))
        shaper.apply()
        with pytest.raises(RuntimeError):
            shaper.apply()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.0, max_value=500.0))
    def test_property_rate_always_positive(self, level_mbps, when):
        profile = BandwidthProfile.disruption(level_mbps * 1e6)
        assert profile.rate_at(when) > 0


class TestHostAndRouter:
    def test_host_dispatches_by_flow(self):
        sim = Simulator()
        host = Host(sim, "h")
        seen = {"a": 0, "b": 0}
        host.register_flow("a", lambda p: seen.__setitem__("a", seen["a"] + 1))
        host.register_flow("b", lambda p: seen.__setitem__("b", seen["b"] + 1))
        host.receive(make_packet(flow="a"))
        host.receive(make_packet(flow="b"))
        host.receive(make_packet(flow="a"))
        assert seen == {"a": 2, "b": 1}

    def test_duplicate_flow_registration_rejected(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.register_flow("a", lambda p: None)
        with pytest.raises(ValueError):
            host.register_flow("a", lambda p: None)

    def test_default_handler_for_unknown_flow(self):
        sim = Simulator()
        host = Host(sim, "h")
        seen = []
        host.set_default_handler(lambda p: seen.append(p.flow_id))
        host.receive(make_packet(flow="mystery"))
        assert seen == ["mystery"]

    def test_send_requires_egress(self):
        sim = Simulator()
        host = Host(sim, "h")
        with pytest.raises(RuntimeError):
            host.send(make_packet())

    def test_taps_see_both_directions(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.set_egress(lambda p: None)
        events = []
        host.taps.append(lambda direction, p: events.append(direction))
        host.send(make_packet(src="h"))
        host.receive(make_packet(dst="h"))
        assert events == ["tx", "rx"]

    def test_router_routes_by_destination(self):
        sim = Simulator()
        router = Router(sim, "r")
        seen = []
        router.add_delay_route("x", lambda p: seen.append("x"), delay_s=0.0)
        router.set_default_delay_route(lambda p: seen.append("default"), delay_s=0.0)
        router.receive(make_packet(dst="x"))
        router.receive(make_packet(dst="y"))
        sim.run(until=1.0)
        assert seen == ["x", "default"]

    def test_router_without_route_raises(self):
        sim = Simulator()
        router = Router(sim, "r")
        with pytest.raises(RuntimeError):
            router.receive(make_packet(dst="nowhere"))


class TestBatchPath:
    """The batched packet path must be indistinguishable from per-packet sends."""

    def test_link_send_batch_matches_sequential_sends(self):
        def run(batch: bool):
            sim = Simulator(seed=3)
            link = Link(sim, "l", rate_bps=200_000.0, delay_s=0.004, queue_bytes=6_000)
            out: list[tuple[float, int]] = []
            link.connect(lambda p: out.append((sim.now, p.seq)))
            packets = [make_packet(size=900, seq=i) for i in range(12)]
            if batch:
                sim.schedule_at(0.01, lambda: link.send_batch(packets))
            else:
                def send_all():
                    for p in packets:
                        link.send(p)
                sim.schedule_at(0.01, send_all)
            sim.run(until=5.0)
            stats = link.stats
            return out, (stats.packets_sent, stats.packets_dropped, stats.bytes_sent, stats.bytes_dropped)

        assert run(True) == run(False)

    def test_host_send_batch_counts_and_taps_like_send(self):
        sim = Simulator()
        host = Host(sim, "h")
        sent = []
        host.set_egress(sent.append)
        taps = []
        host.taps.append(lambda d, p: taps.append((d, p.seq)))
        host.send_batch([make_packet(seq=1), make_packet(seq=2)])
        assert [p.seq for p in sent] == [1, 2]
        assert host.packets_sent == 2 and host.bytes_sent == 2000
        assert taps == [("tx", 1), ("tx", 2)]
        assert all(p.src == "h" and p.created_at == 0.0 for p in sent)

    def test_host_receive_batch_splits_mixed_flows(self):
        sim = Simulator()
        host = Host(sim, "h")
        got: list[tuple[str, list[int]]] = []
        host.register_flow("a", lambda p: got.append(("a-single", [p.seq])),
                           batch_handler=lambda ps: got.append(("a-batch", [p.seq for p in ps])))
        host.register_flow("b", lambda p: got.append(("b-single", [p.seq])))
        train = [make_packet(flow="a", seq=1), make_packet(flow="a", seq=2),
                 make_packet(flow="b", seq=3), make_packet(flow="a", seq=4)]
        host.receive_batch(train)
        assert got == [("a-batch", [1, 2]), ("b-single", [3]), ("a-batch", [4])]
        assert host.packets_received == 4

    def test_delay_pipe_batch_preserved_end_to_end(self):
        from repro.net.router import DelayPipe

        sim = Simulator()
        batches = []
        pipe = DelayPipe(sim, receiver=lambda p: batches.append([p.seq]),
                         delay_s=0.01, receiver_batch=lambda ps: batches.append([p.seq for p in ps]))
        pipe.send_batch([make_packet(seq=1), make_packet(seq=2)])
        pipe.send(make_packet(seq=3))
        sim.run(until=1.0)
        assert batches == [[1, 2], [3]]

    def test_source_routed_egress_matches_hop_by_hop_delay(self):
        from repro.net.router import DelayPipe, SourceRoutedEgress

        sim = Simulator()
        arrivals: list[tuple[float, int, str]] = []
        direct_dst = Host(sim, "dst")
        direct_dst.set_default_handler(lambda p: arrivals.append((sim.now, p.seq, "routed")))
        fallback_sink = []
        fallback = DelayPipe(sim, fallback_sink.append, 0.005)
        egress = SourceRoutedEgress(sim, 0.013, fallback.send, fallback_batch=fallback.send_batch)
        egress.add_route("dst", direct_dst.receive, direct_dst.receive_batch)
        egress.send(make_packet(dst="dst", seq=1))
        egress.send_batch([make_packet(dst="dst", seq=2), make_packet(dst="dst", seq=3)])
        egress.send(make_packet(dst="elsewhere", seq=9))
        sim.run(until=1.0)
        assert [(round(t, 6), s) for t, s, _ in arrivals] == [(0.013, 1), (0.013, 2), (0.013, 3)]
        assert [p.seq for p in fallback_sink] == [9]

    def test_fused_topology_delivery_times_match_hop_by_hop(self):
        """Source routing must not change arrival times at the server."""

        def run(fused: bool):
            sim = Simulator(seed=5)
            topo = build_access_topology(sim, client_names=("C1", "C2"), fused=fused)
            arrivals = []
            topo.host("S").set_default_handler(lambda p: arrivals.append((sim.now, p.seq)))
            def send_all():
                for seq in range(5):
                    topo.host("C2").send(make_packet(src="C2", dst="S", seq=seq))
                topo.host("C2").send_batch(
                    [make_packet(src="C2", dst="S", seq=10 + i) for i in range(3)]
                )
            sim.schedule_at(0.1, send_all)
            sim.run(until=2.0)
            return arrivals

        assert run(True) == run(False)


class TestForwardedBursts:
    """A fused fan-out burst must be indistinguishable from one send per train."""

    ROUTED = ("A", "B", "C")

    @staticmethod
    def _outbound(unrouted_at: int = 2) -> list:
        trains = [
            [make_packet(dst="A", seq=1, size=300)],
            [make_packet(dst="B", seq=2, size=900), make_packet(dst="B", seq=3, size=500)],
            [make_packet(dst="C", seq=4, size=200)],
        ]
        trains.insert(unrouted_at, [make_packet(dst="elsewhere", seq=9, size=700)])
        return [[sum(p.size_bytes for p in train), train] for train in trains]

    def _egress(self, sim, log):
        from repro.net.router import DelayPipe, SourceRoutedEgress

        fallback = DelayPipe(
            sim,
            lambda p: log.append((sim.now, "fallback", [p.seq])),
            0.005,
            receiver_batch=lambda ps: log.append((sim.now, "fallback", [p.seq for p in ps])),
        )
        egress = SourceRoutedEgress(sim, 0.013, fallback.send, fallback_batch=fallback.send_batch)
        for name in self.ROUTED:
            egress.add_route(
                name,
                lambda p, n=name: log.append((sim.now, n, [p.seq])),
                lambda ps, n=name: log.append((sim.now, n, [p.seq for p in ps])),
            )
        return egress

    @staticmethod
    def _heap(sim):
        return sorted((when, seq) for when, seq, *_ in sim._queue)

    def _run_host(self, fused: bool, unrouted_at: int):
        sim = Simulator()
        log: list = []
        egress = self._egress(sim, log)
        host = Host(sim, "S")
        if fused:
            host.set_egress(egress.send, batch=egress.send_batch, trains=egress.send_trains)
        else:
            host.set_egress(egress.send, batch=egress.send_batch)
        taps: list = []
        host.taps.append(lambda d, p: taps.append((d, p.dst, p.seq)))
        # An earlier event, so the burst's heap sequence numbers are not the first.
        sim.schedule_at(0.05, lambda: None)
        outbound = self._outbound(unrouted_at)
        if fused:
            host.send_forwarded_trains(outbound)
        else:
            for size_total, train in outbound:
                host.send_forwarded_batch(train, size_total)
        heap = self._heap(sim)
        sim.run(until=1.0)
        return taps, (host.packets_sent, host.bytes_sent), heap, log

    @pytest.mark.parametrize("unrouted_at", [0, 2, 4])
    def test_send_forwarded_trains_matches_per_train_sends(self, unrouted_at):
        fused = self._run_host(True, unrouted_at)
        assert fused == self._run_host(False, unrouted_at)
        taps, counters, _heap, _log = fused
        assert [seq for _d, _dst, seq in taps] == [
            p.seq for _size, train in self._outbound(unrouted_at) for p in train
        ]
        assert counters == (5, 2600)

    def test_send_forwarded_trains_without_trains_egress_sends_per_train(self):
        sim = Simulator()
        host = Host(sim, "S")
        batches: list = []
        host.set_egress(lambda p: batches.append([p.seq]), batch=lambda ps: batches.append([p.seq for p in ps]))
        host.send_forwarded_trains(self._outbound())
        assert batches == [[1], [2, 3], [9], [4]]
        assert (host.packets_sent, host.bytes_sent) == (5, 2600)

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("unrouted_at", [0, 2, 4])
    def test_send_trains_arms_the_bus_like_per_train_pushes(self, armed, unrouted_at):
        def run(fused: bool):
            sim = Simulator()
            log: list = []
            egress = self._egress(sim, log)
            sim.schedule_at(0.05, lambda: None)
            if armed:
                egress.send(make_packet(dst="C", seq=0))
            outbound = self._outbound(unrouted_at)
            if fused:
                egress.send_trains(outbound)
            else:
                for _size, train in outbound:
                    egress.send_batch(train)
            heap = self._heap(sim)
            pending = len(egress.bus._transit)
            sim.run(until=1.0)
            return heap, pending, log

        fused_heap, fused_pending, fused_log = run(True)
        heap, pending, log = run(False)
        assert fused_heap == heap
        assert fused_log == log
        # Every routed train rides one bus record instead of one each.
        assert fused_pending == 1 + armed and pending == 3 + armed
        routed = [(dst, seqs) for _t, dst, seqs in fused_log if dst != "fallback"]
        assert routed[-3:] == [("A", [1]), ("B", [2, 3]), ("C", [4])]

    def test_send_trains_unrouted_destination_falls_back_per_train(self):
        from repro.net.router import SourceRoutedEgress

        sim = Simulator()
        fallback: list = []
        egress = SourceRoutedEgress(
            sim, 0.013, lambda p: fallback.append([p.seq]),
            fallback_batch=lambda ps: fallback.append([p.seq for p in ps]),
        )
        outbound = [
            [100, [make_packet(dst="x", seq=1)]],
            [200, [make_packet(dst="y", seq=2), make_packet(dst="y", seq=3)]],
        ]
        egress.send_trains(outbound)
        assert fallback == [[1], [2, 3]]
        assert not egress.bus._transit and not sim._queue

    def test_send_forwarded_batch_without_egress_changes_nothing(self):
        sim = Simulator()
        host = Host(sim, "S")
        taps: list = []
        host.taps.append(lambda d, p: taps.append(p.seq))
        with pytest.raises(RuntimeError):
            host.send_forwarded_batch([make_packet(seq=1)], 1000)
        assert taps == []
        assert (host.packets_sent, host.bytes_sent) == (0, 0)


class TestOnePacketTrains:
    """``receive_batch([p])`` must behave exactly like ``receive(p)``."""

    @staticmethod
    def _receiver_state(receiver):
        return (
            receiver.total_bytes,
            receiver.total_video_packets,
            receiver.total_frames,
            receiver._highest_seq,
            receiver._prev_highest_seq,
            receiver._smoothed_owd,
            receiver._fec_credits,
            sorted(receiver._pending),
        )

    @staticmethod
    def _media(kind, seq, frame_id, flow, dst):
        from repro.net.packet import PacketKind

        meta = None
        if kind is PacketKind.RTP_VIDEO:
            meta = {"frame_id": frame_id, "frag_count": 2, "layer": "main"}
        packet = make_packet(size=400 + seq, flow=flow, src="S", dst=dst, kind=kind, seq=seq, meta=meta)
        packet.created_at = 0.01 * seq
        return packet

    def test_client_host(self):
        from repro.net.packet import PacketKind
        from repro.rtp.jitter import StreamReceiver

        def run(one_packet_trains: bool):
            sim = Simulator()
            host = Host(sim, "C2")
            receiver = StreamReceiver(sim, "call:down:C1>C2")
            host.register_flow(receiver.flow_id, receiver.on_packet, batch_handler=receiver.on_packet_batch)
            unclassified: list = []
            host.set_default_handler(lambda p: unclassified.append(p.seq))
            taps: list = []
            host.taps.append(lambda d, p: taps.append((d, p.seq)))
            kinds = [PacketKind.RTP_VIDEO, PacketKind.RTP_AUDIO, PacketKind.FEC, PacketKind.RTP_VIDEO]
            packets = [
                self._media(kind, seq, frame_id=1, flow=receiver.flow_id, dst="C2")
                for seq, kind in enumerate(kinds, start=1)
            ]
            packets.append(make_packet(flow="stray", dst="C2", seq=99))
            for index, packet in enumerate(packets):
                sim._now = 0.1 * (index + 1)
                if one_packet_trains:
                    host.receive_batch([packet])
                else:
                    host.receive(packet)
            return self._receiver_state(receiver), unclassified, taps, (host.packets_received, host.bytes_received)

        one = run(True)
        assert one == run(False)
        state, unclassified, _taps, _counters = one
        assert state[2] == 1 and unclassified == [99]

    @pytest.mark.parametrize("vca", ["meet", "zoom", "teams"])
    def test_sfu_host(self, vca):
        from repro.net.packet import PacketKind
        from repro.vca import get_profile
        from repro.vca.base import uplink_flow
        from repro.vca.sfu import SfuNode

        def run(one_packet_trains: bool):
            sim = Simulator(seed=11)
            topo = build_access_topology(sim, client_names=("C1", "C2", "C3", "C4"))
            arrivals: list = []
            for name in ("C2", "C3", "C4"):
                topo.host(name).set_default_handler(
                    lambda p, n=name: arrivals.append((round(sim.now, 9), n, p.flow_id, p.kind, p.seq, p.size_bytes))
                )
            server = topo.host("S")
            node = SfuNode(sim, server, get_profile(vca))
            for name in ("C1", "C2", "C3", "C4"):
                node.add_participant(name)
            flow = uplink_flow("C2")
            kinds = [PacketKind.RTP_AUDIO, PacketKind.RTP_VIDEO, PacketKind.RTP_VIDEO, PacketKind.FEC]

            def deliver():
                for seq, kind in enumerate(kinds, start=1):
                    packet = self._media(kind, seq, frame_id=seq // 2, flow=flow, dst="S")
                    if one_packet_trains:
                        server.receive_batch([packet])
                    else:
                        server.receive(packet)

            sim.schedule_at(0.2, deliver)
            sim.run(until=1.0)
            state = node.participants["C2"]
            return (
                arrivals,
                self._receiver_state(state.uplink_receiver),
                dict(state.layer_bytes),
                (node.bytes_forwarded, node.fec_bytes_added),
                (server.packets_received, server.bytes_received, server.packets_sent, server.bytes_sent),
                sim.events_processed,
            )

        one = run(True)
        assert one == run(False)
        assert {n for _t, n, *_ in one[0]} >= {"C3", "C4"}


class TestTopologies:
    def test_access_topology_end_to_end_delivery(self):
        sim = Simulator()
        topo = build_access_topology(sim)
        received = []
        topo.host("S").register_flow("f", lambda p: received.append(sim.now))
        packet = make_packet(flow="f", src="C1", dst="S")
        topo.host("C1").send(packet)
        sim.run(until=1.0)
        assert len(received) == 1
        assert received[0] > 0.0

    def test_access_topology_shaping_applies_to_uplink(self):
        sim = Simulator()
        topo = build_access_topology(sim)
        topo.shape(up_profile=BandwidthProfile.constant(1e6))
        assert topo.uplink.rate_bps == 1e6
        assert topo.downlink.rate_bps == UNCONSTRAINED_BPS

    def test_access_topology_reverse_path(self):
        sim = Simulator()
        topo = build_access_topology(sim)
        received = []
        topo.host("C1").register_flow("f", lambda p: received.append(p))
        topo.host("S").send(make_packet(flow="f", src="S", dst="C1"))
        sim.run(until=1.0)
        assert len(received) == 1

    def test_access_topology_multi_client(self):
        sim = Simulator()
        topo = build_access_topology(sim, client_names=("C1", "C2", "C3", "C4"))
        assert set(topo.hosts) == {"C1", "C2", "C3", "C4", "S"}

    def test_competition_topology_shares_bottleneck(self):
        sim = Simulator()
        topo = build_competition_topology(sim)
        topo.shape(up_profile=BandwidthProfile.constant(1e6), down_profile=BandwidthProfile.constant(1e6))
        received = []
        topo.host("S1").register_flow("a", lambda p: received.append("C1"))
        topo.host("S2").register_flow("b", lambda p: received.append("F1"))
        topo.host("C1").send(make_packet(flow="a", src="C1", dst="S1"))
        topo.host("F1").send(make_packet(flow="b", src="F1", dst="S2"))
        sim.run(until=1.0)
        assert sorted(received) == ["C1", "F1"]
        assert topo.bottleneck_up.stats.packets_sent == 2

    def test_competition_topology_downstream_path(self):
        sim = Simulator()
        topo = build_competition_topology(sim)
        received = []
        topo.host("F1").register_flow("d", lambda p: received.append(p))
        topo.host("S2").send(make_packet(flow="d", src="S2", dst="F1"))
        sim.run(until=1.0)
        assert len(received) == 1
        assert topo.bottleneck_down.stats.packets_sent == 1
