"""Tests for the competing-application models (TCP, iPerf, ABR, Netflix, YouTube)."""

from __future__ import annotations

import pytest

from repro.apps.abr import AbrConfig
from repro.apps.iperf import IperfFlow
from repro.apps.netflix import NetflixPlayer
from repro.apps.tcp import TcpConnection
from repro.apps.youtube import YouTubePlayer
from repro.core.capture import PacketCapture
from repro.net.packet import PacketKind
from repro.net.shaper import BandwidthProfile
from repro.net.simulator import Simulator
from repro.net.topology import build_access_topology


def make_testbed(capacity_mbps=2.0, seed=0):
    """F1 behind a shaped access link, its server S2 unconstrained and remote."""
    sim = Simulator(seed=seed)
    topo = build_access_topology(sim, extra_server_names=("S2",), local_client_names=("F1",))
    topo.shape(
        up_profile=BandwidthProfile.constant(capacity_mbps * 1e6),
        down_profile=BandwidthProfile.constant(capacity_mbps * 1e6),
    )
    capture = PacketCapture(sim)
    capture.attach(topo.host("F1"))
    return sim, topo, capture


class TestTcpConnection:
    def test_bulk_flow_fills_the_link(self):
        sim, topo, capture = make_testbed(capacity_mbps=2.0)
        conn = TcpConnection(sim, sender=topo.host("S2"), receiver=topo.host("F1"), flow_id="bulk")
        conn.start()
        sim.run(until=30.0)
        conn.stop()
        goodput = capture.aggregate("F1", "rx").mean_mbps(10.0, 30.0)
        assert 1.5 < goodput <= 2.1

    def test_bounded_transfer_completes_and_calls_back(self):
        sim, topo, _ = make_testbed(capacity_mbps=5.0)
        done = []
        conn = TcpConnection(sim, sender=topo.host("S2"), receiver=topo.host("F1"), flow_id="xfer")
        conn.start(transfer_bytes=200_000, on_complete=lambda: done.append(sim.now))
        sim.run(until=20.0)
        assert done
        assert conn.bytes_acked >= 200_000 * 0.95

    def test_losses_trigger_window_reduction(self):
        sim, topo, _ = make_testbed(capacity_mbps=0.5)
        conn = TcpConnection(sim, sender=topo.host("S2"), receiver=topo.host("F1"), flow_id="bulk")
        conn.start()
        sim.run(until=30.0)
        assert conn.cubic.loss_events > 0
        assert conn.retransmissions > 0

    def test_rtt_estimated(self):
        sim, topo, _ = make_testbed(capacity_mbps=5.0)
        conn = TcpConnection(sim, sender=topo.host("S2"), receiver=topo.host("F1"), flow_id="bulk")
        conn.start()
        sim.run(until=5.0)
        assert 0.001 < conn.smoothed_rtt_s < 0.5

    def test_stop_halts_sending(self):
        sim, topo, capture = make_testbed(capacity_mbps=2.0)
        conn = TcpConnection(sim, sender=topo.host("S2"), receiver=topo.host("F1"), flow_id="bulk")
        conn.start()
        sim.run(until=10.0)
        conn.stop()
        sim.run(until=12.0)
        baseline = capture.aggregate("F1", "rx").total_bytes(0, 12)
        sim.run(until=20.0)
        assert capture.aggregate("F1", "rx").total_bytes(0, 20) <= baseline * 1.05


class TestIperf:
    def test_download_direction(self):
        sim, topo, capture = make_testbed(capacity_mbps=1.0)
        flow = IperfFlow(sim, client=topo.host("F1"), server=topo.host("S2"), direction="down")
        flow.start()
        sim.run(until=25.0)
        assert capture.aggregate("F1", "rx").mean_mbps(10, 25) > 0.6
        assert flow.bytes_acked > 0

    def test_upload_direction(self):
        sim, topo, capture = make_testbed(capacity_mbps=1.0)
        flow = IperfFlow(sim, client=topo.host("F1"), server=topo.host("S2"), direction="up")
        flow.start()
        sim.run(until=25.0)
        assert capture.aggregate("F1", "tx").mean_mbps(10, 25) > 0.6

    def test_invalid_direction_rejected(self):
        sim, topo, _ = make_testbed()
        with pytest.raises(ValueError):
            IperfFlow(sim, client=topo.host("F1"), server=topo.host("S2"), direction="sideways")


class TestStreamingPlayers:
    def test_youtube_downloads_chunks_and_adapts_up(self):
        sim, topo, capture = make_testbed(capacity_mbps=3.0)
        player = YouTubePlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
        player.start()
        sim.run(until=60.0)
        player.stop()
        assert len(player.chunk_log) > 5
        assert player.buffer_s > 0
        # With 3 Mbps available the player should leave the lowest rung.
        assert player.current_bitrate_bps > player.config.ladder_bps[0]
        assert capture.aggregate("F1", "rx").total_bytes(0, 60) > 0

    def test_youtube_uses_quic_packets(self):
        sim, topo, _ = make_testbed(capacity_mbps=3.0)
        kinds = set()
        topo.host("F1").taps.append(lambda direction, p: kinds.add(p.kind))
        player = YouTubePlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
        player.start()
        sim.run(until=20.0)
        assert PacketKind.QUIC_DATA in kinds

    def test_netflix_single_connection_when_healthy(self):
        sim, topo, _ = make_testbed(capacity_mbps=5.0)
        player = NetflixPlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
        player.start()
        sim.run(until=40.0)
        player.stop()
        assert player.connection_log
        assert player.connection_log[-1][1] == 1

    def test_netflix_opens_parallel_connections_when_starved(self):
        sim, topo, _ = make_testbed(capacity_mbps=0.3)
        player = NetflixPlayer(
            sim,
            client=topo.host("F1"),
            server=topo.host("S2"),
            config=AbrConfig(chunk_duration_s=4.0),
        )
        # Pretend the player already measured terrible throughput.
        player._throughput_estimate_bps = 50_000.0
        assert player._parallelism() > 1
        assert player._parallelism() <= player.max_parallel_connections

    def test_abr_quality_bounded_by_ladder(self):
        sim, topo, _ = make_testbed(capacity_mbps=1.0)
        player = YouTubePlayer(sim, client=topo.host("F1"), server=topo.host("S2"))
        player.start()
        sim.run(until=40.0)
        for _, quality, bitrate in player.chunk_log:
            assert 0 <= quality < len(player.config.ladder_bps)
            assert bitrate in player.config.ladder_bps

    def test_abr_off_periods_when_buffer_full(self):
        sim, topo, _ = make_testbed(capacity_mbps=10.0)
        player = YouTubePlayer(
            sim,
            client=topo.host("F1"),
            server=topo.host("S2"),
            config=AbrConfig(max_buffer_s=10.0),
        )
        player.start()
        sim.run(until=60.0)
        assert player.buffer_s <= 10.0 + player.config.chunk_duration_s
