"""Golden packet-path cells: links, shapers, topology and calls vs committed results.

Each cell drives one piece of the packet path -- a queue-building two-link
path with and without random loss, a shaper-style rate step mid-queue, seeded
Gilbert-Elliott loss plus jitter, a dense ``set_rate`` cascade, the
source-routed access topology, and short calls through the whole media
pipeline -- and the test pins what comes out: the LinkStats counters in
clear, plus the sha256 of the canonical JSON of the full observation
(per-packet delivery times, queueing delays, per-flow capture bins, mean
downlink rate).  Any change that moves a packet, an RNG draw or a delivery
instant on the default path shows here.

The call cells cover the six ``(vca, participants, uplink cap)`` cells of
the media-pipeline matrix at seed 21 over 30 s; the 2-party shaped meet and
zoom cells also carry the measured client's mean downlink rate.

Re-record (only when results are meant to change)::

    PYTHONPATH=src python tests/test_fastpath_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.capture import PacketCapture
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.router import DelayPipe, Router
from repro.net.shaper import BandwidthProfile, LinkShaper
from repro.net.simulator import Simulator
from repro.net.topology import build_access_topology
from repro.netem.impairments import DelayJitter, GilbertElliottLoss

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "fastpath_golden.json"
CALL_SEED = 21
CALL_DURATION_S = 30.0
CALL_CELLS = (
    ("meet", 2, 1_000_000.0),
    ("meet", 5, None),
    ("zoom", 2, 1_000_000.0),
    ("teams-chrome", 2, 1_000_000.0),
    ("zoom", 2, 250_000.0),
    ("meet", 2, 300_000.0),
)


def _stats(link: Link) -> list[int]:
    stats = link.stats
    return [
        stats.packets_sent,
        stats.packets_dropped,
        stats.packets_lost_random,
        stats.packets_dropped_aqm,
        stats.bytes_sent,
        stats.bytes_dropped,
    ]


def _bins(capture: PacketCapture) -> dict[str, list[int]]:
    return {"|".join(key): list(series._bins) for key, series in sorted(capture._series.items())}


def _two_hop(loss_rate: float) -> dict:
    """Bursty, queue-building traffic over pipe -> link -> router -> lossy link."""
    seed = 11
    sim = Simulator(seed=seed)
    sender = Host(sim, "src")
    receiver = Host(sim, "dst")
    router = Router(sim, "r")
    link_a = Link(sim, "a", rate_bps=400_000.0, delay_s=0.003, queue_bytes=8_000)
    link_b = Link(sim, "b", rate_bps=600_000.0, delay_s=0.007, queue_bytes=6_000, loss_rate=loss_rate)
    sender.set_egress(DelayPipe(sim, link_a.send, 0.002).send)
    link_a.connect(router.receive)
    router.add_link_route("dst", link_b)
    link_b.connect(receiver.receive)
    capture = PacketCapture(sim, bin_width_s=0.5)
    capture.attach(receiver)
    arrivals: list[tuple[float, int]] = []
    receiver.set_default_handler(lambda p: arrivals.append((sim.now, p.seq)))
    flows = ("video", "audio", "fec")
    t = 0.0
    for index, size in enumerate(np.random.default_rng(seed).integers(200, 1400, size=400)):
        if index % 4 == 0:
            t += 0.015
        sim.schedule_at(
            t,
            lambda s=int(size), i=index: sender.send(
                Packet(size_bytes=s, flow_id=flows[i % 3], src="src", dst="dst", seq=i)
            ),
        )
    sim.schedule_at(1.0, lambda: link_a.set_rate(150_000.0))
    sim.schedule_at(2.0, lambda: link_a.set_rate(900_000.0))
    sim.run(until=60.0)
    return {"stats": [_stats(link_a), _stats(link_b)], "arrivals": arrivals, "bins": _bins(capture)}


def _queueing_delays() -> dict:
    sim = Simulator(seed=3)
    link = Link(sim, "l", rate_bps=80_000.0, delay_s=0.004)
    delays: list[float] = []
    link.connect(lambda p: delays.append(p.queueing_delay))
    for seq in range(20):
        sim.schedule_at(0.01 * (seq % 3), lambda s=seq: link.send(
            Packet(size_bytes=500, flow_id="f", src="a", dst="b", seq=s)
        ))
    sim.run(until=10.0)
    return {"stats": [_stats(link)], "delays": delays}


def _rate_steps_mid_queue() -> dict:
    sim = Simulator(seed=5)
    link = Link(sim, "l", rate_bps=1_000_000.0, delay_s=0.002, queue_bytes=50_000)
    arrivals: list[tuple[float, int]] = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    for seq in range(30):
        sim.schedule_at(0.001 * seq, lambda s=seq: link.send(
            Packet(size_bytes=1200, flow_id="f", src="a", dst="b", seq=s)
        ))
    sim.schedule_at(0.012, lambda: link.set_rate(120_000.0))
    sim.schedule_at(0.180, lambda: link.set_rate(2_000_000.0))
    sim.run(until=30.0)
    return {"stats": [_stats(link)], "arrivals": arrivals}


def _single_link(profile: BandwidthProfile | None = None, **link_kwargs) -> dict:
    """Bursty traffic through one link, optionally shaped and impaired."""
    seed = 7
    sim = Simulator(seed=seed)
    link = Link(sim, "l", rate_bps=400_000.0, delay_s=0.004, queue_bytes=12_000, **link_kwargs)
    arrivals: list[tuple[float, int]] = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    if profile is not None:
        LinkShaper(sim, link, profile).apply()
    t = 0.0
    for index, size in enumerate(np.random.default_rng(seed).integers(200, 1400, size=300)):
        if index % 4 == 0:
            t += 0.02
        sim.schedule_at(
            t,
            lambda s=int(size), i=index: link.send(
                Packet(size_bytes=s, flow_id="f", src="a", dst="b", seq=i)
            ),
        )
    sim.run(until=60.0)
    return {"stats": [_stats(link)], "arrivals": arrivals}


def _ge_loss_jitter() -> dict:
    return _single_link(
        loss_model=GilbertElliottLoss.from_mean_loss(0.08, mean_burst_packets=6, seed=21),
        jitter_model=DelayJitter(mean_s=0.003, std_s=0.002, rho=0.8, seed=22),
    )


def _dense_cascade() -> dict:
    rates = np.random.default_rng(13).uniform(1.5e5, 6e5, size=300)
    return _single_link(profile=BandwidthProfile.from_samples(0.05, [float(r) for r in rates]))


def _server_arrivals() -> dict:
    """Single packets and a train from a remote client to the media server."""
    sim = Simulator(seed=5)
    topo = build_access_topology(sim, client_names=("C1", "C2"))
    arrivals: list[tuple[float, int]] = []
    topo.host("S").set_default_handler(lambda p: arrivals.append((sim.now, p.seq)))

    def packet(seq: int) -> Packet:
        return Packet(size_bytes=1000, flow_id="f", src="C2", dst="S", seq=seq)

    def send_all():
        for seq in range(5):
            topo.host("C2").send(packet(seq))
        topo.host("C2").send_batch([packet(10 + i) for i in range(3)])

    sim.schedule_at(0.1, send_all)
    sim.run(until=2.0)
    return {"stats": [_stats(topo.uplink), _stats(topo.downlink)], "arrivals": arrivals}


def _call(vca: str, n_participants: int, shape_up: float | None) -> dict:
    """One call captured at the measured client C1."""
    from repro.vca import Call, CallConfig

    sim = Simulator(seed=CALL_SEED)
    names = tuple(f"C{i + 1}" for i in range(n_participants))
    topo = build_access_topology(sim, client_names=names)
    if shape_up is not None:
        topo.shape(up_profile=BandwidthProfile.constant(shape_up))
    capture = PacketCapture(sim)
    capture.attach(topo.host("C1"))
    call = Call(
        sim,
        [topo.host(name) for name in names],
        topo.host("S"),
        CallConfig(vca=vca, seed=CALL_SEED, collect_stats=False),
    )
    call.start()
    sim.run(until=CALL_DURATION_S)
    call.stop()
    sim.run(until=CALL_DURATION_S + 2.0)
    return {
        "stats": [_stats(topo.uplink), _stats(topo.downlink)],
        "bins": _bins(capture),
        "down_mbps": capture.aggregate("C1", "rx").mean_mbps(10.0, CALL_DURATION_S),
    }


def _call_cell_name(vca: str, n_participants: int, shape_up: float | None) -> str:
    cap = "unshaped" if shape_up is None else f"up{int(shape_up) // 1000}k"
    return f"call/{vca}-{n_participants}p-{cap}"


CELLS = {
    "link/two-hop": lambda: _two_hop(0.0),
    "link/two-hop-loss-0.3": lambda: _two_hop(0.3),
    "link/queueing-delays": _queueing_delays,
    "link/rate-steps-mid-queue": _rate_steps_mid_queue,
    "link/ge-loss-jitter": _ge_loss_jitter,
    "link/dense-cascade": _dense_cascade,
    "topology/server-arrivals": _server_arrivals,
    **{
        _call_cell_name(*cell): (lambda cell=cell: _call(*cell))
        for cell in CALL_CELLS
    },
}


def observe(cell: str) -> dict:
    """LinkStats in clear plus the digest of the cell's full observation."""
    observation = CELLS[cell]()
    text = json.dumps(observation, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stats": observation["stats"],
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fastpath_cell_matches_golden(cell):
    golden = _golden()
    assert (golden["call_seed"], golden["call_duration_s"]) == (CALL_SEED, CALL_DURATION_S)
    assert observe(cell) == golden["cells"][cell]


def test_golden_covers_every_cell():
    assert sorted(_golden()["cells"]) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fastpath_golden.py --record")
    cells = {name: observe(name) for name in sorted(CELLS)}
    payload = {"call_seed": CALL_SEED, "call_duration_s": CALL_DURATION_S, "cells": cells}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(cells)} cells)")
