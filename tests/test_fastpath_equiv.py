"""Equivalence tests for the engine fast path and the parallel campaign.

The link's analytic single-event schedule must agree with the FIFO
queueing model it evaluates, its random-loss accounting must balance, a
one-region cascade must be byte-identical to the classic call, and a
parallel or multi-host campaign run -- of a paper driver too -- must merge
to exactly the same results as a serial one.  The default packet path's seeded outputs are pinned by
``tests/test_fastpath_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import Condition, run_campaign
from repro.core.capture import PacketCapture
from repro.experiments.competition import run_vca_vs_tcp
from repro.experiments.disruption import run_ttr_sweep
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.router import DelayPipe, Router
from repro.net.simulator import Simulator
from repro.results import ResultStore


def _stats_tuple(link: Link):
    stats = link.stats
    return (
        stats.packets_sent,
        stats.packets_dropped,
        stats.packets_lost_random,
        stats.bytes_sent,
        stats.bytes_dropped,
    )


def _run_link_scenario(*, seed: int = 11, loss_rate: float = 0.0):
    """Push a bursty, queue-building workload through a 2-link path.

    Returns (delivery timestamps, per-link stats, capture bins).
    """
    sim = Simulator(seed=seed)
    sender = Host(sim, "src")
    receiver = Host(sim, "dst")
    router = Router(sim, "r")
    # Low rate + small queue forces both queueing delay and drop-tail drops.
    link_a = Link(sim, "a", rate_bps=400_000.0, delay_s=0.003, queue_bytes=8_000)
    link_b = Link(
        sim, "b", rate_bps=600_000.0, delay_s=0.007, queue_bytes=6_000, loss_rate=loss_rate,
    )
    sender.set_egress(DelayPipe(sim, link_a.send, 0.002).send)
    link_a.connect(router.receive)
    router.add_link_route("dst", link_b)
    link_b.connect(receiver.receive)
    capture = PacketCapture(sim, bin_width_s=0.5)
    capture.attach(receiver)
    arrivals: list[tuple[float, int]] = []
    receiver.set_default_handler(lambda p: arrivals.append((sim.now, p.seq)))

    rng = np.random.default_rng(seed)
    sizes = rng.integers(200, 1400, size=400)
    flows = ("video", "audio", "fec")
    t = 0.0
    for index, size in enumerate(sizes):
        # Bursts of 4 packets every ~15 ms: enough to build and drain queues.
        if index % 4 == 0:
            t += 0.015
        sim.schedule_at(
            t,
            lambda s=int(size), i=index: sender.send(
                Packet(size_bytes=s, flow_id=flows[i % 3], src="src", dst="dst", seq=i)
            ),
        )
    # Rate changes mid-run exercise the fast path's cascade recomputation.
    sim.schedule_at(1.0, lambda: link_a.set_rate(150_000.0))
    sim.schedule_at(2.0, lambda: link_a.set_rate(900_000.0))
    sim.run(until=60.0)

    bins = {
        key: list(series._bins)
        for key, series in capture._series.items()
    }
    return arrivals, (_stats_tuple(link_a), _stats_tuple(link_b)), bins


class TestLinkFastPathEquivalence:
    def test_queueing_delay_accumulates_identically(self):
        """Per-packet queueing delay equals the FIFO model the link evaluates."""
        rate_bps = 80_000.0
        size = 500
        sim = Simulator(seed=3)
        link = Link(sim, "l", rate_bps=rate_bps, delay_s=0.004)
        delays: list[float] = []
        link.connect(lambda p: delays.append(p.queueing_delay))
        arrivals = sorted(0.01 * (seq % 3) for seq in range(20))
        for when in arrivals:
            sim.schedule_at(when, lambda: link.send(
                Packet(size_bytes=size, flow_id="f", src="a", dst="b")
            ))
        sim.run(until=10.0)

        expected: list[float] = []
        done = 0.0
        for when in arrivals:
            start = max(when, done)
            expected.append(start - when)
            done = start + size * 8 / rate_bps
        assert delays == pytest.approx(expected, abs=1e-12)
        assert delays[-1] > 0.5  # a real backlog built up

    def test_random_loss_statistics_match(self):
        """Every packet offered to the lossy hop is delivered or counted lost."""
        arrivals, (_, stats_b), _ = _run_link_scenario(loss_rate=0.3)
        sent, _dropped, lost = stats_b[0], stats_b[1], stats_b[2]
        assert sent > 0 and lost > 0
        assert len(arrivals) == sent - lost


class TestCampaignEquivalence:
    def test_serial_and_parallel_merge_identically(self):
        conditions = [
            Condition(
                name=f"scenario-{scale}",
                fn=_campaign_metric,
                params={"scale": scale},
                repetitions=3,
                seed=40 + scale,
            )
            for scale in (1, 2, 3)
        ]
        serial = run_campaign(conditions, workers=None)
        parallel = run_campaign(conditions, workers=2)
        assert len(serial) == len(parallel) == 3
        for s_result, p_result in zip(serial, parallel):
            assert s_result.condition.name == p_result.condition.name
            assert s_result.runs == p_result.runs  # per-repetition, in order
            for metric in ("delivered", "dropped", "mbps"):
                assert s_result.metric_values(metric) == p_result.metric_values(metric)

    def test_per_repetition_seeds_are_deterministic(self):
        condition = Condition(name="c", fn=_campaign_metric, params={"scale": 1},
                              repetitions=4, seed=9)
        assert [condition.seed_for(i) for i in range(4)] == [9, 10, 11, 12]

    @pytest.mark.parametrize(
        "driver, kwargs",
        [
            (run_ttr_sweep, dict(
                direction="up", vcas=("meet", "zoom"), levels_mbps=(0.25,), duration_s=20.0,
                drop_at_s=8.0, drop_duration_s=5.0, repetitions=1, seed=5,
            )),
            (run_vca_vs_tcp, dict(
                capacity_mbps=2.0, vcas=("zoom", "teams"), competitor_duration_s=15.0,
                repetitions=1, seed=5,
            )),
        ],
        ids=["fig4b", "fig12"],
    )
    def test_paper_driver_pool_and_hosts_match_serial(self, driver, kwargs, tmp_path):
        serial = driver(**kwargs)
        assert driver(**kwargs, workers=2) == serial
        assert driver(**kwargs, hosts=2, store=ResultStore(tmp_path)) == serial

    def test_workers_auto_resolves(self):
        condition = Condition(name="c", fn=_campaign_metric, params={"scale": 1},
                              repetitions=1, seed=1)
        result = run_campaign([condition], workers="auto")
        assert result[0].runs[0]["delivered"] > 0


def _campaign_metric(scale: int, seed: int = 0) -> dict[str, float]:
    """Module-level (picklable) work unit: a small seeded link simulation."""
    sim = Simulator(seed=seed)
    link = Link(sim, "l", rate_bps=200_000.0 * scale, delay_s=0.002,
                queue_bytes=5_000, loss_rate=0.05)
    capture_bytes = [0]
    delivered = [0]

    def on_packet(packet: Packet) -> None:
        delivered[0] += 1
        capture_bytes[0] += packet.size_bytes

    link.connect(on_packet)
    rng = np.random.default_rng(seed)
    for index, size in enumerate(rng.integers(300, 1300, size=200)):
        sim.schedule_at(0.005 * index, lambda s=int(size), i=index: link.send(
            Packet(size_bytes=s, flow_id="f", src="a", dst="b", seq=i,
                   kind=PacketKind.TCP_DATA)
        ))
    sim.run(until=30.0)
    duration = 0.005 * 200
    return {
        "delivered": float(delivered[0]),
        "dropped": float(link.stats.packets_dropped),
        "mbps": capture_bytes[0] * 8 / duration / 1e6,
    }


def _run_call(vca, n_participants, seed=21, duration=30.0, shape_up=None):
    """A classic single-server call captured at the measured client C1."""
    from repro.net.shaper import BandwidthProfile
    from repro.net.topology import build_access_topology
    from repro.vca import Call, CallConfig

    sim = Simulator(seed=seed)
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
        CallConfig(vca=vca, seed=seed, collect_stats=False),
    )
    call.start()
    sim.run(until=duration)
    call.stop()
    sim.run(until=duration + 2.0)
    bins = {key: list(series._bins) for key, series in capture._series.items()}
    return _stats_tuple(topo.uplink), _stats_tuple(topo.downlink), bins


class TestCascadeSingleNodeEquivalence:
    """A one-region cascade must be byte-identical to the classic call.

    The SFU refactor (``MediaServer`` -> composable ``SfuNode``) gates every
    cascade extension on the control plane being present; with a single
    region there are no trunks, so the cascaded ``Call`` on
    :func:`build_cascade_topology` must reproduce the classic single-server
    call on :func:`build_access_topology` exactly -- same LinkStats
    counters, same per-flow capture bins at the measured client, for the
    whole equivalence matrix.
    """

    @staticmethod
    def _run_cascade_call(vca, n_participants, seed=21, duration=30.0, shape_up=None):
        from repro.net.shaper import BandwidthProfile
        from repro.net.topology import build_cascade_topology
        from repro.vca import Call, CallConfig
        from repro.vca.sfu import CascadePlan, CascadeRegion

        sim = Simulator(seed=seed)
        names = tuple(f"C{i + 1}" for i in range(n_participants))
        plan = CascadePlan(
            regions=(CascadeRegion(node="R0", clients=names),), trunks=()
        )
        topo = build_cascade_topology(sim, plan)
        if shape_up is not None:
            topo.shape(up_profile=BandwidthProfile.constant(shape_up))
        capture = PacketCapture(sim)
        capture.attach(topo.host("C1"))
        call = Call(
            sim,
            [topo.host(name) for name in names],
            topo.host("R0"),
            CallConfig(vca=vca, seed=seed, collect_stats=False),
            cascade=plan,
            cascade_hosts={"R0": topo.host("R0")},
        )
        call.start()
        sim.run(until=duration)
        call.stop()
        sim.run(until=duration + 2.0)
        bins = {key: list(series._bins) for key, series in capture._series.items()}
        return _stats_tuple(topo.uplink), _stats_tuple(topo.downlink), bins

    @pytest.mark.parametrize(
        ("vca", "n_participants", "shape_up"),
        [
            ("meet", 2, 1_000_000.0),
            ("meet", 5, None),
            ("zoom", 2, 1_000_000.0),
            ("teams-chrome", 2, 1_000_000.0),
            # Constrained regimes where layer shedding and sub-30 fps
            # scheduling would expose any cascade-path divergence.
            ("zoom", 2, 250_000.0),
            ("meet", 2, 300_000.0),
        ],
    )
    def test_single_node_cascade_byte_identical(self, vca, n_participants, shape_up):
        classic = _run_call(vca, n_participants, shape_up=shape_up)
        cascaded = self._run_cascade_call(vca, n_participants, shape_up=shape_up)
        assert classic[0] == cascaded[0]  # uplink LinkStats
        assert classic[1] == cascaded[1]  # downlink LinkStats
        assert set(classic[2]) == set(cascaded[2])
        for key in classic[2]:
            assert classic[2][key] == cascaded[2][key], key
