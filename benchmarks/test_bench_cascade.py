"""Benchmarks of the cascaded SFU subsystem (composable nodes + trunks).

Two gates, both physics the single-server scenario library cannot express:

* The cascade scenario pack runs end to end through the campaign driver and
  reports per-region freeze ratios and trunk utilisation.
* The once-per-trunk property of the per-hop dispatch plans: a sender's
  packet train crosses a trunk **once** no matter how many receivers sit
  behind it.  A naive design would replicate the train per downstream
  subscriber, so the trunk's carried bytes would scale with the far-region
  population; the gate compares the measured trunk bytes against that naive
  per-subscriber replica estimate.

Results are emitted to ``BENCH_cascade.json`` for the CI artifact.
"""

from __future__ import annotations

from bench_io import record_bench_result
from conftest import BENCH_DURATION_S

from repro.core.capture import PacketCapture
from repro.experiments.cascade import run_cascade_sweep
from repro.net.simulator import Simulator
from repro.net.topology import build_cascade_topology
from repro.results import store_from_env
from repro.vca import Call, CallConfig
from repro.vca.sfu import CascadePlan, CascadeRegion


def test_bench_cascade_pack_smoke():
    """The cascade pack runs end to end and reports per-region metrics."""
    table = run_cascade_sweep(
        duration_s=BENCH_DURATION_S,
        repetitions=1,
        store=store_from_env(),
    )
    print("\n" + table.to_text())
    assert len(table.rows) >= 4
    by_name = {row[0]: dict(zip(table.columns[1:], row[1:])) for row in table.rows}
    for name, metrics in by_name.items():
        assert metrics["median_up_mbps"] > 0.0, name
        assert metrics["trunk_mean_mbps"] > 0.0, name
        assert metrics["cascade_freeze_ratio_R0"] >= 0.0, name
    # The bursty-lossy forward trunk hurts the far region, not region 0.
    lossy = by_name["cascade/lossy-trunk-far-freeze-zoom"]
    assert lossy["cascade_freeze_gap"] > 0.0
    record_bench_result(
        "cascade",
        "cascade_pack",
        duration_s=BENCH_DURATION_S,
        rows=by_name,
    )


def _trunk_fanout_bytes(far_clients: int, duration_s: float):
    """Run a 2-region star cascade and measure the R0->R1 trunk traffic.

    Region 0 holds only the sender of interest (``C1``); ``far_clients``
    receivers sit behind the single trunk.  Returns ``(trunk_bytes,
    per_receiver_bytes)``: the bytes of C1's media actually carried by the
    trunk, and the bytes of C1's stream the far node forwarded to each of
    its local receivers.
    """
    sim = Simulator(seed=7)
    far = tuple(f"C{i + 2}" for i in range(far_clients))
    plan = CascadePlan(
        regions=(
            CascadeRegion(node="R0", clients=("C1",)),
            CascadeRegion(node="R1", clients=far),
        ),
        trunks=(("R0", "R1"),),
    )
    topo = build_cascade_topology(sim, plan)
    capture = PacketCapture(sim)
    capture.attach(topo.host("R1"))
    call = Call(
        sim,
        [topo.host(name) for name in ("C1", *far)],
        topo.host("R0"),
        CallConfig(vca="zoom", seed=7, collect_stats=False),
        cascade=plan,
        cascade_hosts={"R0": topo.host("R0"), "R1": topo.host("R1")},
    )
    call.start()
    sim.run(until=duration_s)
    call.stop()
    sim.run(until=duration_s + 2.0)

    trunk_bytes = 0
    per_receiver = {name: 0 for name in far}
    for (host, direction, flow), series in capture._series.items():
        if direction == "rx" and ":trunk:R0>R1:C1" in flow:
            trunk_bytes += series.total_bytes()
        if direction == "tx" and ":down:C1>" in flow:
            receiver = flow.split(":down:C1>", 1)[1].split(":", 1)[0]
            if receiver in per_receiver:
                per_receiver[receiver] += series.total_bytes()
    return trunk_bytes, per_receiver


def test_bench_trunk_carries_each_train_once():
    """Trunk fan-out is once per trunk, not once per downstream receiver."""
    duration = min(BENCH_DURATION_S, 20.0)
    trunk_bytes, per_receiver = _trunk_fanout_bytes(far_clients=3, duration_s=duration)
    assert trunk_bytes > 0
    assert all(v > 0 for v in per_receiver.values())
    # A naive design replicates C1's train per subscriber on the trunk leg;
    # the cached per-hop plans ship one copy and let the far node fan out
    # locally (regenerating FEC there), so the trunk carries at most about
    # one receiver's worth of C1's stream -- far below the replica estimate.
    naive_replica = sum(per_receiver.values())
    single_copy = max(per_receiver.values())
    print(
        f"\ntrunk C1 bytes={trunk_bytes} single-copy={single_copy} "
        f"naive per-subscriber replica={naive_replica} "
        f"ratio={trunk_bytes / naive_replica:.3f}"
    )
    assert trunk_bytes < 0.6 * naive_replica
    assert trunk_bytes <= 1.35 * single_copy
    record_bench_result(
        "cascade",
        "trunk_once_per_train",
        duration_s=duration,
        far_clients=3,
        trunk_bytes=trunk_bytes,
        naive_replica_bytes=naive_replica,
        single_copy_bytes=single_copy,
    )


def test_bench_trunk_bytes_flat_in_subscriber_count():
    """Adding far-region receivers must not inflate the trunk's carried bytes."""
    duration = min(BENCH_DURATION_S, 20.0)
    one, _ = _trunk_fanout_bytes(far_clients=1, duration_s=duration)
    three, _ = _trunk_fanout_bytes(far_clients=3, duration_s=duration)
    print(f"\ntrunk C1 bytes: 1 far receiver={one} 3 far receivers={three}")
    assert one > 0 and three > 0
    # Per-receiver replication would roughly triple the carried bytes; the
    # union-of-demands can only grow the train by whatever extra layers the
    # larger gallery demands, which is far below another full copy.
    assert three < 1.6 * one
    record_bench_result(
        "cascade",
        "trunk_bytes_vs_subscribers",
        duration_s=duration,
        bytes_one_receiver=one,
        bytes_three_receivers=three,
        ratio=three / one,
    )
