"""Ablation benchmarks for the design choices called out in DESIGN.md."""

from repro.core.capture import PacketCapture
from repro.core.profiles import disruption_profile
from repro.net.simulator import Simulator
from repro.net.topology import build_access_topology
from repro.vca.call import Call, CallConfig


def _zoom_disruption_peak(probing_enabled: bool) -> float:
    """Average upstream rate in the post-disruption window (overshoot marker)."""
    sim = Simulator(seed=7)
    topo = build_access_topology(sim)
    topo.shape(up_profile=disruption_profile(0.25, drop_at_s=40, duration_s=20))
    capture = PacketCapture(sim)
    capture.attach(topo.host("C1"))
    call = Call(sim, [topo.host("C1"), topo.host("C2")], topo.host("S"),
                CallConfig(vca="zoom", seed=3, collect_stats=False))
    call.start()
    call.client("C1").controller.probing_enabled = probing_enabled
    sim.run(until=150.0)
    call.stop()
    times, mbps = capture.aggregate("C1", "tx").timeseries(0, 150)
    window = [y for x, y in zip(times, mbps) if 75 <= x <= 110]
    return sum(window) / max(len(window), 1)


def test_bench_ablation_zoom_fec_probing():
    """Disabling FEC probing removes Zoom's post-disruption overshoot."""
    with_probing = _zoom_disruption_peak(True)
    without_probing = _zoom_disruption_peak(False)
    print(f"\nZoom post-disruption peak: probing={with_probing:.2f} Mbps, "
          f"no probing={without_probing:.2f} Mbps")
    assert with_probing > without_probing


def test_bench_ablation_packet_event_cost():
    """Cost of packet-level emulation: events processed for one short call."""

    def run_call():
        sim = Simulator(seed=1)
        topo = build_access_topology(sim)
        capture = PacketCapture(sim)
        capture.attach(topo.host("C1"))
        call = Call(sim, [topo.host("C1"), topo.host("C2")], topo.host("S"),
                    CallConfig(vca="meet", seed=1, collect_stats=False))
        call.start()
        sim.run(until=30.0)
        call.stop()
        return sim.events_processed

    events = run_call()
    print(f"\nevents processed for a 30 s two-party Meet call: {events}")
    assert events > 10_000
