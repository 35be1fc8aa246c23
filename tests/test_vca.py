"""Tests for the VCA application models: profiles, clients, server, calls."""

from __future__ import annotations

import struct
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.capture import PacketCapture
from repro.core.profiles import static_profile
from repro.media.layout import ViewMode
from repro.net.shaper import BandwidthProfile
from repro.net.simulator import Simulator
from repro.net.topology import build_access_topology
from repro.vca import PROFILE_FACTORIES, Call, CallConfig, get_profile, register_profile
from repro.vca.base import downlink_flow, uplink_flow


class TestProfiles:
    def test_registry_contains_all_five_clients(self):
        assert set(PROFILE_FACTORIES) == {"zoom", "meet", "teams", "teams-chrome", "zoom-chrome"}

    def test_get_profile_case_insensitive(self):
        assert get_profile("Zoom").name == "zoom"

    def test_get_profile_unknown_raises(self):
        with pytest.raises(ValueError):
            get_profile("skype")

    def test_register_custom_profile(self):
        register_profile("custom-test", lambda seed=0: get_profile("zoom", seed))
        try:
            assert get_profile("custom-test").name == "zoom"
        finally:
            PROFILE_FACTORIES.pop("custom-test", None)

    def test_architectures_match_paper(self):
        assert get_profile("zoom").architecture == "svc_relay"
        assert get_profile("meet").architecture == "sfu_simulcast"
        assert get_profile("teams").architecture == "plain_relay"

    def test_zoom_server_adds_fec_meet_does_not(self):
        assert get_profile("zoom").server_fec_ratio > 0
        assert get_profile("meet").server_fec_ratio == 0

    def test_teams_ignores_layout_caps(self):
        assert get_profile("teams").honors_layout_caps is False
        assert get_profile("zoom").honors_layout_caps is True

    def test_teams_nominal_varies_with_seed_within_bounds(self):
        nominals = {get_profile("teams", seed=s).nominal_video_bps for s in range(8)}
        assert len(nominals) > 1
        assert all(1_200_000 <= n <= 1_950_000 for n in nominals)

    def test_zoom_chrome_has_no_webrtc_stats(self):
        assert get_profile("zoom-chrome").stats_available is False
        assert get_profile("meet").stats_available is True

    def test_teams_chrome_has_stall_quirk(self):
        profile = get_profile("teams-chrome")
        assert profile.stall_interval_s is not None
        assert profile.platform == "chrome"

    def test_display_names(self):
        assert get_profile("teams-chrome").display_name() == "Teams-Chrome"
        assert get_profile("meet").display_name() == "Meet"

    def test_flow_id_helpers(self):
        assert uplink_flow("C1", "call") == "call:up:C1"
        assert downlink_flow("C2", "C1", "call") == "call:down:C2>C1"


def run_call(vca, up=None, down=None, duration=50.0, seed=3, n=2, mode=ViewMode.GALLERY, pinned=None,
             collect_stats=True):
    """Helper: run an n-party call and return (sim, topo, capture, call)."""
    names = [f"C{i}" for i in range(1, n + 1)]
    sim = Simulator(seed=seed)
    topo = build_access_topology(sim, client_names=names)
    topo.shape(
        up_profile=up or BandwidthProfile.unconstrained(),
        down_profile=down or BandwidthProfile.unconstrained(),
    )
    capture = PacketCapture(sim)
    capture.attach(topo.host("C1"))
    call = Call(
        sim,
        [topo.host(name) for name in names],
        topo.host("S"),
        CallConfig(vca=vca, seed=seed, view_mode=mode, pinned=pinned, collect_stats=collect_stats),
    )
    call.start()
    sim.run(until=duration)
    call.stop()
    sim.run(until=duration + 2)
    return sim, topo, capture, call


class TestTwoPartyCalls:
    def test_meet_unconstrained_utilization_matches_table2(self):
        _, _, capture, _ = run_call("meet", duration=60)
        up = capture.aggregate("C1", "tx").mean_mbps(15, 60)
        down = capture.aggregate("C1", "rx").mean_mbps(15, 60)
        assert 0.8 <= up <= 1.1
        assert 0.7 <= down <= 1.0

    def test_zoom_downstream_exceeds_upstream_due_to_relay_fec(self):
        _, _, capture, _ = run_call("zoom", duration=60)
        up = capture.aggregate("C1", "tx").mean_mbps(15, 60)
        down = capture.aggregate("C1", "rx").mean_mbps(15, 60)
        assert down > up
        assert 0.7 <= up <= 1.0

    def test_teams_uses_the_most_bandwidth(self):
        rates = {}
        for vca in ("meet", "zoom", "teams"):
            _, _, capture, _ = run_call(vca, duration=50)
            rates[vca] = capture.aggregate("C1", "tx").mean_mbps(15, 50)
        assert rates["teams"] > rates["meet"]
        assert rates["teams"] > rates["zoom"]

    def test_uplink_shaping_reduces_send_rate(self):
        _, _, capture, _ = run_call("meet", up=static_profile(0.5), duration=60)
        up = capture.aggregate("C1", "tx").median_mbps(20, 60)
        assert 0.3 <= up <= 0.55

    def test_meet_downlink_floor_at_low_capacity(self):
        _, _, capture, _ = run_call("meet", down=static_profile(0.5), duration=60)
        down = capture.aggregate("C1", "rx").median_mbps(20, 60)
        assert down < 0.3  # stuck on the low simulcast copy (paper: ~0.19)

    def test_webrtc_stats_collected_for_meet(self):
        _, _, _, call = run_call("meet", duration=40)
        stats = call.client("C1").stats
        assert stats is not None
        assert len(stats.samples) > 20
        assert stats.mean("sent_width", 10, 40) > 0

    def test_zoom_chrome_has_no_stats_collector(self):
        _, _, _, call = run_call("zoom-chrome", duration=30)
        assert call.client("C1").stats is None

    def test_severe_downlink_increases_freeze_ratio(self):
        _, _, _, constrained = run_call("meet", down=static_profile(0.3), duration=60, seed=5)
        _, _, _, unconstrained = run_call("meet", duration=60, seed=5)

        def ratio(call):
            client = call.client("C1")
            total = sum(
                r.freeze_tracker.total_freeze_s
                for r in client.receivers.values()
                if r.freeze_tracker
            )
            return total / 60.0

        assert ratio(constrained) > ratio(unconstrained)

    def test_teams_chrome_low_uplink_triggers_firs(self):
        _, _, _, call = run_call("teams-chrome", up=static_profile(0.3), duration=60, seed=4)
        remote_receiver = call.client("C2").receivers["C1"]
        assert remote_receiver.fir_sent >= 1

    def test_server_rewrites_sequence_numbers(self):
        _, _, _, call = run_call("meet", duration=30)
        receiver = call.client("C1").receivers["C2"]
        # Selective forwarding must not be misread as loss on an
        # unconstrained link.
        report = receiver.make_report(now=30.0)
        assert report.loss_fraction < 0.05

    def test_call_stop_halts_traffic(self):
        sim, _, capture, call = run_call("zoom", duration=40)
        total_at_stop = capture.aggregate("C1", "tx").total_bytes(0, 41)
        sim.run(until=50)
        assert capture.aggregate("C1", "tx").total_bytes(0, 50) <= total_at_stop * 1.01

    def test_call_requires_two_participants(self):
        sim = Simulator()
        topo = build_access_topology(sim)
        with pytest.raises(ValueError):
            Call(sim, [topo.host("C1")], topo.host("S"), CallConfig())


class TestMultiParty:
    def test_zoom_uplink_drops_at_five_participants(self):
        _, _, cap4, _ = run_call("zoom", n=4, duration=45, seed=7)
        _, _, cap5, _ = run_call("zoom", n=5, duration=45, seed=7)
        up4 = cap4.aggregate("C1", "tx").mean_mbps(15, 45)
        up5 = cap5.aggregate("C1", "tx").mean_mbps(15, 45)
        assert up5 < 0.75 * up4

    def test_teams_uplink_flat_across_roster_sizes(self):
        _, _, cap3, _ = run_call("teams", n=3, duration=45, seed=7)
        _, _, cap7, _ = run_call("teams", n=7, duration=45, seed=7)
        up3 = cap3.aggregate("C1", "tx").mean_mbps(15, 45)
        up7 = cap7.aggregate("C1", "tx").mean_mbps(15, 45)
        assert up7 == pytest.approx(up3, rel=0.35)

    def test_meet_downlink_grows_with_participants(self):
        _, _, cap2, _ = run_call("meet", n=2, duration=45, seed=9)
        _, _, cap5, _ = run_call("meet", n=5, duration=45, seed=9)
        down2 = cap2.aggregate("C1", "rx").mean_mbps(15, 45)
        down5 = cap5.aggregate("C1", "rx").mean_mbps(15, 45)
        assert down5 > down2

    def test_speaker_mode_raises_teams_uplink(self):
        _, _, gallery, _ = run_call("teams", n=6, duration=45, seed=11)
        _, _, speaker, _ = run_call(
            "teams", n=6, duration=45, seed=11, mode=ViewMode.SPEAKER, pinned="C1"
        )
        up_gallery = gallery.aggregate("C1", "tx").mean_mbps(15, 45)
        up_speaker = speaker.aggregate("C1", "tx").mean_mbps(15, 45)
        assert up_speaker > up_gallery

    def test_speaker_mode_zoom_pinned_client_sends_high_rate(self):
        _, _, capture, _ = run_call(
            "zoom", n=6, duration=45, seed=11, mode=ViewMode.SPEAKER, pinned="C1"
        )
        up = capture.aggregate("C1", "tx").mean_mbps(15, 45)
        assert up > 0.6


class TestServerBehaviour:
    def test_server_forwards_media_and_clears_roster_on_bye(self):
        _, _, _, call = run_call("meet", n=3, duration=20)
        assert call.server.bytes_forwarded > 0
        # Every participant sent a BYE when the call stopped.
        assert call.server.participants == {}

    def test_teams_server_is_plain_relay(self):
        _, _, _, call = run_call("teams", duration=20)
        assert call.server.profile.server_adapts is False
        assert call.server.bytes_forwarded > 0
        assert call.server.probe_bytes_sent == 0

    def test_zoom_server_adds_fec_bytes(self):
        _, _, _, call = run_call("zoom", duration=30)
        assert call.server.fec_bytes_added > 0

    def test_meet_server_adds_no_fec(self):
        _, _, _, call = run_call("meet", duration=30)
        assert call.server.fec_bytes_added == 0


def make_report(now, rate=500_000.0, loss=0.0, queueing=0.0, expected=100, received=None):
    from repro.cc.base import FeedbackReport

    if received is None:
        received = round(expected * (1.0 - loss))
    return FeedbackReport(
        timestamp=now,
        interval_s=0.25,
        receive_rate_bps=rate,
        loss_fraction=loss,
        queueing_delay_s=queueing,
        packets_expected=expected,
        packets_received=received,
    )


def _aggregate_reports_by_generators(reports):
    """The max/sum generator form that the single-pass aggregate replaced."""
    from repro.cc.base import FeedbackReport

    reports = list(reports)
    if not reports:
        return None
    return FeedbackReport(
        timestamp=max(r.timestamp for r in reports),
        interval_s=max(r.interval_s for r in reports),
        receive_rate_bps=sum(r.receive_rate_bps for r in reports),
        loss_fraction=max(r.loss_fraction for r in reports),
        queueing_delay_s=max(r.queueing_delay_s for r in reports),
        delay_gradient_s=max(r.delay_gradient_s for r in reports),
        rtt_s=max(r.rtt_s for r in reports),
        packets_expected=sum(r.packets_expected for r in reports),
        packets_received=sum(r.packets_received for r in reports),
    )


#: Few distinct values (so maxima tie, ``-0.0`` next to ``0.0``) mixed with
#: arbitrary finite floats; packet counts are integers.
_tie_prone = st.sampled_from([-0.0, 0.0, 0.25, 1.0]) | st.floats(
    allow_nan=False, allow_infinity=False, width=64
)
_report_fields = st.tuples(
    _tie_prone, _tie_prone, _tie_prone, _tie_prone, _tie_prone, _tie_prone, _tie_prone,
    st.integers(0, 10_000), st.integers(0, 10_000),
)


class TestServerDownlinkEstimator:
    """Unit coverage of the per-receiver estimator and its feed-in paths."""

    def make_server(self, vca="meet"):
        from repro.net.node import Host
        from repro.vca.server import MediaServer

        sim = Simulator(seed=7)
        host = Host(sim, "S")
        host.set_egress(lambda packet: None)
        server = MediaServer(sim, host, get_profile(vca))
        return sim, server

    def test_aggregate_reports_mixed_loss_across_receivers(self):
        from repro.vca.server import MediaServer

        _, server = self.make_server()
        state = server.add_participant("C1")
        # C1 receives two forwarded streams with very different conditions:
        # the aggregate must reflect the total delivered rate but the *worst*
        # loss and delay (one congested tile is enough to require backoff).
        state.last_reports["C2"] = make_report(10.0, rate=400_000, loss=0.08, queueing=0.02)
        state.last_reports["C3"] = make_report(10.2, rate=150_000, loss=0.0, queueing=0.11)
        aggregate = MediaServer._aggregate_reports(state)
        assert aggregate is not None
        assert aggregate.receive_rate_bps == pytest.approx(550_000)
        assert aggregate.loss_fraction == pytest.approx(0.08)
        assert aggregate.queueing_delay_s == pytest.approx(0.11)
        assert aggregate.timestamp == pytest.approx(10.2)
        assert aggregate.packets_expected == 200
        assert aggregate.packets_received == 92 + 100

    def test_aggregate_reports_empty_returns_none(self):
        from repro.vca.server import MediaServer

        _, server = self.make_server()
        state = server.add_participant("C1")
        assert MediaServer._aggregate_reports(state) is None

    def test_aggregate_reports_takes_first_of_tied_maxima(self):
        from repro.cc.base import FeedbackReport
        from repro.vca.sfu.state import aggregate_reports

        reports = [
            FeedbackReport(1.0, 0.25, -0.0, -0.0, 0.0, delay_gradient_s=-0.0),
            FeedbackReport(1.0, 0.25, 0.0, 0.0, -0.0, delay_gradient_s=0.0),
        ]
        aggregate = aggregate_reports(iter(reports))
        assert str(aggregate.loss_fraction) == "-0.0"
        assert str(aggregate.delay_gradient_s) == "-0.0"
        assert str(aggregate.queueing_delay_s) == "0.0"
        assert str(aggregate_reports(reports[:1]).receive_rate_bps) == "0.0"

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="sum() of floats is compensated from CPython 3.12 on; the pinned interpreter is 3.11",
    )
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_report_fields, max_size=8))
    def test_aggregate_reports_single_pass_matches_max_sum(self, fields):
        from repro.cc.base import FeedbackReport
        from repro.vca.sfu.state import aggregate_reports

        reports = [FeedbackReport(*values) for values in fields]
        got = aggregate_reports(reports)
        want = _aggregate_reports_by_generators(reports)
        if want is None:
            assert got is None
            return
        for name in FeedbackReport.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            if isinstance(b, float):
                assert struct.pack("<d", a) == struct.pack("<d", b), (name, a, b)
            else:
                assert a == b, name

    def test_dispatch_plans_rebuilt_only_when_a_decision_changes(self):
        _, server = self.make_server("zoom")
        for name in ("C1", "C2", "C3"):
            server.add_participant(name)
        sender = server.participants["C1"]
        server._update_forwarding_decisions()
        plan = server._video_plan(sender, "base")
        server._update_forwarding_decisions()
        assert server._video_plan(sender, "base") is plan
        server._decide_forwarding = lambda sender_state, receiver_state: ({"base"}, 0.5)
        server._update_forwarding_decisions()
        rebuilt = server._video_plan(sender, "base")
        assert rebuilt is not plan
        assert [keep for _receiver, keep, _flow, _seq in rebuilt] == [0.5, 0.5]

    def test_estimator_recovers_out_of_dead_zone(self):
        """The 2-10 % loss band must not pin the downlink estimate forever.

        This is the relay-side half of the fig10 bug: the estimate ratcheted
        down during a transient and loss between the thresholds then froze
        it, so the server never tried anything above the base layer again.
        """
        _, server = self.make_server("meet")
        state = server.add_participant("C1")
        estimator = state.downlink_estimator
        t = 0.0
        for _ in range(30):
            t += 0.25
            estimator.on_feedback(make_report(t, rate=150_000, loss=0.5, queueing=0.0), t)
        collapsed = estimator.loss_estimate_bps
        for _ in range(240):
            t += 0.25
            estimator.on_feedback(make_report(t, rate=150_000, loss=0.05, queueing=0.0), t)
        assert estimator.loss_estimate_bps > collapsed * 1.2

    def test_zoom_relay_estimate_floored_for_competition(self):
        """Loss alone never thins a two-party Zoom downlink below base+mid."""
        from repro.calibrate.constants import active_constants

        _, server = self.make_server("zoom")
        state = server.add_participant("F1")
        estimator = state.downlink_estimator
        t = 0.0
        for _ in range(200):
            t += 0.25
            estimator.on_feedback(make_report(t, rate=120_000, loss=0.6, queueing=0.4), t)
        assert estimator.loss_estimate_bps >= active_constants().zoom_relay_min_bitrate_bps

    def test_probe_escapes_low_rate_fixed_point(self):
        """A server stuck on a low copy probes for downlink headroom.

        The probing is what lets the estimator discover recovered capacity
        while the forwarded rate (and therefore the receive rate feeding the
        estimate) is application-limited by the cheap copy.
        """
        from repro.vca.server import _LayerMeter

        sim, server = self.make_server("meet")
        sender = server.add_participant("C1")
        server.add_participant("C2")
        # C1 uplinks both simulcast copies; C2 is stuck on the low one.
        sender.layer_meters["low"] = _LayerMeter(rate_bps=130_000.0)
        sender.layer_meters["high"] = _LayerMeter(rate_bps=800_000.0)
        sender.forwarding["C2"] = ({"low"}, 1.0)
        sim.run(until=0.1)
        server._maybe_probe_downlinks()
        assert server.probe_bytes_sent > 0

    def test_no_probes_when_top_copy_already_forwarded(self):
        from repro.vca.server import _LayerMeter

        sim, server = self.make_server("meet")
        sender = server.add_participant("C1")
        server.add_participant("C2")
        sender.layer_meters["low"] = _LayerMeter(rate_bps=130_000.0)
        sender.layer_meters["high"] = _LayerMeter(rate_bps=800_000.0)
        sender.forwarding["C2"] = ({"high"}, 0.8)
        sim.run(until=0.1)
        server._maybe_probe_downlinks()
        assert server.probe_bytes_sent == 0

    def test_probe_feedback_raises_estimate_from_fixed_point(self):
        """Probe-driven receive-rate headroom lets the estimate climb again.

        End of the loop the probing closes: the receiver reports the extra
        delivered rate, the receive-rate cap stops binding at the starved
        level, and the delay estimate grows past the low copy's rate.
        """
        _, server = self.make_server("meet")
        state = server.add_participant("C2")
        estimator = state.downlink_estimator
        t = 0.0
        # Application-limited on a 130 kbps copy: the estimate cannot climb
        # past the receive-rate cap floor.
        for _ in range(40):
            t += 0.25
            estimator.on_feedback(make_report(t, rate=130_000, loss=0.0), t)
        stuck = estimator.available_bandwidth_estimate()
        # Probes double the delivered rate for a few windows.
        for _ in range(40):
            t += 0.25
            estimator.on_feedback(make_report(t, rate=300_000, loss=0.0), t)
        assert estimator.available_bandwidth_estimate() > stuck * 1.5
