"""Tests for the netem subsystem: impairment policies, AQM, traces,
dense-profile shaping, and the scenario registry.

The load-bearing guarantees:

* an ``IidLoss`` policy is byte-identical to the old ``loss_rate`` float at
  the same seed (the degenerate-case contract),
* a dense (trace-length) schedule applied via chained scheduling delivers
  exactly what eager scheduling delivers, including ``set_rate`` cascades
  with packets mid-queue,
* the scenario registry carries the paper-baseline and beyond-paper packs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.net.shaper
from repro.experiments.scenario import scenario_cache_payload
from repro.media.layout import ViewMode
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shaper import BandwidthProfile, LinkShaper
from repro.net.simulator import Simulator
from repro.netem import impairments
from repro.netem.aqm import CoDelQueue
from repro.netem.impairments import DelayJitter, GilbertElliottLoss, IidLoss
from repro.netem.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    run_scenario_by_name,
)
from repro.netem.traces import MIN_TRACE_RATE_BPS, RateTrace, parse_mahimahi, synthesize


def _stats_tuple(link: Link):
    stats = link.stats
    return (
        stats.packets_sent,
        stats.packets_dropped,
        stats.packets_lost_random,
        stats.packets_dropped_aqm,
        stats.bytes_sent,
        stats.bytes_dropped,
    )


def _drive_link(
    *,
    seed: int = 7,
    rate_bps: float = 400_000.0,
    queue_bytes: int = 12_000,
    n_packets: int = 300,
    profile: BandwidthProfile | None = None,
    **link_kwargs,
):
    """Push a bursty workload through one link; return (arrivals, stats)."""
    sim = Simulator(seed=seed)
    link = Link(
        sim, "l", rate_bps=rate_bps, delay_s=0.004, queue_bytes=queue_bytes, **link_kwargs,
    )
    arrivals: list[tuple[float, int]] = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    if profile is not None:
        LinkShaper(sim, link, profile).apply()
    rng = np.random.default_rng(seed)
    sizes = rng.integers(200, 1400, size=n_packets)
    t = 0.0
    for index, size in enumerate(sizes):
        if index % 4 == 0:
            t += 0.02
        sim.schedule_at(
            t,
            lambda s=int(size), i=index: link.send(
                Packet(size_bytes=s, flow_id="f", src="a", dst="b", seq=i)
            ),
        )
    sim.run(until=60.0)
    return arrivals, _stats_tuple(link)


class TestImpairmentModels:
    def test_iid_loss_validates_rate(self):
        with pytest.raises(ValueError):
            IidLoss(1.0)
        with pytest.raises(ValueError):
            IidLoss(-0.1)

    def test_gilbert_elliott_validates_probabilities(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5, p_bad_to_good=0.1)
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.1, loss_bad=2.0)

    def test_from_mean_loss_hits_stationary_rate(self):
        model = GilbertElliottLoss.from_mean_loss(0.05, mean_burst_packets=10, seed=1)
        assert model.expected_loss_rate == pytest.approx(0.05, rel=1e-6)
        draws = sum(model.sample(None) for _ in range(200_000))
        assert draws / 200_000 == pytest.approx(0.05, abs=0.01)

    def test_gilbert_elliott_losses_are_bursty(self):
        """At equal mean loss, GE loss runs are much longer than i.i.d. runs."""
        def mean_run_length(samples: list[bool]) -> float:
            runs, current = [], 0
            for lost in samples:
                if lost:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return float(np.mean(runs)) if runs else 0.0

        ge = GilbertElliottLoss.from_mean_loss(0.05, mean_burst_packets=12, seed=3)
        rng = np.random.default_rng(3)
        iid = IidLoss(0.05)
        ge_runs = mean_run_length([ge.sample(None) for _ in range(100_000)])
        iid_runs = mean_run_length([iid.sample(rng) for _ in range(100_000)])
        assert ge_runs > 4.0 * iid_runs

    def test_seeded_models_reproduce_and_reset(self):
        model = GilbertElliottLoss.from_mean_loss(0.1, seed=9)
        first = [model.sample(None) for _ in range(500)]
        model.reset()
        assert [model.sample(None) for _ in range(500)] == first
        jitter = DelayJitter(mean_s=0.01, std_s=0.005, rho=0.9, seed=9)
        first_j = [jitter.sample(None) for _ in range(500)]
        jitter.reset()
        assert [jitter.sample(None) for _ in range(500)] == first_j

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
    def test_jitter_ar1_matches_per_sample_formula(self, rho):
        """The precomputed innovation scale gives the old per-sample formula bit for bit."""
        jitter = DelayJitter(mean_s=0.004, std_s=0.0031, rho=rho, seed=13)
        rng = np.random.default_rng(13)
        value = jitter.mean_s
        for _ in range(2_000):
            noise = rng.standard_normal()
            value = (
                jitter.mean_s
                + jitter.rho * (value - jitter.mean_s)
                + jitter.std_s * float(np.sqrt(1.0 - jitter.rho**2)) * noise
            )
            assert jitter.sample(None) == max(value, 0.0)

    def test_jitter_is_nonnegative_and_validates(self):
        jitter = DelayJitter(mean_s=0.001, std_s=0.01, rho=0.5, seed=4)
        assert all(jitter.sample(None) >= 0.0 for _ in range(2_000))
        with pytest.raises(ValueError):
            DelayJitter(mean_s=-0.01, std_s=0.001)
        with pytest.raises(ValueError):
            DelayJitter(mean_s=0.01, std_s=0.001, rho=1.0)


def _ge_reference(model: GilbertElliottLoss, rng: np.random.Generator, count: int) -> list[bool]:
    """The Gilbert-Elliott chain drawn one scalar at a time (loss, then transition)."""
    bad = False
    out = []
    for _ in range(count):
        loss_draw = rng.random()
        transition_draw = rng.random()
        out.append(loss_draw < (model.loss_bad if bad else model.loss_good))
        if bad:
            bad = not transition_draw < model.p_bad_to_good
        else:
            bad = transition_draw < model.p_good_to_bad
    return out


def _jitter_reference(model: DelayJitter, rng: np.random.Generator, count: int) -> list[float]:
    """The jitter process drawn one ``standard_normal()`` scalar at a time."""
    value = model.mean_s
    out = []
    for _ in range(count):
        noise = rng.standard_normal()
        if model.rho > 0.0:
            value = model.mean_s + model.rho * (value - model.mean_s) + model._innovation_std * noise
            out.append(max(value, 0.0))
        else:
            out.append(max(model.mean_s + model.std_s * noise, 0.0))
    return out


class TestBlockDraws:
    """A seeded policy reads its private stream in blocks, bit for bit the scalar stream."""

    #: Samples per check: more than two refills of the buffer for both
    #: policies (a Gilbert-Elliott packet takes two values).
    COUNT = 3 * impairments._BLOCK + 17

    @staticmethod
    def _policies(seed):
        return [
            # Both states lossy, fast transitions: every draw moves the output.
            (GilbertElliottLoss(0.3, 0.4, loss_good=0.2, loss_bad=0.7, seed=seed), _ge_reference),
            (GilbertElliottLoss.from_mean_loss(0.05, mean_burst_packets=6, seed=seed), _ge_reference),
            (DelayJitter(mean_s=0.004, std_s=0.003, rho=0.0, seed=seed), _jitter_reference),
            (DelayJitter(mean_s=0.004, std_s=0.003, rho=0.8, seed=seed), _jitter_reference),
        ]

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_seeded_block_draws_equal_scalar_draws(self, seed):
        for policy, reference in self._policies(seed):
            expected = reference(policy, np.random.default_rng(seed), self.COUNT)
            assert [policy.sample(None) for _ in range(self.COUNT)] == expected
            # Reset mid-block: the buffered values must not leak past it.
            for _ in range(101):
                policy.sample(None)
            policy.reset()
            assert [policy.sample(None) for _ in range(self.COUNT)] == expected

    def test_unseeded_policy_draws_one_scalar_per_value(self):
        twin_draws = {GilbertElliottLoss: ("random", "random"), DelayJitter: ("standard_normal",)}
        for policy, reference in self._policies(None):
            rng = np.random.default_rng(11)
            twin = np.random.default_rng(11)
            expected = reference(policy, np.random.default_rng(11), 600)
            got = []
            for _ in range(600):
                got.append(policy.sample(rng))
                for method in twin_draws[type(policy)]:
                    getattr(twin, method)()
                assert rng.bit_generator.state == twin.bit_generator.state
            assert got == expected


class TestLinkImpairments:
    def test_iid_policy_byte_identical_to_loss_rate_float(self):
        """The degenerate-case contract of the satellite task."""
        float_arrivals, float_stats = _drive_link(loss_rate=0.3)
        policy_arrivals, policy_stats = _drive_link(loss_model=IidLoss(0.3))
        assert policy_arrivals == float_arrivals
        assert policy_stats == float_stats
        # And the unwrap really happened: no policy object remains.
        sim = Simulator()
        link = Link(sim, "l", 1e6, loss_model=IidLoss(0.25))
        assert link.loss_model is None
        assert link.loss_rate == 0.25

    def test_loss_model_and_loss_rate_are_exclusive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, loss_rate=0.1,
                 loss_model=GilbertElliottLoss.from_mean_loss(0.1, seed=0))

    def test_gilbert_elliott_on_link_drops_packets(self):
        arrivals, stats = _drive_link(
            loss_model=GilbertElliottLoss.from_mean_loss(0.2, mean_burst_packets=8, seed=5)
        )
        sent, lost = stats[0], stats[2]
        assert lost > 0
        assert len(arrivals) == sent - lost

    def test_jitter_never_reorders(self):
        jittered, _ = _drive_link(
            jitter_model=DelayJitter(mean_s=0.01, std_s=0.02, rho=0.0, seed=6)
        )
        clean, _ = _drive_link()
        times = [t for t, _ in jittered]
        assert times == sorted(times)
        assert [seq for _, seq in jittered] == [seq for _, seq in clean]
        # Jitter only ever adds delay.
        clean_times = {seq: t for t, seq in clean}
        assert all(t >= clean_times[seq] - 1e-12 for t, seq in jittered)

    def test_codel_drops_are_counted_and_reported(self):
        drops: list[int] = []
        sim = Simulator(seed=1)
        link = Link(sim, "l", rate_bps=200_000.0, queue_bytes=64_000, aqm=CoDelQueue())
        link.connect(lambda p: None)
        link.on_drop = lambda p: drops.append(p.seq)
        for seq in range(400):
            sim.schedule_at(seq * 0.005, lambda s=seq: link.send(
                Packet(size_bytes=1200, flow_id="f", src="a", dst="b", seq=s)
            ))
        sim.run(until=30.0)
        stats = link.stats
        assert stats.packets_dropped_aqm > 0
        assert stats.packets_dropped >= stats.packets_dropped_aqm
        assert len(drops) == stats.packets_dropped
        assert stats.tx_loss_rate > 0.0


class TestCoDelControlLaw:
    def test_below_target_never_drops(self):
        codel = CoDelQueue(target_s=0.005, interval_s=0.1)
        assert not any(codel.should_drop(t * 0.01, 0.004) for t in range(100))

    def test_sustained_excess_starts_dropping_after_interval(self):
        codel = CoDelQueue(target_s=0.005, interval_s=0.1)
        decisions = [codel.should_drop(t * 0.01, 0.02) for t in range(200)]
        # Nothing within the first interval, drops afterwards.
        assert not any(decisions[:10])
        assert any(decisions[10:])
        # Drop frequency increases with the count (interval / sqrt(count)).
        first_half = sum(decisions[:100])
        second_half = sum(decisions[100:])
        assert second_half > first_half

    def test_recovery_resets_state(self):
        codel = CoDelQueue(target_s=0.005, interval_s=0.1)
        for t in range(50):
            codel.should_drop(t * 0.01, 0.02)
        assert codel.dropping
        assert not codel.should_drop(0.51, 0.001)
        assert not codel.dropping

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CoDelQueue(target_s=0.0)


class TestTraces:
    def test_parse_mahimahi_counts_opportunities(self):
        # 5 opportunities in [0, 200) ms, 1 in [200, 400) ms.
        lines = ["0", "10", "50", "# comment", "", "100", "150", "300"]
        trace = parse_mahimahi(lines, bin_s=0.2)
        assert trace.rates_bps[0] == pytest.approx(5 * 1500 * 8 / 0.2)
        assert trace.rates_bps[1] == pytest.approx(1 * 1500 * 8 / 0.2)

    def test_parse_mahimahi_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_mahimahi([])
        with pytest.raises(ValueError):
            parse_mahimahi(["-5"])

    def test_load_mahimahi_parses_each_file_once(self, tmp_path, monkeypatch):
        import os

        import repro.netem.traces as traces

        parsed = []

        def counting_parse(lines, bin_s=0.2):
            parsed.append(bin_s)
            return parse_mahimahi(lines, bin_s=bin_s)

        monkeypatch.setattr(traces, "parse_mahimahi", counting_parse)
        path = tmp_path / "link.pps"
        path.write_text("0\n10\n300\n")
        first = traces.load_mahimahi(path)
        assert traces.load_mahimahi(str(path)) is first
        assert len(parsed) == 1
        assert traces.load_mahimahi(path, bin_s=0.1) is not first
        assert len(parsed) == 2
        # A rewrite with a different size is parsed again.
        path.write_text("0\n10\n300\n450\n")
        rewritten = traces.load_mahimahi(path)
        assert len(parsed) == 3
        assert rewritten.rates_bps != first.rates_bps
        # So is a same-size rewrite that only moves the modification time.
        stat = path.stat()
        path.write_text("0\n10\n300\n460\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert traces.load_mahimahi(path) is not rewritten
        assert len(parsed) == 4

    def test_empty_bins_become_near_outages(self):
        trace = parse_mahimahi(["0", "900"], bin_s=0.2)
        assert trace.rates_bps[1] == MIN_TRACE_RATE_BPS  # silent middle bin

    def test_to_profile_loops_and_coalesces(self):
        trace = RateTrace(bin_s=1.0, rates_bps=(1e6, 1e6, 2e6))
        profile = trace.to_profile(duration_s=6.0)
        # Coalesced: [0, 2) @ 1M, [2, 3) @ 2M, looped: [3, 5) @ 1M, [5, 6) @ 2M.
        assert profile.initial_bps == 1e6
        assert profile.steps == ((2.0, 2e6), (3.0, 1e6), (5.0, 2e6))
        assert profile.rate_at(4.5) == 1e6

    def test_scaled_to_mean(self):
        trace = RateTrace(bin_s=0.5, rates_bps=(1e6, 3e6))
        scaled = trace.scaled_to_mean(4e6)
        assert scaled.mean_bps == pytest.approx(4e6)

    def test_synthetic_generators_are_seeded_and_sane(self):
        for kind in ("lte", "wifi", "dsl", "leo"):
            a = synthesize(kind, seed=42, duration_s=60.0, mean_mbps=5.0)
            b = synthesize(kind, seed=42, duration_s=60.0, mean_mbps=5.0)
            c = synthesize(kind, seed=43, duration_s=60.0, mean_mbps=5.0)
            assert a.rates_bps == b.rates_bps, kind
            assert a.rates_bps != c.rates_bps, kind
            assert all(rate > 0.0 for rate in a.rates_bps), kind
            # Long-run mean lands in the right ballpark.
            assert 0.3 * 5e6 < a.mean_bps < 3.0 * 5e6, kind

    def test_synthesize_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            synthesize("carrier-pigeon", seed=0, duration_s=10.0)


class TestDenseProfiles:
    def test_from_samples_coalesces_equal_bins(self):
        profile = BandwidthProfile.from_samples(0.5, [1e6, 1e6, 2e6, 2e6, 1e6])
        assert profile.initial_bps == 1e6
        assert profile.steps == ((1.0, 2e6), (2.0, 1e6))

    def test_from_samples_validates(self):
        with pytest.raises(ValueError):
            BandwidthProfile.from_samples(0.0, [1e6])
        with pytest.raises(ValueError):
            BandwidthProfile.from_samples(0.5, [])
        with pytest.raises(ValueError):
            BandwidthProfile.from_samples(0.5, [1e6, -2.0])

    def test_rate_at_bisect_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        starts = np.cumsum(rng.uniform(0.1, 2.0, size=200))
        steps = tuple((float(s), float(rng.uniform(1e5, 1e7))) for s in starts)
        profile = BandwidthProfile(initial_bps=5e6, steps=steps)
        for when in np.concatenate([rng.uniform(0, float(starts[-1]) + 5, 300), starts[:10]]):
            expected = 5e6
            for start, rate in steps:
                if when >= start:
                    expected = rate
                else:
                    break
            assert profile.rate_at(float(when)) == expected

    def test_dense_chained_equals_eager_with_packets_mid_queue(self, monkeypatch):
        """Chained scheduling + set_rate cascades on a loaded link."""
        rng = np.random.default_rng(11)
        rates = rng.uniform(1.5e5, 6e5, size=500)
        profile = BandwidthProfile.from_samples(0.05, [float(r) for r in rates])
        assert len(profile.steps) > repro.net.shaper.DENSE_STEP_THRESHOLD
        chained = _drive_link(profile=profile)
        monkeypatch.setattr(repro.net.shaper, "DENSE_STEP_THRESHOLD", 10**9)
        eager = _drive_link(profile=profile)
        assert chained == eager

    def test_chained_mode_keeps_heap_small(self):
        sim = Simulator()
        link = Link(sim, "l", 1e6)
        profile = BandwidthProfile.from_samples(0.1, [float(1e6 + i) for i in range(5_000)])
        LinkShaper(sim, link, profile).apply()  # chained above the threshold
        assert sim.pending_events < 10

    def test_auto_mode_stays_eager_for_sparse_profiles(self):
        sim = Simulator()
        link = Link(sim, "l", 1e6)
        profile = BandwidthProfile.disruption(0.5e6)
        LinkShaper(sim, link, profile).apply()
        assert sim.pending_events == len(profile.steps)


class TestScenarioRegistry:
    def test_packs_are_registered(self):
        beyond = list_scenarios(tag="beyond-paper")
        assert len(beyond) >= 8
        assert len(list_scenarios(tag="paper-baseline")) >= 4
        assert len(list_scenarios()) == len(SCENARIOS)

    def test_get_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_register_duplicate_raises(self):
        existing = next(iter(SCENARIOS.values()))
        with pytest.raises(ValueError):
            register_scenario(existing)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="x", direction="sideways")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="x", participants=1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="x", duration_s=0.0)

    def test_unknown_view_mode_rejected(self):
        # A typo used to run a gallery call silently.
        with pytest.raises(ValueError, match="view_mode"):
            ScenarioSpec(name="x", description="x", view_mode="speakr")
        with pytest.raises(ValueError, match="view_mode"):
            ScenarioSpec(
                name="x", description="x", workload=("vca", {"app": "zoom", "view_mode": "grid"})
            )
        spec = ScenarioSpec(name="x", description="x", view_mode=ViewMode.SPEAKER)
        assert spec.view_mode == "speaker"

    def test_pinned_needs_speaker_mode_and_a_participant(self):
        with pytest.raises(ValueError, match="speaker"):
            ScenarioSpec(name="x", description="x", pinned="C1")
        with pytest.raises(ValueError, match="C1..C3"):
            ScenarioSpec(
                name="x", description="x", participants=3, view_mode="speaker", pinned="C4"
            )
        spec = ScenarioSpec(
            name="x", description="x", participants=3, view_mode="speaker", pinned="C3"
        )
        assert scenario_cache_payload(spec)["spec"]["pinned"] == "C3"
        unpinned = ScenarioSpec(name="x", description="x", participants=3, view_mode="speaker")
        assert "pinned" not in scenario_cache_payload(unpinned)["spec"]

    def test_run_scenario_by_name_returns_metrics(self):
        metrics = run_scenario_by_name("paper/static-0.5up-zoom", seed=0, duration_s=8.0)
        for key in (
            "median_up_mbps", "median_down_mbps", "freeze_ratio",
            "mean_received_fps", "rate_switches", "tx_loss_rate",
            "mean_queue_delay_s", "p95_queue_delay_s",
        ):
            assert key in metrics
        assert metrics["median_up_mbps"] > 0.0

    def test_impaired_scenario_records_losses(self):
        run = run_scenario(get_scenario("iid-downlink-zoom"), seed=0, duration_s=8.0)
        metrics = run.metrics()
        assert metrics["random_losses"] > 0
        assert metrics["tx_loss_rate"] > 0.0

    def test_scenario_runs_are_seed_deterministic(self):
        a = run_scenario_by_name("lte-uplink-zoom", seed=5, duration_s=8.0)
        b = run_scenario_by_name("lte-uplink-zoom", seed=5, duration_s=8.0)
        assert a == b


class TestScenarioSweepDriver:
    def test_sweep_tabulates_selected_scenarios(self):
        from repro.experiments.scenario import run_scenario_sweep

        table = run_scenario_sweep(
            scenarios=["paper/static-0.5up-zoom", "iid-loss-zoom"],
            duration_s=8.0,
            repetitions=1,
        )
        assert len(table.rows) == 2
        assert table.columns[0] == "scenario"
        names = {row[0] for row in table.rows}
        assert names == {"paper/static-0.5up-zoom", "iid-loss-zoom"}

    def test_sweep_rejects_empty_selection(self):
        from repro.experiments.scenario import run_scenario_sweep

        with pytest.raises(ValueError):
            run_scenario_sweep(tag="no-such-tag")

    def test_registry_exposes_scenario_sweep(self):
        from repro.experiments.scenario import run_scenario_sweep
        from repro.experiments.registry import get_experiment

        spec = get_experiment("scenario_sweep")
        assert spec.driver is run_scenario_sweep


class TestReviewRegressions:
    """Regression coverage for the pre-commit review findings."""

    def test_codel_count_decays_after_idle_period(self):
        codel = CoDelQueue(target_s=0.005, interval_s=0.1)
        for t in range(300):
            codel.should_drop(t * 0.01, 0.02)
        assert codel.drop_count > 10
        # Below target, then a long quiet period.
        codel.should_drop(3.0, 0.001)
        # Re-excursion after 1000 s: the first interval arms, then dropping
        # restarts at count 1 (not the historical count).
        assert not codel.should_drop(1003.0, 0.02)
        assert codel.should_drop(1003.2, 0.02)
        assert codel.drop_count == 1

    def test_configure_impairments_switches_between_models(self):
        sim = Simulator()
        link = Link(sim, "l", 1e6, loss_model=IidLoss(0.03))
        assert link.loss_rate == 0.03
        ge = GilbertElliottLoss.from_mean_loss(0.03, mean_burst_packets=8, seed=1)
        link.configure_impairments(loss_model=ge)
        assert link.loss_model is ge
        assert link.loss_rate == 0.0
        link.configure_impairments(loss_model=IidLoss(0.1))
        assert link.loss_model is None
        assert link.loss_rate == 0.1
        # Explicit None clears; unset arguments keep the current policy.
        jitter = DelayJitter(mean_s=0.01, std_s=0.001, seed=2)
        link.configure_impairments(jitter_model=jitter)
        assert link.loss_rate == 0.1  # untouched by the jitter-only call
        assert link.jitter_model is jitter
        link.configure_impairments(loss_model=None)
        assert link.loss_rate == 0.0
        assert link.jitter_model is jitter  # still installed
        link.configure_impairments(jitter_model=None)
        assert link.jitter_model is None

    def test_from_mean_loss_rejects_unreachable_mean(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss.from_mean_loss(0.6, mean_burst_packets=1.2)
        # Feasible combinations still hit the requested mean exactly.
        model = GilbertElliottLoss.from_mean_loss(0.45, mean_burst_packets=10)
        assert model.expected_loss_rate == pytest.approx(0.45)

    def test_both_direction_metrics_aggregate_all_shaped_links(self):
        spec = ScenarioSpec(
            name="test/both-iid",
            description="both directions impaired",
            vca="zoom",
            direction="both",
            profile=("constant", {"mbps": 2.0}),
            loss=("iid", {"rate": 0.05}),
        )
        run = run_scenario(spec, seed=0, duration_s=8.0)
        metrics = run.metrics()
        per_link = [link.stats for link in (run.topology.uplink, run.topology.downlink)]
        assert all(stats.packets_lost_random > 0 for stats in per_link)
        assert metrics["random_losses"] == sum(s.packets_lost_random for s in per_link)

    def test_core_profiles_helpers(self, tmp_path):
        from repro.core.profiles import synthetic_profile, trace_profile

        profile = synthetic_profile("lte", seed=3, duration_s=30.0, mean_mbps=4.0)
        assert len(profile.steps) > 10
        assert profile.rate_at(15.0) > 0.0
        trace_file = tmp_path / "trace"
        trace_file.write_text("\n".join(str(t) for t in range(0, 1000, 10)))
        profile = trace_profile(trace_file, duration_s=5.0)
        assert profile.rate_at(0.1) == pytest.approx(20 * 1500 * 8 / 0.2)
