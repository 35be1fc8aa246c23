"""Tests for the measurement harness (repro.core)."""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core.analysis import aggregate_runs, confidence_interval, summarize_series
from repro.core.campaign import Condition, ConditionResult
from repro.core.capture import FlowSeries, PacketCapture
from repro.core.metrics import (
    jains_fairness,
    link_share,
    median_bitrate_mbps,
    rolling_median,
    time_to_recovery,
    utilization,
)
from repro.core.orchestrator import CallOrchestrator
from repro.core.profiles import (
    COMPETITION_CAPACITIES_MBPS,
    DISRUPTION_LEVELS_MBPS,
    PARTICIPANT_COUNTS,
    STATIC_SHAPING_LEVELS_MBPS,
    disruption_profile,
    static_profile,
)
from repro.core.results import FigureSeries, TableResult, format_figure, format_table
from repro.core.webrtc_stats import WebRTCStatsCollector
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator


class TestMetrics:
    def test_median_bitrate_over_window(self):
        times = np.arange(0, 10, 1.0)
        mbps = np.array([1.0] * 5 + [3.0] * 5)
        assert median_bitrate_mbps(times, mbps, 5, 10) == 3.0
        assert median_bitrate_mbps(times, mbps, 0, 5) == 1.0

    def test_median_bitrate_empty_window(self):
        assert median_bitrate_mbps(np.array([]), np.array([]), 0, 10) == 0.0

    def test_utilization(self):
        assert utilization(0.85, 1.0) == pytest.approx(0.85)
        assert utilization(1.0, 0.0) == 0.0

    def test_rolling_median(self):
        values = np.array([1, 1, 10, 1, 1], dtype=float)
        rolled = rolling_median(values, window=3)
        assert rolled[2] == 1.0  # median of [1, 1, 10]
        assert rolled[0] == 1.0

    def test_time_to_recovery_simple_trace(self):
        times = np.arange(0, 200, 1.0)
        mbps = np.where(times < 60, 1.0, np.where(times < 90, 0.2, np.where(times < 120, 0.5, 1.0)))
        ttr = time_to_recovery(times, mbps, disruption_start=60, disruption_end=90)
        assert 25 <= ttr <= 40

    def test_time_to_recovery_immediate(self):
        times = np.arange(0, 200, 1.0)
        mbps = np.where((times >= 60) & (times < 90), 0.2, 1.0)
        ttr = time_to_recovery(times, mbps, disruption_start=60, disruption_end=90)
        assert ttr <= 6

    def test_time_to_recovery_never_recovers(self):
        times = np.arange(0, 200, 1.0)
        mbps = np.where(times < 60, 1.0, 0.1)
        ttr = time_to_recovery(times, mbps, disruption_start=60, disruption_end=90, max_ttr_s=110)
        assert ttr == 110

    def test_link_share(self):
        assert link_share(np.array([3.0]), np.array([1.0])) == pytest.approx(0.75)
        assert link_share(np.array([0.0]), np.array([0.0])) == 0.0

    def test_jains_fairness_extremes(self):
        assert jains_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jains_fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    def test_property_jains_fairness_bounds(self, rates):
        value = jains_fairness(rates)
        assert 0.0 <= value <= 1.0 + 1e-9


class TestAnalysis:
    def test_confidence_interval_contains_median(self):
        low, high = confidence_interval([1, 2, 3, 4, 5])
        assert low <= 3 <= high

    def test_aggregate_runs_summary(self):
        summary = aggregate_runs([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.median == 2.0
        assert summary.n == 3
        assert summary.ci_low <= summary.median <= summary.ci_high

    def test_aggregate_runs_empty(self):
        assert aggregate_runs([]).n == 0

    @pytest.mark.parametrize("n", range(21))
    def test_condition_mean_is_bit_identical_to_aggregate_runs(self, n):
        """``ConditionResult.mean`` is ``aggregate_runs(...).mean`` to the bit."""
        rng = random.Random(f"condition-mean:{n}")
        condition = Condition(name="c", fn=len)
        trials = []
        for _ in range(40):
            runs = []
            for _ in range(n):
                draw = rng.random()
                if draw < 0.05:
                    value = math.nan
                elif draw < 0.15:
                    value = -0.0
                elif draw < 0.25:
                    value = rng.randint(0, 50)
                elif draw < 0.30:
                    value = rng.choice((math.inf, -math.inf))
                elif draw < 0.38:
                    # Two of these overflow the running sum to +-inf.
                    value = rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.7e308)
                elif draw < 0.46:
                    # Subnormals: below 2.2e-308, down to the 5e-324 minimum.
                    value = rng.choice((-1.0, 1.0)) * 5e-324 * rng.randint(1, 2**52 - 1)
                else:
                    value = rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)
                runs.append({"m": value} if rng.random() < 0.9 else {"other": 1.0})
            trials.append(runs)
        trials.append([{"m": -0.0}] * n)  # numpy's sum starts at +0.0
        trials.append([{"m": 1.7e308}] * n)  # overflows from the second value
        trials.append([{"m": 5e-324}] * n)  # the smallest subnormal
        for runs in trials:
            result = ConditionResult(condition=condition, runs=runs)
            with np.errstate(over="ignore", invalid="ignore"):
                got = result.mean("m")
                want = aggregate_runs(result.metric_values("m")).mean
            assert (math.isnan(got) and math.isnan(want)) or (
                struct.pack("<d", got) == struct.pack("<d", want)
            ), (runs, got, want)

    def test_summarize_series_averages_on_grid(self):
        a = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        b = (np.array([0.0, 1.0, 2.0]), np.array([3.0, 3.0, 3.0]))
        grid, mean = summarize_series([a, b])
        assert mean[1] == pytest.approx(2.0)

    def test_summarize_series_empty(self):
        grid, mean = summarize_series([])
        assert grid.size == 0


class TestCaptureAndStats:
    def test_capture_bins_by_flow_and_direction(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.set_egress(lambda p: None)
        capture = PacketCapture(sim, bin_width_s=1.0)
        capture.attach(host)
        host.send(Packet(125_000, "a", "h", "x"))
        sim.run(until=1.5)
        host.send(Packet(125_000, "a", "h", "x"))
        host.receive(Packet(250_000, "b", "x", "h"))
        times, mbps = capture.flow("h", "tx", "a").timeseries()
        assert mbps[0] == pytest.approx(1.0)  # 125 kB in 1 s = 1 Mbps
        assert capture.flow("h", "rx", "b").total_bytes() == 250_000

    def test_capture_aggregate_by_prefix(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.set_egress(lambda p: None)
        capture = PacketCapture(sim)
        capture.attach(host)
        host.send(Packet(1000, "call:up:C1", "h", "x"))
        host.send(Packet(2000, "call:up:C1:rtcp", "h", "x"))
        host.send(Packet(4000, "other", "h", "x"))
        combined = capture.aggregate("h", "tx", flow_prefix="call:")
        assert combined.total_bytes() == 3000

    def test_flow_series_median_and_mean(self):
        series = FlowSeries("f", "tx", 1.0)
        series.add(0.5, 125_000)
        series.add(1.5, 250_000)
        series.add(2.5, 125_000)
        assert series.median_mbps(0, 3) == pytest.approx(1.0)
        assert series.mean_mbps(0, 3) == pytest.approx(500_000 * 8 / 3 / 1e6)

    def test_webrtc_stats_collector_samples_per_second(self):
        sim = Simulator()
        counter = {"v": 0}

        def provider():
            counter["v"] += 1
            return {"value": float(counter["v"])}

        collector = WebRTCStatsCollector(sim, provider)
        collector.start()
        sim.run(until=5.5)
        collector.stop()
        sim.run(until=10.0)
        assert len(collector.samples) == 5
        times, values = collector.series("value")
        assert list(values) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert collector.mean("value", 0, 10) == 3.0
        assert collector.median("value") == 3.0
        assert collector.last("value") == 5.0


class TestProfilesAndResults:
    def test_paper_parameter_grids(self):
        assert 0.3 in STATIC_SHAPING_LEVELS_MBPS and 10.0 in STATIC_SHAPING_LEVELS_MBPS
        assert DISRUPTION_LEVELS_MBPS == (0.25, 0.5, 0.75, 1.0)
        assert COMPETITION_CAPACITIES_MBPS[0] == 0.5
        assert PARTICIPANT_COUNTS == (2, 3, 4, 5, 6, 7, 8)

    def test_profile_helpers(self):
        assert static_profile(1.0).rate_at(100) == 1e6
        profile = disruption_profile(0.25)
        assert profile.rate_at(70) == 0.25e6

    def test_table_result_rejects_wrong_arity(self):
        table = TableResult("t", "title", ("a", "b"))
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_text_rendering(self):
        table = TableResult("t", "My table", ("vca", "mbps"))
        table.add_row("zoom", 0.781)
        text = table.to_text()
        assert "My table" in text and "zoom" in text and "0.781" in text

    def test_figure_series_and_rendering(self):
        series = FigureSeries("fig", "zoom", "x", "y")
        series.add_point(1, 2, 1.5, 2.5)
        series.add_point(2, 3)
        assert series.as_rows()[0] == (1.0, 2.0, 1.5, 2.5)
        text = format_figure("fig", {"zoom": series})
        assert "fig" in text and "zoom" in text

    def test_format_table_alignment(self):
        text = format_table("t", ("col",), [("a",), ("longer",)])
        lines = text.splitlines()
        assert len(lines) == 5


class TestOrchestratorAndRunner:
    def test_orchestrator_executes_in_order(self):
        sim = Simulator()
        orchestrator = CallOrchestrator(sim)
        order = []
        orchestrator.at(2.0, "second", lambda: order.append("b"))
        orchestrator.at(1.0, "first", lambda: order.append("a"))
        sim.run(until=3.0)
        assert order == ["a", "b"]
        assert all("done" in line for line in orchestrator.log)

    def test_run_call_and_competitor_helpers(self):
        sim = Simulator()
        orchestrator = CallOrchestrator(sim)

        class FakeApp:
            def __init__(self):
                self.events = []

            def start(self):
                self.events.append(("start", sim.now))

            def stop(self):
                self.events.append(("stop", sim.now))

        call, app = FakeApp(), FakeApp()
        orchestrator.run_call(call, start=1.0, duration=5.0)
        orchestrator.run_competitor(app, start=2.0, duration=2.0)
        sim.run(until=10.0)
        assert call.events == [("start", 1.0), ("stop", 6.0)]
        assert app.events == [("start", 2.0), ("stop", 4.0)]
