"""Tests for the media pipeline: codec, source, encoders, layouts, quality."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.media.codec import RESOLUTION_LADDER, CodecModel, Resolution
from repro.media.encoder import (
    AdaptiveEncoder,
    EncoderSettings,
    MeetEncoderPolicy,
    TeamsChromeEncoderPolicy,
    TeamsNativeEncoderPolicy,
    ZoomEncoderPolicy,
)
from repro.media.layout import ViewMode, grid_dimensions, layout_for, tile_video_area
from repro.media.quality import FreezeTracker
from repro.media.simulcast import SimulcastEncoder
from repro.media.source import TalkingHeadSource
from repro.media.svc import DEFAULT_ZOOM_LAYERS, SVCEncoder


class TestCodecModel:
    def setup_method(self):
        self.codec = CodecModel()

    def test_higher_qp_means_lower_bitrate(self):
        r = Resolution(1280, 720)
        assert self.codec.bitrate_bps(r, 30, 25) < self.codec.bitrate_bps(r, 30, 20)

    def test_more_pixels_means_higher_bitrate(self):
        assert self.codec.bitrate_bps(Resolution(1280, 720), 30, 25) > self.codec.bitrate_bps(
            Resolution(640, 360), 30, 25
        )

    def test_higher_fps_means_higher_bitrate(self):
        r = Resolution(640, 360)
        assert self.codec.bitrate_bps(r, 30, 25) > self.codec.bitrate_bps(r, 15, 25)

    def test_qp_halving_step(self):
        r = Resolution(1280, 720)
        high = self.codec.bitrate_bps(r, 30, 20)
        low = self.codec.bitrate_bps(r, 30, 26)
        assert high / low == pytest.approx(2.0, rel=0.01)

    def test_qp_for_bitrate_round_trip(self):
        r = Resolution(640, 360)
        qp = self.codec.qp_for_bitrate(r, 30, 500_000)
        assert self.codec.bitrate_bps(r, 30, qp) == pytest.approx(500_000, rel=0.01)

    def test_qp_clamped_to_encoder_range(self):
        r = Resolution(320, 180)
        assert self.codec.qp_for_bitrate(r, 30, 10) == self.codec.max_qp
        assert self.codec.qp_for_bitrate(Resolution(1280, 720), 30, 1e9) == self.codec.min_qp

    def test_keyframe_larger_than_delta_frame(self):
        r = Resolution(1280, 720)
        key = self.codec.frame_bytes(r, 30, 25, keyframe=True)
        delta = self.codec.frame_bytes(r, 30, 25, keyframe=False)
        assert key > 2 * delta

    def test_zero_fps_gives_zero_bitrate(self):
        assert self.codec.bitrate_bps(Resolution(640, 360), 0, 25) == 0.0

    def test_ladder_is_sorted_descending(self):
        widths = [r.width for r in RESOLUTION_LADDER]
        assert widths == sorted(widths, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RESOLUTION_LADDER),
        st.floats(min_value=5.0, max_value=30.0),
        st.floats(min_value=50_000, max_value=3_000_000),
    )
    def test_property_achievable_bitrate_is_finite_positive(self, resolution, fps, target):
        codec = CodecModel()
        achieved = codec.achievable_bitrate(resolution, fps, target)
        assert achieved > 0
        qp = codec.qp_for_bitrate(resolution, fps, target)
        assert codec.min_qp <= qp <= codec.max_qp


class TestTalkingHeadSource:
    def test_complexity_near_one(self):
        source = TalkingHeadSource(seed=1)
        values = [source.complexity(t / 30) for t in range(300)]
        assert 0.6 < sum(values) / len(values) < 1.4

    def test_deterministic_for_seed(self):
        a = TalkingHeadSource(seed=5)
        b = TalkingHeadSource(seed=5)
        assert [a.complexity(t / 30) for t in range(50)] == [b.complexity(t / 30) for t in range(50)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_complexity_bounded(self, seed):
        source = TalkingHeadSource(seed=seed)
        for t in range(120):
            assert 0.5 <= source.complexity(t / 30.0) <= 2.0


class TestEncoderPolicies:
    def setup_method(self):
        self.codec = CodecModel()

    def test_meet_keeps_resolution_and_raises_qp_first(self):
        policy = MeetEncoderPolicy()
        high = policy.select(800_000, self.codec)
        mid = policy.select(500_000, self.codec)
        assert high.resolution == mid.resolution
        assert mid.qp > high.qp
        assert mid.fps == high.fps

    def test_meet_falls_back_to_low_resolution_with_fewer_fps(self):
        policy = MeetEncoderPolicy()
        low = policy.select(150_000, self.codec)
        assert low.width == 320
        assert low.fps < 30

    def test_teams_native_keeps_fps_constant(self):
        policy = TeamsNativeEncoderPolicy()
        settings_list = [policy.select(rate, self.codec) for rate in (1_500_000, 900_000, 500_000, 300_000)]
        assert all(s.fps == 30.0 for s in settings_list)
        widths = [s.width for s in settings_list]
        assert widths == sorted(widths, reverse=True)

    def test_teams_chrome_degrades_all_three(self):
        policy = TeamsChromeEncoderPolicy(buggy_low_rate_width=False)
        high = policy.select(1_050_000, self.codec)
        low = policy.select(500_000, self.codec)
        assert low.width < high.width
        assert low.fps < high.fps
        assert low.qp > high.qp

    def test_teams_chrome_width_bug_at_low_rate(self):
        policy = TeamsChromeEncoderPolicy(buggy_low_rate_width=True)
        buggy = policy.select(300_000, self.codec)
        assert buggy.width == 1280  # the paper's surprising width increase
        healthy = TeamsChromeEncoderPolicy(buggy_low_rate_width=False).select(300_000, self.codec)
        assert healthy.width < 1280

    def test_zoom_policy_tracks_target_with_resolution_ladder(self):
        policy = ZoomEncoderPolicy()
        assert policy.select(700_000, self.codec).width == 1280
        assert policy.select(300_000, self.codec).width == 640
        assert policy.select(120_000, self.codec).width == 320

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=50_000, max_value=2_000_000))
    def test_property_policies_return_valid_settings(self, target):
        codec = CodecModel()
        for policy in (
            MeetEncoderPolicy(),
            TeamsNativeEncoderPolicy(),
            TeamsChromeEncoderPolicy(),
            ZoomEncoderPolicy(),
        ):
            s = policy.select(target, codec)
            assert s.width >= 320 and s.fps >= 5 and codec.min_qp <= s.qp <= codec.max_qp


class TestAdaptiveEncoder:
    def test_first_frame_is_keyframe(self):
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy())
        frame = encoder.encode_frame(0.0)
        assert frame.keyframe

    def test_fir_requests_keyframe(self):
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy())
        encoder.encode_frame(0.0)
        assert not encoder.encode_frame(0.033).keyframe
        encoder.request_keyframe()
        assert encoder.encode_frame(0.066).keyframe

    def test_periodic_keyframes(self):
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy(), keyframe_interval_s=1.0)
        keyframes = 0
        t = 0.0
        for _ in range(90):
            t += 1 / 30
            if encoder.encode_frame(t).keyframe:
                keyframes += 1
        assert keyframes >= 2

    def test_realized_bitrate_tracks_target(self):
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy())
        encoder.set_target_bitrate(600_000)
        total_bytes = 0
        t = 0.0
        # Poll on a 30 Hz grid for 10 seconds, like the media sender does.
        for _ in range(300):
            t += 1 / 30
            for frame in encoder.frames_due(t):
                if not frame.keyframe:
                    total_bytes += frame.size_bytes
        realized = total_bytes * 8 / 10.0
        assert realized == pytest.approx(600_000, rel=0.35)

    def test_frames_due_respects_fps(self):
        encoder = AdaptiveEncoder(CodecModel(), MeetEncoderPolicy())
        encoder.set_target_bitrate(150_000)  # low target -> reduced frame rate
        frames = 0
        t = 0.0
        for _ in range(300):
            t += 1 / 30
            frames += len(encoder.frames_due(t))
        assert frames < 300 * 0.8


class TestSimulcastEncoder:
    def test_full_budget_enables_both_copies(self):
        enc = SimulcastEncoder(CodecModel())
        enc.set_target_bitrate(900_000)
        layers = enc.active_layers()
        assert set(layers) == {"low", "high"}

    def test_tight_budget_prefers_primary_copy(self):
        enc = SimulcastEncoder(CodecModel())
        enc.set_target_bitrate(400_000)
        layers = enc.active_layers()
        assert "high" in layers and "low" not in layers

    def test_severe_budget_keeps_only_thumbnail(self):
        enc = SimulcastEncoder(CodecModel())
        enc.set_target_bitrate(150_000)
        layers = enc.active_layers()
        assert set(layers) == {"low"}

    def test_layer_cap_limits_top_copy(self):
        enc = SimulcastEncoder(CodecModel())
        enc.set_layer_cap("high", 400_000)
        enc.set_target_bitrate(900_000)
        assert enc.active_layers()["high"] <= 400_000

    def test_frames_emitted_for_active_layers_only(self):
        enc = SimulcastEncoder(CodecModel())
        enc.set_target_bitrate(150_000)
        t, layers_seen = 0.0, set()
        for _ in range(60):
            t += 1 / 30
            for frame in enc.frames_due(t):
                layers_seen.add(frame.layer)
        assert layers_seen == {"low"}

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=60_000, max_value=1_200_000))
    def test_property_allocation_never_exceeds_budget_much(self, target):
        enc = SimulcastEncoder(CodecModel())
        enc.set_target_bitrate(target)
        total = sum(enc.active_layers().values())
        # Only the "thumbnail floor" may exceed a very small budget.
        assert total <= max(target, 60_000) * 1.05 + 1


class TestSVCEncoder:
    def test_full_budget_activates_all_layers(self):
        enc = SVCEncoder(CodecModel())
        enc.set_target_bitrate(740_000)
        assert set(enc.active_layers()) == {"base", "mid", "top"}

    def test_base_layer_always_active(self):
        enc = SVCEncoder(CodecModel())
        enc.set_target_bitrate(50_000)
        assert "base" in enc.active_layers()

    def test_layer_plan_monotone_in_target(self):
        enc = SVCEncoder(CodecModel())
        low = sum(enc.layer_plan(200_000).values())
        high = sum(enc.layer_plan(700_000).values())
        assert high > low

    def test_settings_reflect_top_active_layer(self):
        enc = SVCEncoder(CodecModel())
        enc.set_target_bitrate(740_000)
        assert enc.settings.width == 1280
        enc.set_target_bitrate(200_000)
        assert enc.settings.width <= 640

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1_500_000), min_size=1, max_size=8))
    def test_cached_layer_settings_match_fresh_ones(self, targets):
        """Frames carry the settings a fresh QP computation gives, across retargets."""
        codec = CodecModel()
        enc = SVCEncoder(codec)
        now = 0.0
        for target in [*targets, targets[0]]:
            enc.set_target_bitrate(target)
            for _ in range(6):
                now += 1.0 / 30.0
                for frame in enc.frames_due(now):
                    layer = next(l for l in enc.layers if l.name == frame.layer)
                    rate = enc.active_layers()[frame.layer]
                    qp = codec.qp_for_bitrate(layer.resolution, layer.fps, max(rate, 1.0))
                    assert frame.settings == EncoderSettings(
                        resolution=layer.resolution, fps=layer.fps, qp=qp
                    )

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=1_500_000))
    def test_property_plan_bounded_by_cumulative_rates(self, target):
        enc = SVCEncoder(CodecModel())
        plan = enc.layer_plan(target)
        assert sum(plan.values()) <= DEFAULT_ZOOM_LAYERS[-1].cumulative_bitrate_bps + 1
        assert all(v >= 0 for v in plan.values())


class TestLayouts:
    def test_zoom_grid_adds_third_row_at_five(self):
        assert grid_dimensions("zoom", 4) == (2, 2)
        columns, rows = grid_dimensions("zoom", 5)
        assert rows == 2 and columns == 3 or rows == 3

    def test_teams_grid_fixed(self):
        assert grid_dimensions("teams", 8) == (2, 2)

    def test_tile_video_area_is_16_9(self):
        area = tile_video_area(Resolution(1366, 768), 2, 2)
        assert area.width / area.height == pytest.approx(16 / 9, rel=0.05)

    def test_zoom_request_drops_at_five_participants(self):
        participants4 = [f"C{i}" for i in range(1, 5)]
        participants5 = [f"C{i}" for i in range(1, 6)]
        four = layout_for("zoom", "C1", participants4)
        five = layout_for("zoom", "C1", participants5)
        assert four.tiles["C2"].width == 1280
        assert five.tiles["C2"].width == 640

    def test_meet_request_drops_at_seven_participants(self):
        six = layout_for("meet", "C1", [f"C{i}" for i in range(1, 7)])
        seven = layout_for("meet", "C1", [f"C{i}" for i in range(1, 8)])
        assert six.tiles["C2"].width == 640
        assert seven.tiles["C2"].width == 320

    def test_teams_shows_at_most_four_remotes(self):
        layout = layout_for("teams", "C1", [f"C{i}" for i in range(1, 9)])
        assert len(layout.tiles) == 4

    def test_speaker_mode_pins_large_tile(self):
        layout = layout_for(
            "zoom", "C2", ["C1", "C2", "C3", "C4"], mode=ViewMode.SPEAKER, pinned="C1"
        )
        assert layout.tiles["C1"].width == 1280
        assert layout.tiles["C3"].width == 320

    def test_single_participant_has_no_tiles(self):
        assert layout_for("meet", "C1", ["C1"]).tiles == {}

    def test_unknown_vca_rejected(self):
        with pytest.raises(ValueError):
            layout_for("skype", "C1", ["C1", "C2"])


class TestFreezeTracker:
    def test_regular_frames_no_freeze(self):
        tracker = FreezeTracker()
        for i in range(100):
            assert not tracker.on_frame(i / 30)
        assert tracker.total_freeze_s == 0.0

    def test_long_gap_detected_as_freeze(self):
        tracker = FreezeTracker()
        for i in range(30):
            tracker.on_frame(i / 30)
        froze = tracker.on_frame(2.0)  # ~1 second gap
        assert froze
        assert tracker.freeze_count == 1
        assert tracker.total_freeze_s > 0.5

    def test_threshold_uses_paper_rule(self):
        tracker = FreezeTracker()
        # Establish a 33 ms mean interval.
        for i in range(60):
            tracker.on_frame(i / 30)
        last = 59 / 30
        # Gap just below delta + 150 ms must NOT freeze.
        assert not tracker.on_frame(last + 0.033 + 0.140)
        # Another regular frame, then a gap above the threshold must freeze.
        base = last + 0.033 + 0.140
        tracker.on_frame(base + 0.033)
        assert tracker.on_frame(base + 0.033 + 0.25)

    def test_freeze_ratio_normalised(self):
        tracker = FreezeTracker()
        tracker.total_freeze_s = 5.0
        assert tracker.freeze_ratio(50.0) == pytest.approx(0.1)
        assert tracker.freeze_ratio(0.0) == 0.0
        assert tracker.freeze_ratio(2.0) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=0.4), min_size=2, max_size=200))
    def test_property_freeze_time_never_exceeds_span(self, gaps):
        tracker = FreezeTracker()
        t = 0.0
        tracker.on_frame(t)
        for gap in gaps:
            t += gap
            tracker.on_frame(t)
        assert 0.0 <= tracker.total_freeze_s <= t + 1e-9
