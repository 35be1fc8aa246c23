"""Integration tests for the experiment drivers (reduced-scale runs)."""

from __future__ import annotations

import inspect

import pytest

from repro.core.campaign import CampaignPolicy
from repro.experiments import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.registry import run_experiment
from repro.experiments.competition import run_vca_vs_vca, workload_scenario_spec
from repro.experiments.disruption import run_disruption_timeseries, run_ttr_sweep
from repro.experiments.modality import run_participant_sweep
from repro.experiments.static import (
    run_capacity_sweep,
    run_encoding_parameters,
    run_platform_comparison,
    run_unconstrained_utilization,
    run_video_freezes,
)
from repro.netem.scenarios import run_scenario


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        ids = list_experiments()
        for expected in ("table2", "fig1a", "fig1b", "fig1c", "fig2", "fig3", "fig4a", "fig4b",
                         "fig5a", "fig5b", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12",
                         "fig13", "fig14", "fig15ab", "fig15c"):
            assert expected in ids

    def test_specs_have_sections_and_drivers(self):
        for spec in EXPERIMENTS.values():
            assert spec.section
            assert callable(spec.driver)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_every_driver_accepts_campaign_options(self):
        for spec in EXPERIMENTS.values():
            inspect.signature(spec.driver).bind_partial(
                workers=2, store="store", policy=CampaignPolicy(), hosts=2
            )

    def test_run_experiment_rejects_mistyped_option(self):
        with pytest.raises(TypeError):
            run_experiment("fig4a", worker=2)

    @pytest.mark.parametrize(
        "driver",
        [
            run_capacity_sweep,
            run_platform_comparison,
            run_encoding_parameters,
            run_disruption_timeseries,
            run_ttr_sweep,
            run_vca_vs_vca,
        ],
    )
    @pytest.mark.parametrize("direction", ["both", "sideways", "x"])
    def test_drivers_reject_unknown_direction(self, driver, direction):
        with pytest.raises(ValueError, match="direction"):
            driver(direction=direction)

    def test_run_experiment_forwards_kwargs(self):
        result = run_experiment(
            "fig1a",
            vcas=("meet",),
            levels_mbps=(1.0,),
            duration_s=30,
            repetitions=1,
        )
        assert "meet" in result and len(result["meet"].x) == 1


class TestStaticDrivers:
    def test_table2_reduced(self):
        table = run_unconstrained_utilization(vcas=("meet", "zoom"), duration_s=40, repetitions=1)
        assert len(table.rows) == 2
        rates = {row[0]: (row[1], row[2]) for row in table.rows}
        assert 0.5 < rates["meet"][0] < 1.3
        # Zoom's downstream exceeds its upstream (relay-side FEC).
        assert rates["zoom"][1] > rates["zoom"][0]

    def test_capacity_sweep_monotone_with_capacity(self):
        series = run_capacity_sweep(
            direction="up", vcas=("meet",), levels_mbps=(0.5, 2.0), duration_s=40, repetitions=1
        )
        meet = series["meet"]
        assert meet.y[0] < meet.y[1]
        assert meet.y[0] <= 0.6

    def test_encoding_parameters_reports_all_metrics(self):
        result = run_encoding_parameters(
            direction="up", vcas=("meet",), levels_mbps=(0.5, 5.0), duration_s=35, repetitions=1
        )
        assert set(result) == {"qp", "fps", "width"}
        qp = result["qp"]["meet"]
        # QP rises when the uplink is constrained.
        assert qp.y[0] > qp.y[1]

    def test_video_freezes_driver_structure(self):
        result = run_video_freezes(
            vcas=("meet",), levels_mbps=(0.3, 5.0), duration_s=35, repetitions=1
        )
        freeze = result["freeze_ratio"]["meet"]
        fir = result["fir_count"]["meet"]
        assert len(freeze.y) == 2 and len(fir.y) == 2
        assert freeze.y[0] >= freeze.y[1]  # more freezes at 0.3 Mbps than unconstrained


class TestDisruptionDrivers:
    def test_ttr_is_positive_after_severe_uplink_drop(self):
        result = run_ttr_sweep(
            direction="up",
            vcas=("meet",),
            levels_mbps=(0.25,),
            duration_s=150,
            repetitions=1,
        )
        assert result["meet"].y[0] > 3.0

    @pytest.mark.parametrize("recovers, ttr", [(True, 4.0), (False, 9.0)])
    def test_ttr_windows_follow_the_drop_in_simulation_time(self, monkeypatch, recovers, ttr):
        """A synthetic trace: 1 Mbps, a drop to 0.25 Mbps over t=8..13 s of a
        20 s call (the call runs t=2..22 s), then a ramp back to 1 Mbps.

        The drop is applied at absolute simulation time, so recovery counts
        from t=13 s against the rate before t=8 s, and a call that never
        recovers scores the 9 s of trace left after the drop.
        """
        import numpy as np

        from repro.experiments import disruption

        times = np.arange(22.0)
        mbps = np.where(times < 8, 1.0, 0.25)
        if recovers:
            mbps[13:] = [0.3, 0.6] + [1.0] * 7

        class SyntheticRun:
            start_s, end_s = 2.0, 22.0

            def bitrate_series(self, tx_rx, name="C1"):
                return times, mbps

        monkeypatch.setattr(disruption, "run_scenario", lambda *args, **kwargs: SyntheticRun())
        result = run_ttr_sweep(
            vcas=("meet",), levels_mbps=(0.25,), duration_s=20, repetitions=1,
            drop_at_s=8, drop_duration_s=5,
        )
        assert result["meet"].y == [ttr]

    def test_timeseries_shows_the_dip(self):
        result = run_disruption_timeseries(
            direction="up", drop_to_mbps=0.25, vcas=("zoom",), duration_s=150, repetitions=1
        )
        series = result["zoom"]
        during = [y for x, y in zip(series.x, series.y) if 70 <= x <= 88]
        before = [y for x, y in zip(series.x, series.y) if 30 <= x <= 55]
        assert sum(during) / len(during) < 0.7 * (sum(before) / len(before))


class TestCompetitionDrivers:
    def test_zoom_beats_meet_on_uplink(self):
        spec = workload_scenario_spec("zoom", "vca", {"app": "meet"}, 0.5, 60)
        run = run_scenario(spec, seed=2, collect_stats=False)
        assert run.share("up") > 0.55

    def test_table_driver_shapes(self):
        table = run_vca_vs_vca(
            direction="up",
            capacity_mbps=0.5,
            incumbents=("zoom",),
            competitors=("meet",),
            repetitions=1,
            competitor_duration_s=50,
        )
        assert len(table.rows) == 1
        assert 0.0 <= table.rows[0][2] <= 1.0

    def test_teams_passive_against_tcp(self):
        spec = workload_scenario_spec(
            "teams", "tcp_bulk", {"flows": 1, "direction": "down"}, 2.0, 60
        )
        run = run_scenario(spec, seed=1, collect_stats=False)
        assert run.share("down") < 0.5


class TestModalityDriver:
    def test_gallery_sweep_shows_zoom_uplink_drop(self):
        result = run_participant_sweep(
            mode="gallery",
            vcas=("zoom",),
            participant_counts=(2, 5),
            duration_s=40,
            repetitions=1,
        )
        uplink = result["uplink"]["zoom"]
        assert uplink.y[1] < uplink.y[0]

    def test_speaker_sweep_returns_both_directions(self):
        result = run_participant_sweep(
            mode="speaker",
            vcas=("teams",),
            participant_counts=(3,),
            duration_s=40,
            repetitions=1,
        )
        assert "uplink" in result and "downlink" in result
        assert result["uplink"]["teams"].figure_id == "fig15c"
