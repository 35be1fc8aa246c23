"""Tier-1 joint calibration tests (repro.calibrate).

The headline guarantee of the calibration subsystem: the *committed*
competition constants satisfy every recorded figure target at once.  A
change that fixes one figure and silently breaks another fails here, in
tier-1, not two benchmarks later.

The joint evaluation runs the seven Section 5 calibration units at the
committed ``CALIBRATION.json`` setting (60 s, seed 0; about 9 s on a
2-vCPU host) into a module-wide result store that the fig10 figure driver
warmed first.  That one cold report is both the acceptance check and the
drift check against the committed file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.calibrate import (
    COMMITTED_CONSTANTS,
    FIGURE_TARGETS,
    SCENARIO_TARGETS,
    CompetitionConstants,
    Target,
    active_constants,
    score_targets,
    set_active_constants,
)
from repro.calibrate.sweep import (
    CELLS,
    run_calibration_sweep,
    verify_committed,
    write_calibration_report,
)
from repro.core.campaign import CampaignPolicy, expand_units, run_campaign
from repro.experiments import competition, static
from repro.netem.scenarios import SCENARIOS
from repro.results.fingerprint import code_fingerprint
from repro.results.store import ResultStore

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The committed report; its ``settings`` (60 s, seed 0) are the setting
#: of the tier-1 joint check.
COMMITTED_REPORT = json.loads((REPO_ROOT / "CALIBRATION.json").read_text())
SETTINGS = COMMITTED_REPORT["settings"]


@pytest.fixture(scope="module")
def calibration_store(tmp_path_factory):
    """A store warmed by the fig10 driver, then by ``verify_committed`` twice.

    Records each step's store counters and the two verification reports;
    the first report is also written to disk.
    """
    root = tmp_path_factory.mktemp("calibration")
    store = ResultStore(root / "store")
    competition.run_vca_vs_vca(
        direction="down", capacity_mbps=0.5, incumbents=("teams",), competitors=("zoom",),
        repetitions=1, store=store, **SETTINGS,
    )
    counts = {"figure": (store.hits, store.puts)}
    reports = {}
    for step, output_path in (("cold", root / "CALIBRATION.json"), ("warm", None)):
        store.reset_counters()
        reports[step] = verify_committed(output_path=output_path, store=store, **SETTINGS)
        counts[step] = (store.hits, store.puts)
    return SimpleNamespace(
        root=root, path=root / "store", counts=counts, cold=reports["cold"], warm=reports["warm"]
    )


class TestConstants:
    def test_committed_is_active_by_default(self):
        assert active_constants() is COMMITTED_CONSTANTS

    def test_set_active_returns_previous_and_restores(self):
        candidate = COMMITTED_CONSTANTS.replace(zoom_relay_loss_decrease_threshold=0.2)
        previous = set_active_constants(candidate)
        try:
            assert previous is COMMITTED_CONSTANTS
            assert active_constants() is candidate
        finally:
            set_active_constants(previous)
        assert active_constants() is COMMITTED_CONSTANTS

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            COMMITTED_CONSTANTS.replace(not_a_constant=1.0)

    def test_estimator_configs_carry_constants(self):
        constants = CompetitionConstants(
            zoom_relay_loss_decrease_threshold=0.33,
            zoom_relay_min_bitrate_bps=555_000.0,
            meet_relay_held_hold_s=7.0,
        )
        zoom_cfg = constants.zoom_relay_estimator_config()
        assert zoom_cfg.loss_backoff_threshold == 0.33
        assert zoom_cfg.min_bitrate_bps == 555_000.0
        meet_cfg = constants.meet_relay_estimator_config()
        assert meet_cfg.loss_held_hold_s == 7.0
        # Meet's SFU stays delay-led with ordinary loss thresholds.
        assert meet_cfg.overuse_threshold_s < zoom_cfg.overuse_threshold_s

    def test_teams_overrides_reach_controller_config(self):
        from repro.vca.teams import teams_profile

        constants = COMMITTED_CONSTANTS.replace(teams_bwe_loss_decrease_threshold=0.19)
        previous = set_active_constants(constants)
        try:
            profile = teams_profile(seed=0)
            import numpy as np

            controller = profile.controller_factory(np.random.default_rng(0))
            assert controller.config.bwe_loss_decrease_threshold == 0.19
        finally:
            set_active_constants(previous)


def _inside(target: Target) -> float:
    """A value 0.1 inside ``target``'s threshold."""
    return target.threshold - 0.1 if target.op == "lt" else target.threshold + 0.1


def _cell_metrics_for(values: dict[str, float]) -> dict[str, dict[str, float]]:
    """Cell metrics giving each figure target the value in ``values``.

    Value targets are set first; a difference target's primary metric is
    then its value plus whatever its baseline reads (0 when unset).
    """
    metrics: dict[str, dict[str, float]] = {t.scenario: {} for t in FIGURE_TARGETS}
    for t in sorted(FIGURE_TARGETS, key=lambda t: t.mode != "value"):
        base = 0.0
        if t.mode == "difference":
            base = metrics[t.baseline].setdefault(t.baseline_metric or t.metric, 0.0)
        metrics[t.scenario][t.metric] = values[t.name] + base
    return metrics


class TestTargets:
    def test_margin_signs(self):
        # Both sides of the fig10 tx-loss band read one metric, so it takes
        # the band's midpoint; every other target sits 0.1 inside.
        values = {t.name: _inside(t) for t in FIGURE_TARGETS}
        band = (0.40 + 0.75) / 2.0
        values["fig10-zoom-tx-loss-floor"] = values["fig10-zoom-tx-loss-ceiling"] = band
        scores = score_targets(FIGURE_TARGETS, _cell_metrics_for(values))
        assert set(scores["margins"]) == {t.name for t in FIGURE_TARGETS}
        assert all(m > 0.0 for m in scores["margins"].values())

    def test_every_target_has_a_distinct_key(self):
        names = [t.name for t in (*FIGURE_TARGETS, *SCENARIO_TARGETS)]
        assert len(names) == len(set(names))
        figures = {t.scenario.split("-")[0] for t in FIGURE_TARGETS}
        assert figures == {"fig8", "fig10", "fig12", "fig14"}

    def test_tx_loss_band_scores_both_sides(self):
        # Two targets band one metric from both sides; a value above the
        # ceiling must fail *only* the lt side.
        by_name = {t.name: t for t in FIGURE_TARGETS}
        floor = by_name["fig10-zoom-tx-loss-floor"]
        ceiling = by_name["fig10-zoom-tx-loss-ceiling"]
        assert (floor.scenario, floor.metric) == (ceiling.scenario, ceiling.metric)
        assert (floor.op, ceiling.op) == ("gt", "lt")
        assert floor.threshold < ceiling.threshold
        values = {t.name: _inside(t) for t in FIGURE_TARGETS}
        values[floor.name] = values[ceiling.name] = ceiling.threshold + 0.05
        margins = score_targets(FIGURE_TARGETS, _cell_metrics_for(values))["margins"]
        assert margins[ceiling.name] < 0.0
        assert margins[floor.name] > 0.0

    def test_bad_targets_are_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown op"):
            Target(name="x", metric="m", scenario="s", op="ge", threshold=0.0)
        with pytest.raises(ValueError, match="unknown mode"):
            Target(name="x", metric="m", scenario="s", op="gt", threshold=0.0, mode="gap")

    def test_target_tables_name_real_cells_and_scenarios(self, calibration_store):
        """Figure rows read keys a cell's payload holds; scenario rows, registered scenarios."""
        store = ResultStore(calibration_store.path)
        results = run_campaign(
            competition.competition_conditions(
                CELLS.values(), SETTINGS["competitor_duration_s"], 1, SETTINGS["seed"]
            ),
            store=store,
        )
        assert (store.hits, store.puts) == (len(CELLS), 0)
        payloads = {cell: result.runs[0] for cell, result in zip(CELLS, results)}
        for target in FIGURE_TARGETS:
            for cell, key in target.reads():
                assert cell in CELLS, (target.name, cell)
                assert key in payloads[cell], (target.name, cell, key)
        for target in SCENARIO_TARGETS:
            for scenario, _ in target.reads():
                assert scenario in SCENARIOS, (target.name, scenario)


class TestJointCalibration:
    def test_committed_constants_satisfy_all_figure_targets(self, calibration_store):
        """The headline acceptance check: every figure target holds at once.

        This covers the fig10 fix (Teams-vs-Zoom downlink share < 0.6) *and*
        the constraints that kept previous one-knob fixes from landing
        (fig8 pair ordering, fig12 TCP passivity, fig14 Zoom-vs-Netflix).
        """
        report = calibration_store.cold
        margins = report["margins"]
        failing = {name: margin for name, margin in margins.items() if margin <= 0.0}
        assert not failing, (
            "committed competition constants violate figure targets "
            f"(margins: {margins})"
        )
        assert report["satisfied"] is True
        # The report round-trips as JSON with the full constant set recorded.
        written = json.loads((calibration_store.root / "CALIBRATION.json").read_text())
        assert written["constants"] == COMMITTED_CONSTANTS.as_dict()
        assert written["mode"] == "verify"

    def test_report_writer_round_trips(self, tmp_path):
        path = write_calibration_report({"mode": "test", "x": 1.5}, tmp_path / "r.json")
        assert json.loads(path.read_text()) == {"mode": "test", "x": 1.5}


class TestCalibrationCampaign:
    """Calibration runs the figure units through the campaign and its store."""

    def test_figure_driver_unit_serves_calibration(self, calibration_store):
        # run_vca_vs_vca stored the fig10 unit; verify_committed hits it and
        # simulates only the other six cells.
        assert calibration_store.counts["figure"] == (0, 1)
        assert calibration_store.counts["cold"] == (1, len(CELLS) - 1)

    def test_warm_verify_simulates_nothing(self, calibration_store):
        assert calibration_store.counts["warm"] == (len(CELLS), 0)
        assert calibration_store.warm["metrics"] == calibration_store.cold["metrics"]
        assert calibration_store.warm["margins"] == calibration_store.cold["margins"]

    def test_two_candidate_sweep(self, tmp_path):
        """Candidates run as keyed units in the campaign and leave no trace.

        Serial and pooled sweeps agree, the committed constants stay active
        in this process, and no candidate unit shares a store key with a
        committed-constant unit.
        """
        candidates = [
            {"zoom_relay_loss_smoothing": 0.30},
            {"zoom_relay_min_bitrate_bps": 900_000.0},
        ]
        store = ResultStore(tmp_path / "store")
        kwargs = dict(repetitions=1, competitor_duration_s=20.0, seed=0, output_path=None)
        serial = run_calibration_sweep(candidates, store=store, **kwargs)
        assert active_constants() is COMMITTED_CONSTANTS
        pooled = run_calibration_sweep(candidates, workers=2, **kwargs)
        assert active_constants() is COMMITTED_CONSTANTS
        serial.pop("recorded_at")
        pooled.pop("recorded_at")
        assert pooled == serial
        assert [entry["overrides"] for entry in serial["candidates"]] == candidates
        assert store.puts == len(candidates) * len(CELLS)
        committed_units, _ = expand_units(
            competition.competition_conditions(CELLS.values(), 20.0, 1, 0),
            fingerprint=code_fingerprint(),
        )
        committed_keys = {unit.key for unit in committed_units}
        assert len(committed_keys) == len(CELLS)
        assert committed_keys.isdisjoint(store.keys())


class TestQuarantinedCells:
    def test_quarantined_cells_are_gaps(self, monkeypatch):
        """A fully quarantined cell reads as a gap, never as a value or a crash.

        The capacity sweep plots NaN, the single-run trace drivers return
        series without points, and ``verify_committed`` reports the cell.
        """
        policy = CampaignPolicy(max_attempts=1, on_exhausted="quarantine")

        def capacity_unit(vca, direction, capacity_mbps, duration_s, seed):
            if capacity_mbps == 0.5:
                raise RuntimeError("poisoned cell")
            return {"median_mbps": 1.0}

        monkeypatch.setattr(static, "measure_capacity_point", capacity_unit)
        (series,) = static.run_capacity_sweep(
            vcas=("meet",), levels_mbps=(0.5, 1.0), duration_s=10.0, repetitions=2,
            policy=policy,
        ).values()
        assert series.x == [0.5, 1.0]
        assert all(math.isnan(v) for v in (series.y[0], series.ci_low[0], series.ci_high[0]))
        assert series.y[1] == 1.0

        def poisoned_unit(**params):
            raise RuntimeError("poisoned cell")

        monkeypatch.setattr(competition, "measure_competition_point", poisoned_unit)
        figures = [
            *competition.run_self_competition_timeseries(policy=policy).values(),
            *competition.run_pair_timeseries(policy=policy).values(),
            competition.run_zoom_burst_trace(policy=policy),
            competition.run_vca_vs_streaming(policy=policy),
        ]
        assert all(trace.x == [] for figure in figures for trace in figure.values())

        def fig10_poisoned(incumbent_vca, workload_kind, **params):
            if (incumbent_vca, workload_kind) == ("teams", "vca"):
                raise RuntimeError("poisoned cell")
            return {}

        monkeypatch.setattr(competition, "measure_competition_point", fig10_poisoned)
        report = verify_committed(competitor_duration_s=20.0, policy=policy)
        assert report["satisfied"] is False
        assert report["quarantined"] == ["fig10-teams-vs-zoom"]
        assert report["metrics"] == {} and report["margins"] == {}


class TestCommittedReport:
    def test_committed_report_matches_a_fresh_run(self, calibration_store):
        """``CALIBRATION.json`` is what ``verify_committed`` gives today, exactly.

        The fixture's cold report ran at the committed report's own setting
        (60 s, seed 0); everything it wrote but the timestamp must equal the
        file, so the file cannot drift from the code silently.  If a model
        change moves the numbers on purpose, regenerate the file with
        ``python examples/calibrate_competition.py --verify --duration 60
        --seed 0`` and record each margin's old and new value.
        """
        fresh = json.loads((calibration_store.root / "CALIBRATION.json").read_text())
        committed = dict(COMMITTED_REPORT)
        fresh.pop("recorded_at")
        committed.pop("recorded_at")
        assert fresh == committed
