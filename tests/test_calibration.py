"""Tier-1 joint calibration tests (repro.calibrate).

The headline guarantee of the calibration subsystem: the *committed*
competition constants satisfy every recorded figure target at once.  A
change that fixes one figure and silently breaks another fails here, in
tier-1, not two benchmarks later.

The joint evaluation runs the seven Section 5 calibration units (about
4 s of wall clock on a 2-vCPU host) into a module-wide result store that
the fig10 figure driver warmed first; ``REPRO_CALIBRATION_DURATION``
scales the competitor window if a longer check is wanted locally.  The
committed ``CALIBRATION.json`` is re-run at its own recorded setting
(60 s, seed 0; about 9 s) and must match a fresh run exactly.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.calibrate import (
    COMMITTED_CONSTANTS,
    FIGURE_TARGETS,
    CompetitionConstants,
    active_constants,
    score_metrics,
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
from repro.results.fingerprint import code_fingerprint
from repro.results.store import ResultStore

#: Competitor window of the tier-1 joint check (seconds).  30 s is the
#: shortest window at which the competition equilibria are established
#: (Zoom needs ~20 s to displace an incumbent Meet call on the uplink).
CALIBRATION_DURATION_S = float(os.environ.get("REPRO_CALIBRATION_DURATION", "30"))

REPO_ROOT = Path(__file__).resolve().parent.parent


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
        repetitions=1, competitor_duration_s=CALIBRATION_DURATION_S, seed=0, store=store,
    )
    counts = {"figure": (store.hits, store.puts)}
    reports = {}
    for step, output_path in (("cold", root / "CALIBRATION.json"), ("warm", None)):
        store.reset_counters()
        reports[step] = verify_committed(
            competitor_duration_s=CALIBRATION_DURATION_S, seed=0,
            output_path=output_path, store=store,
        )
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


class TestTargets:
    def test_margin_signs(self):
        # One value per metric: a banded metric (same metric constrained gt
        # and lt) gets the midpoint of its band, a single-sided metric sits
        # 0.1 inside its threshold.  Every margin must come back positive.
        thresholds_by_metric: dict[str, dict[str, float]] = {}
        for t in FIGURE_TARGETS:
            thresholds_by_metric.setdefault(t.metric, {})[t.op] = t.threshold
        metrics = {}
        for metric, ops in thresholds_by_metric.items():
            if len(ops) == 2:
                metrics[metric] = (ops["gt"] + ops["lt"]) / 2.0
            elif "lt" in ops:
                metrics[metric] = ops["lt"] - 0.1
            else:
                metrics[metric] = ops["gt"] + 0.1
        margins = score_metrics(metrics)
        assert set(margins) == {t.key for t in FIGURE_TARGETS}
        assert all(m > 0.0 for m in margins.values())

    def test_every_target_has_a_distinct_key(self):
        keys = [t.key for t in FIGURE_TARGETS]
        assert len(keys) == len(set(keys))
        figures = {t.figure for t in FIGURE_TARGETS}
        assert figures == {"fig8", "fig10", "fig12", "fig14"}

    def test_tx_loss_band_scores_both_sides(self):
        # The fig10 tx-loss band is the reason margins are keyed metric:op --
        # under metric-only keying one side would silently overwrite the
        # other.  A value above the ceiling must fail *only* the lt side.
        band = [t for t in FIGURE_TARGETS if t.metric == "fig10_zoom_tx_loss"]
        assert sorted(t.op for t in band) == ["gt", "lt"]
        floor = next(t for t in band if t.op == "gt")
        ceiling = next(t for t in band if t.op == "lt")
        assert floor.threshold < ceiling.threshold
        metrics = {t.metric: (t.threshold - 0.1 if t.op == "lt" else t.threshold + 0.1) for t in FIGURE_TARGETS}
        metrics["fig10_zoom_tx_loss"] = ceiling.threshold + 0.05
        margins = score_metrics(metrics)
        assert margins[ceiling.key] < 0.0
        assert margins[floor.key] > 0.0


class TestJointCalibration:
    def test_committed_constants_satisfy_all_figure_targets(self, calibration_store):
        """The headline acceptance check: every figure target holds at once.

        This covers the fig10 fix (Teams-vs-Zoom downlink share < 0.6) *and*
        the constraints that kept previous one-knob fixes from landing
        (fig8 pair ordering, fig12 TCP passivity, fig14 Zoom-vs-Netflix).
        """
        report = calibration_store.cold
        margins = report["margins"]
        failing = {metric: margin for metric, margin in margins.items() if margin <= 0.0}
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
    def test_committed_report_matches_a_fresh_run(self):
        """``CALIBRATION.json`` is what ``verify_committed`` gives today, exactly.

        Re-runs the committed report's own setting (60 s, seed 0) and
        requires every metric and margin to equal the file's, so the file
        cannot drift from the code silently.  If a model change moves them
        on purpose, regenerate the file with ``python
        examples/calibrate_competition.py --verify --duration 60 --seed 0``
        and record each margin's old and new value.
        """
        committed = json.loads((REPO_ROOT / "CALIBRATION.json").read_text())
        fresh = verify_committed(**committed["settings"])
        assert fresh["metrics"] == committed["metrics"]
        assert fresh["margins"] == committed["margins"]


class TestRelayTxSideLoss:
    """Bounded coverage of the PR 3 modeling caveat.

    Under the committed competition floor, Zoom's SVC relay keeps feeding
    layers into a saturated 0.5 Mbps downlink: the *received* rate matches
    the paper's rx-side figures while much of what the relay sends dies at
    the bottleneck.  This test reads that tx-side loss (server tx capture
    vs client rx capture, ``core.metrics.tx_loss_rate``) from the fig10
    calibration unit's payload, without simulating the cell again, and pins
    it into the band the fig10 figure targets record: above 0.40 (the
    paper's measured flood aggressiveness) and below 0.75 (the sustained-
    loss layer shedding bound -- before shedding, the relay shipped the
    full ladder into a ~77 % loss pipe).  The same band is wired into the
    calibration sweep via the two ``fig10_zoom_tx_loss`` figure targets,
    so the margins here and in ``verify_committed`` move together.
    """

    def test_zoom_tx_loss_under_competition_floor_is_bounded(self, calibration_store):
        band = {
            t.op: t.threshold
            for t in FIGURE_TARGETS
            if t.metric == "fig10_zoom_tx_loss"
        }
        assert set(band) == {"gt", "lt"}
        # The fig10 calibration unit's payload, read back from the store.
        store = ResultStore(calibration_store.path)
        (result,) = run_campaign(
            competition.competition_conditions(
                [CELLS["fig10-teams-vs-zoom"]], CALIBRATION_DURATION_S, 1, 0
            ),
            store=store,
        )
        assert (store.hits, store.puts) == (1, 0)
        zoom_loss = result.runs[0]["competitor_tx_loss_rate"]
        print(
            f"\n[recorded] tx-side downlink loss at 0.5 Mbps floor: "
            f"zoom={zoom_loss:.3f} band=({band['gt']:.2f}, {band['lt']:.2f})"
        )
        # The flood is real (the paper's caveat) but no longer unbounded:
        # sustained-loss shedding caps the relay's layer budget at a
        # multiple of the delivered rate once loss stays above the shed
        # threshold (constants.zoom_relay_shed_*).
        assert band["gt"] <= zoom_loss <= band["lt"]
