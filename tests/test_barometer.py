"""Population quality barometer: formula, sampler, campaign, targets.

Covers the four barometer layers end to end:

* **Formula** -- ramp scoring at and around the thresholds (exactly-at-good
  / exactly-at-bad / midpoint), degenerate ``good == bad`` step semantics,
  monotonicity of every shipped requirement, weight renormalization when a
  metric is absent or NaN, and the config validation errors.
* **Sampler** -- same-seed grids are byte-identical (in-process and across
  a fresh interpreter with randomized ``PYTHONHASHSEED``), different seeds
  differ, the first ``n`` of an ``n+k`` sample are stable, and every drawn
  parameter lies inside its declared tier range.
* **Campaign** -- a tiny grid runs serially and over ``hosts=2``
  byte-identically, a warm store re-scores with zero simulations, the
  tabulated ``quality_index`` column matches the formula applied to the
  row's own metrics, and the ``barometer_sweep`` registry entry advertises
  the full campaign feature set.
* **Targets** -- ``quality_index:<use-case>`` derived-metric resolution,
  cross-use-case ``baseline_metric`` comparisons, and the committed
  barometer targets' wiring through ``verify_scenarios(targets=...)``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.barometer.campaign import (
    BAROMETER_METRICS,
    barometer_conditions,
    run_barometer_sweep,
)
from repro.barometer.formula import (
    BAROMETER_CONFIG,
    Requirement,
    USE_CASES,
    UseCaseFormula,
    build_formula,
    get_use_case,
    list_use_cases,
    quality_index,
    requirement_scores,
)
from repro.barometer.population import (
    DEFAULT_TIERS,
    household_scenario,
    sample_households,
    tier_names,
)
from repro.barometer.report import population_cdf, tier_scorecard
from repro.calibrate.targets import (
    SCENARIO_TARGETS,
    Target,
    resolve_metric,
    score_targets,
)
from repro.calibrate.verify import target_scenario_names
from repro.results.fingerprint import canonical_json

#: A payload at the good end of every two-party requirement.
PERFECT = {
    "mean_received_fps": 30.0,
    "freeze_ratio": 0.0,
    "median_down_mbps": 2.5,
    "median_up_mbps": 1.5,
    "p95_queue_delay_s": 0.0,
    "tx_loss_rate": 0.0,
    "rate_switches": 0.0,
}

#: A payload at or past the bad end of every two-party requirement.
AWFUL = {
    "mean_received_fps": 0.0,
    "freeze_ratio": 1.0,
    "median_down_mbps": 0.0,
    "median_up_mbps": 0.0,
    "p95_queue_delay_s": 5.0,
    "tx_loss_rate": 0.5,
    "rate_switches": 100.0,
}


# ------------------------------------------------------------------ formula
class TestRequirementScore:
    def test_exactly_at_good_scores_one(self):
        req = Requirement(metric="freeze_ratio", weight=1.0, good=0.1, bad=0.5)
        assert req.score(0.1) == 1.0

    def test_exactly_at_bad_scores_zero(self):
        req = Requirement(metric="freeze_ratio", weight=1.0, good=0.1, bad=0.5)
        assert req.score(0.5) == 0.0

    def test_midpoint_scores_half_both_directions(self):
        lower = Requirement(metric="freeze_ratio", weight=1.0, good=0.0, bad=0.4)
        higher = Requirement(metric="mean_received_fps", weight=1.0, good=20.0, bad=4.0)
        assert lower.score(0.2) == pytest.approx(0.5)
        assert higher.score(12.0) == pytest.approx(0.5)

    def test_beyond_good_and_beyond_bad_clamp(self):
        req = Requirement(metric="mean_received_fps", weight=1.0, good=20.0, bad=4.0)
        assert req.score(60.0) == 1.0
        assert req.score(0.0) == 0.0

    def test_step_threshold_is_inclusive(self):
        # good == bad degenerates to the IQB step; meeting the threshold
        # exactly counts, in the direction implied by the metric.
        lower = Requirement(metric="tx_loss_rate", weight=1.0, good=0.02, bad=0.02)
        assert lower.score(0.02) == 1.0
        assert lower.score(0.0200001) == 0.0
        higher = Requirement(metric="mean_received_fps", weight=1.0, good=10.0, bad=10.0)
        assert higher.score(10.0) == 1.0
        assert higher.score(9.9999) == 0.0

    def test_score_monotone_within_ramp(self):
        req = Requirement(metric="p95_queue_delay_s", weight=1.0, good=0.05, bad=1.0)
        values = [0.0, 0.05, 0.1, 0.3, 0.7, 1.0, 2.0]
        scores = [req.score(v) for v in values]
        assert scores == sorted(scores, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            Requirement(metric="freeze_ratio", weight=0.0, good=0.0, bad=1.0)
        with pytest.raises(ValueError):
            Requirement(metric="freeze_ratio", weight=1.0, good=math.inf, bad=1.0)


class TestUseCaseFormula:
    def test_perfect_payload_scores_one(self):
        assert quality_index(PERFECT, "two-party") == pytest.approx(1.0)

    def test_awful_payload_scores_zero(self):
        assert quality_index(AWFUL, "two-party") == pytest.approx(0.0)

    @pytest.mark.parametrize("case", sorted(USE_CASES))
    def test_every_requirement_degradation_lowers_index(self, case):
        formula = USE_CASES[case]
        baseline = {
            req.metric: req.good for req in formula.requirements
        }
        base_index = formula.quality_index(baseline)
        assert base_index == pytest.approx(1.0)
        for req in formula.requirements:
            degraded = dict(baseline)
            degraded[req.metric] = (req.good + req.bad) / 2.0
            assert formula.quality_index(degraded) < base_index

    def test_absent_metric_renormalizes(self):
        formula = USE_CASES["two-party"]
        partial = dict(PERFECT)
        partial.pop("rate_switches")
        partial["freeze_ratio"] = 0.15  # mid-ramp: score 0.5
        scores = formula.requirement_scores(partial)
        assert scores["rate_switches"] is None
        weights = {req.metric: req.weight for req in formula.requirements}
        present = [m for m in weights if m != "rate_switches"]
        expected = sum(weights[m] * scores[m] for m in present) / sum(
            weights[m] for m in present
        )
        assert formula.quality_index(partial) == pytest.approx(expected)

    def test_nan_metric_treated_as_absent(self):
        with_nan = dict(PERFECT)
        with_nan["rate_switches"] = float("nan")
        without = dict(PERFECT)
        without.pop("rate_switches")
        assert quality_index(with_nan, "two-party") == pytest.approx(
            quality_index(without, "two-party")
        )

    def test_all_absent_scores_nan(self):
        assert math.isnan(quality_index({}, "two-party"))
        assert requirement_scores({}, "two-party") == {
            req.metric: None for req in USE_CASES["two-party"].requirements
        }

    def test_config_round_trip(self):
        for name, config in BAROMETER_CONFIG.items():
            formula = build_formula(name, config)
            assert formula.name == name
            assert {r.metric for r in formula.requirements} == set(
                config["requirements"]
            )

    def test_get_use_case(self):
        formula = get_use_case("audio-first")
        assert get_use_case(formula) is formula
        with pytest.raises(KeyError):
            get_use_case("screen-share")
        assert list_use_cases() == sorted(BAROMETER_CONFIG)

    def test_validation(self):
        req = Requirement(metric="freeze_ratio", weight=1.0, good=0.0, bad=1.0)
        with pytest.raises(ValueError):
            UseCaseFormula(name="x", description="", participants=2,
                           view_mode="gallery", requirements=())
        with pytest.raises(ValueError):
            UseCaseFormula(name="x", description="", participants=2,
                           view_mode="gallery", requirements=(req, req))
        with pytest.raises(ValueError):
            UseCaseFormula(name="x", description="", participants=1,
                           view_mode="gallery", requirements=(req,))
        with pytest.raises(ValueError):
            UseCaseFormula(name="x", description="", participants=2,
                           view_mode="cinema", requirements=(req,))


# ------------------------------------------------------------------ sampler
class TestSampler:
    def test_same_seed_byte_identical(self):
        first = sample_households(40, seed=11)
        second = sample_households(40, seed=11)
        assert canonical_json([h.as_dict() for h in first]) == canonical_json(
            [h.as_dict() for h in second]
        )

    def test_different_seeds_differ(self):
        a = sample_households(40, seed=0)
        b = sample_households(40, seed=1)
        assert [h.as_dict() for h in a] != [h.as_dict() for h in b]

    def test_growth_stable_prefix(self):
        short = sample_households(10, seed=5)
        long = sample_households(30, seed=5)
        assert [h.as_dict() for h in long[:10]] == [h.as_dict() for h in short]

    def test_byte_identical_across_interpreters(self):
        """A fresh process with randomized hashing draws the same grid."""
        code = (
            "from repro.barometer.population import sample_households; "
            "from repro.results.fingerprint import canonical_json; "
            "print(canonical_json("
            "[h.as_dict() for h in sample_households(40, seed=11)]))"
        )
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(repo),
            capture_output=True, text=True, timeout=60, check=True,
        )
        local = canonical_json([h.as_dict() for h in sample_households(40, seed=11)])
        assert out.stdout.strip() == local

    def test_draws_inside_declared_ranges(self):
        tiers = {tier.name: tier for tier in DEFAULT_TIERS}
        for household in sample_households(120, seed=2):
            tier = tiers[household.tier]
            assert household.direction == tier.direction
            kind, params = household.profile
            assert kind == tier.profile[0]
            for key, declared in tier.profile[1].items():
                value = params[key]
                if isinstance(declared, (list, tuple)):
                    assert declared[0] <= value <= declared[1]
                else:
                    assert value == declared
            if household.loss is not None:
                assert tier.loss is not None
                for key, declared in tier.loss.items():
                    if key == "prob":
                        continue
                    low, high = declared
                    assert low <= household.loss[1][key] <= high

    def test_tier_coverage(self):
        names = {h.tier for h in sample_households(200, seed=0)}
        assert names <= set(tier_names())
        assert len(names) >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_households(0)
        with pytest.raises(ValueError):
            sample_households(5, tiers=())


class TestHouseholdScenario:
    def test_compiles_use_case_shape(self):
        household = sample_households(1, seed=0)[0]
        spec = household_scenario(household, "meet", "five-party-gallery")
        assert spec.participants == 5
        assert spec.view_mode == "gallery"
        assert spec.vca == "meet"
        assert spec.profile == household.profile
        assert "barometer" in spec.tags and household.tier in spec.tags

    def test_conditions_one_per_cell(self):
        households = sample_households(3, seed=0)
        conditions = barometer_conditions(
            households, vcas=("meet", "zoom"), use_cases=("two-party",),
            duration_s=5.0,
        )
        assert len(conditions) == 6
        assert len({c.name for c in conditions}) == 6
        for condition in conditions:
            assert condition.cache_payload["duration_s"] == 5.0


# ----------------------------------------------------------------- campaign
class TestBarometerSweep:
    def test_serial_and_hosts_merge_identically(self, tmp_path):
        kwargs = dict(
            n_households=2, vcas=("meet",), use_cases=("two-party",),
            duration_s=3.0, seed=0,
        )
        serial = run_barometer_sweep(**kwargs)
        distributed = run_barometer_sweep(
            store=tmp_path / "store", hosts=2, **kwargs
        )
        assert canonical_json(serial.rows) == canonical_json(distributed.rows)
        assert distributed.campaign_hosts

    def test_warm_store_runs_zero_simulations(self, tmp_path):
        kwargs = dict(
            n_households=3, vcas=("meet",), use_cases=("two-party",),
            duration_s=3.0, seed=0, store=tmp_path / "store",
        )
        cold = run_barometer_sweep(**kwargs)
        assert cold.campaign_stats["completed"] == 3
        warm = run_barometer_sweep(**kwargs)
        assert warm.campaign_stats["completed"] == 0
        assert warm.campaign_stats["cache_hits"] == 3
        assert canonical_json(cold.rows) == canonical_json(warm.rows)

    def test_quality_index_column_matches_formula(self, tmp_path):
        table = run_barometer_sweep(
            n_households=2, vcas=("meet",), use_cases=("two-party", "audio-first"),
            duration_s=3.0, seed=0, store=tmp_path / "store",
        )
        assert table.columns[:5] == (
            "household", "tier", "vca", "use_case", "quality_index"
        )
        assert len(table.rows) == 4
        for row in table.rows:
            payload = dict(zip(table.columns, row))
            metrics = {metric: payload[metric] for metric in BAROMETER_METRICS}
            expected = quality_index(metrics, payload["use_case"])
            assert payload["quality_index"] == pytest.approx(expected)
            assert 0.0 <= payload["quality_index"] <= 1.0

    def test_report_shapes(self, tmp_path):
        table = run_barometer_sweep(
            n_households=4, vcas=("meet",), use_cases=("two-party",),
            duration_s=3.0, seed=0, store=tmp_path / "store",
        )
        cdf = population_cdf(table)
        assert set(cdf) == {("meet", "two-party")}
        points = cdf[("meet", "two-party")]
        assert len(points) == 4
        assert points[-1][1] == pytest.approx(1.0)
        assert [p[0] for p in points] == sorted(p[0] for p in points)
        card = tier_scorecard(table, tier_order=tier_names())
        assert sum(row[3] for row in card.rows) == 4  # households column
        for row in card.rows:
            payload = dict(zip(card.columns, row))
            assert payload["verdict"] in ("yes", "marginal", "no")
            assert 0.0 <= payload["sustain_fraction"] <= 1.0

    def test_registry_entry(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("barometer_sweep")
        assert spec.driver is run_barometer_sweep

    def test_scenario_sweep_scores_use_case(self, tmp_path):
        from repro.experiments.scenario import run_scenario_sweep

        table = run_scenario_sweep(
            scenarios=["barometer/dsl-2p-meet"], duration_s=3.0, repetitions=1,
            store=tmp_path / "store", score_use_case="two-party",
        )
        assert table.columns[-1] == "quality_index"
        payload = dict(zip(table.columns, table.rows[0]))
        assert 0.0 <= payload["quality_index"] <= 1.0
        plain = run_scenario_sweep(
            scenarios=["barometer/dsl-2p-meet"], duration_s=3.0, repetitions=1,
            store=tmp_path / "store",
        )
        assert "quality_index" not in plain.columns


# ------------------------------------------------------------------ targets
class TestBarometerTargets:
    def test_resolve_metric_plain_and_derived(self):
        metrics = dict(PERFECT, median_down_mbps=1.5)
        assert resolve_metric(metrics, "median_down_mbps") == 1.5
        assert resolve_metric(metrics, "quality_index:two-party") == pytest.approx(1.0)
        with pytest.raises(KeyError):
            resolve_metric(metrics, "quality_index:screen-share")

    def test_baseline_metric_compares_use_cases(self):
        target = Target(
            name="x",
            metric="quality_index:two-party",
            scenario="a",
            baseline="b",
            baseline_metric="quality_index:audio-first",
            mode="difference",
            op="lt",
            threshold=-0.05,
        )
        metrics = {"a": dict(AWFUL), "b": dict(PERFECT)}
        scores = score_targets([target], metrics)
        assert scores["values"]["x"] == pytest.approx(-1.0)
        assert scores["margins"]["x"] > 0.0

    def test_baseline_metric_requires_baseline(self):
        with pytest.raises(ValueError):
            Target(
                name="x", metric="freeze_ratio", scenario="a",
                baseline_metric="tx_loss_rate", mode="value", op="gt",
                threshold=0.0,
            )

    def test_committed_barometer_targets(self):
        by_name = {target.name: target for target in SCENARIO_TARGETS}
        floor = by_name["barometer-dsl-two-party-floor"]
        assert floor.metric == "quality_index:two-party"
        assert all(value > 0.0 for value in floor.recorded.values())
        gradient = by_name["barometer-constrained-lte-5p-below-dsl-2p"]
        assert gradient.baseline_metric == "quality_index:two-party"
        assert all(value < gradient.threshold for value in gradient.recorded.values())
        barometer_targets = [
            t for t in SCENARIO_TARGETS if t.metric.startswith("quality_index:")
        ]
        assert target_scenario_names(barometer_targets) == [
            "barometer/constrained-lte-5p-meet", "barometer/dsl-2p-meet",
        ]
