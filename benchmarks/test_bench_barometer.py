"""Recorded-target benchmarks for the population quality barometer.

A reduced population grid (12 sampled households x 2 VCAs x 2 use cases)
runs through the campaign service and pins the population-level behaviour
the barometer exists to expose:

* every cell's quality index is finite and inside [0, 1],
* the access gradient: the constrained-LTE tier's five-party index sits
  far below the fiber tier's two-party index,
* the use-case gradient: for every VCA the five-party population mean sits
  below the two-party mean (a gallery needs more than a 1:1 call),
* the per-(VCA, use case) population means stay near the committed
  baseline (``benchmarks/baselines/BENCH_barometer_baseline.json``).

The grid is seed-deterministic, so the means are exact reproductions, not
statistics; the baseline gate's tolerance only absorbs intentional
calibration drift.  The committed barometer targets (``quality_index:*``
rows of SCENARIO_TARGETS) are scored with every other scenario target by
``benchmarks/test_bench_scenarios.py``.  With ``REPRO_RESULT_STORE``
pointing at a warm store (the CI scenario-smoke job) the whole suite
re-scores from cache.  Results
are emitted to ``BENCH_barometer.json`` for the CI artifact.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

import pytest
from bench_io import load_baseline, record_bench_result
from conftest import BENCH_DURATION_S

from repro.barometer.campaign import run_barometer_sweep
from repro.barometer.population import tier_names
from repro.barometer.report import render_tier_scorecard, tier_scorecard

#: Reduced population grid (seed 0 draws 5 distinct tiers).
N_HOUSEHOLDS = 12
VCAS = ("zoom", "meet")
USE_CASES = ("two-party", "five-party-gallery")

#: Absolute tolerance of the population-mean baseline gate.
BASELINE_TOLERANCE = 0.15


@pytest.fixture(scope="module")
def table(bench_store):
    """The population sweep the tests share."""
    return run_barometer_sweep(
        n_households=N_HOUSEHOLDS,
        vcas=VCAS,
        use_cases=USE_CASES,
        duration_s=BENCH_DURATION_S,
        seed=0,
        store=bench_store,
    )


def _rows(table) -> list[dict[str, Any]]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def _mean_index(rows, **filters) -> float:
    values = [
        row["quality_index"]
        for row in rows
        if all(row[key] == value for key, value in filters.items())
    ]
    return statistics.mean(values)


def test_bench_barometer_population_sweep(table):
    """The population grid completes and every index is a sane score."""
    rows = _rows(table)
    assert len(rows) == N_HOUSEHOLDS * len(VCAS) * len(USE_CASES)
    for row in rows:
        assert math.isfinite(row["quality_index"]), row
        assert 0.0 <= row["quality_index"] <= 1.0, row
    print("\n" + render_tier_scorecard(table, tier_order=tier_names()))
    means = {
        f"{vca}/{case}": _mean_index(rows, vca=vca, use_case=case)
        for vca in VCAS
        for case in USE_CASES
    }
    # Recorded-baseline gate: the grid is deterministic, so a drift beyond
    # the tolerance means the simulator or a formula changed materially --
    # re-record the baseline deliberately if that was the point.
    baseline = load_baseline("barometer").get("population_sweep", {})
    recorded = baseline.get(f"duration={BENCH_DURATION_S:g}", {})
    for key, value in means.items():
        if key in recorded:
            assert abs(value - recorded[key]) <= BASELINE_TOLERANCE, (
                f"{key} population mean {value:.4f} drifted more than "
                f"{BASELINE_TOLERANCE} from the recorded {recorded[key]:.4f}"
            )
    record_bench_result(
        "barometer",
        "population_sweep",
        duration_s=BENCH_DURATION_S,
        households=N_HOUSEHOLDS,
        cells=len(rows),
        population_means=means,
        campaign=table.campaign_stats,
    )


def test_bench_barometer_access_gradient(table):
    """Constrained LTE in a gallery scores far below fiber on a 1:1 call."""
    rows = _rows(table)
    fiber = _mean_index(rows, tier="fiber", use_case="two-party")
    constrained = _mean_index(
        rows, tier="constrained-lte", use_case="five-party-gallery"
    )
    print(f"\nfiber two-party={fiber:.4f} constrained-lte five-party={constrained:.4f} "
          f"gap={fiber - constrained:+.4f}")
    assert fiber - constrained >= 0.2, (fiber, constrained)
    record_bench_result(
        "barometer",
        "access_gradient",
        duration_s=BENCH_DURATION_S,
        fiber_two_party=fiber,
        constrained_lte_five_party=constrained,
        gap=fiber - constrained,
    )


def test_bench_barometer_use_case_gradient(table):
    """For every VCA the five-party population mean trails the two-party mean."""
    rows = _rows(table)
    gaps = {}
    for vca in VCAS:
        two = _mean_index(rows, vca=vca, use_case="two-party")
        five = _mean_index(rows, vca=vca, use_case="five-party-gallery")
        gaps[vca] = two - five
        print(f"\n{vca}: two-party={two:.4f} five-party={five:.4f} gap={two - five:+.4f}")
        assert five < two - 0.02, (vca, two, five)
    record_bench_result(
        "barometer",
        "use_case_gradient",
        duration_s=BENCH_DURATION_S,
        gaps=gaps,
    )


def test_bench_barometer_scorecard_verdicts(table):
    """The scorecard's verdict column reflects the tier gradient."""
    card = tier_scorecard(table, tier_order=tier_names())
    verdicts = {
        (row[0], row[2]): row[-1] for row in card.rows
    }
    print("\n" + "\n".join(f"  {key}: {verdict}" for key, verdict in sorted(verdicts.items())))
    # Fiber sustains a two-party call outright; the constrained-LTE gallery
    # never earns a clean "yes".
    assert verdicts[("fiber", "two-party")] == "yes"
    assert verdicts[("constrained-lte", "five-party-gallery")] != "yes"
    record_bench_result(
        "barometer",
        "scorecard_verdicts",
        duration_s=BENCH_DURATION_S,
        verdicts={f"{tier}/{case}": verdict for (tier, case), verdict in verdicts.items()},
    )
