"""Golden sweep-table merges: the four mean-only table builders vs committed digests.

Every scenario-backed sweep turns stored per-repetition metrics into one
aggregate per cell.  This test pins that merge for the four builders that
read only the mean -- ``run_scenario_sweep`` (plain and use-case scored),
the barometer sweep, ``verify_scenarios`` and the cascade sweep -- without
simulating anything: ``run_campaign`` is replaced in each builder's module
by a fake that returns a fixed :class:`CampaignOutcome` of synthetic
:class:`ConditionResult` s.

The synthetic runs are seeded per condition name.  Each condition has 1-12
repetitions (so n >= 8 reaches numpy's pairwise summation), values span
sixteen orders of magnitude with both signs, include ``-0.0`` and integer
counters, one metric is missing from every third repetition, and a few
optional metrics are missing from whole conditions (the NaN columns).  The
digest is the sha256 of the canonical JSON of the table's columns and rows
(``metrics_by_scenario`` and margins for ``verify_scenarios``), so a merge
that moves any aggregate by one ulp shows here.

Re-record (only when results are meant to change)::

    PYTHONPATH=src python tests/test_merge_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.barometer.campaign import BAROMETER_METRICS, run_barometer_sweep
from repro.calibrate.verify import verify_scenarios
from repro.core.campaign import (
    CampaignOutcome,
    CampaignStats,
    ConditionResult,
    FailureReport,
)
from repro.experiments.cascade import CASCADE_CORE_METRICS, run_cascade_sweep
from repro.experiments.scenario import (
    SWEEP_METRICS,
    WORKLOAD_SWEEP_METRICS,
    run_scenario_sweep,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "merge_golden.json"

#: Present in every repetition (the scenario targets read several of these).
CORE_METRICS = tuple(sorted({
    *SWEEP_METRICS,
    *BAROMETER_METRICS,
    *CASCADE_CORE_METRICS,
    "mean_queue_delay_s",
    "share_up",
    "share_down",
}))
#: Missing from every third repetition (repetitions 1, 4, 7, 10).
SPARSE_METRIC = "tx_loss_rate"
#: Each present in a whole condition or absent from it, by seeded coin flip.
OPTIONAL_METRICS = (
    "competitor_down_mbps",
    "competitor_up_mbps",
    *(f"cascade_freeze_ratio_R{k}" for k in range(4)),
)
assert SPARSE_METRIC in CORE_METRICS
assert set(WORKLOAD_SWEEP_METRICS) <= {*CORE_METRICS, *OPTIONAL_METRICS}


def _value(rng: random.Random) -> float:
    draw = rng.random()
    if draw < 0.1:
        return -0.0
    if draw < 0.2:
        return rng.randint(0, 40)  # integer counters, as the store hands them back
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-8, 8)


def synthetic_runs(name: str) -> list[dict[str, float]]:
    """The fixed per-repetition metrics of one condition."""
    rng = random.Random(f"merge-golden:{name}")
    n = rng.randint(1, 12)
    present = [metric for metric in OPTIONAL_METRICS if rng.random() < 0.5]
    runs = []
    for rep in range(n):
        run = {metric: _value(rng) for metric in (*CORE_METRICS, *present)}
        if rep % 3 == 1:
            del run[SPARSE_METRIC]
        runs.append(run)
    return runs


def _fake_run_campaign(conditions, **_kwargs) -> CampaignOutcome:
    outcome = CampaignOutcome(
        ConditionResult(condition=condition, runs=synthetic_runs(condition.name))
        for condition in conditions
    )
    outcome.stats = CampaignStats(units=sum(len(result.runs) for result in outcome))
    outcome.failures = FailureReport()
    outcome.hosts = None
    return outcome


def _digest(observation) -> str:
    text = json.dumps(observation, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table(module: str, build) -> dict:
    with mock.patch(f"{module}.run_campaign", _fake_run_campaign):
        table = build()
    columns = list(table.columns)
    rows = [list(row) for row in table.rows]
    return {
        "columns": columns,
        "rows": len(rows),
        "digest": _digest({"columns": columns, "rows": rows}),
    }


def _verify() -> dict:
    with mock.patch("repro.calibrate.verify.run_campaign", _fake_run_campaign):
        report = verify_scenarios()
    return {
        "scenarios": sorted(report["metrics_by_scenario"]),
        "digest": _digest(
            {"metrics_by_scenario": report["metrics_by_scenario"], "margins": report["margins"]}
        ),
    }


CELLS = {
    "scenario_sweep/all-scored-two-party": lambda: _table(
        "repro.experiments.scenario",
        lambda: run_scenario_sweep(score_use_case="two-party"),
    ),
    "scenario_sweep/paper-baseline": lambda: _table(
        "repro.experiments.scenario",
        lambda: run_scenario_sweep(tag="paper-baseline"),
    ),
    "barometer_sweep/6-households": lambda: _table(
        "repro.barometer.campaign",
        lambda: run_barometer_sweep(n_households=6, seed=3),
    ),
    "cascade_sweep/cascade-pack": lambda: _table(
        "repro.experiments.cascade",
        run_cascade_sweep,
    ),
    "verify_scenarios/all-targets": _verify,
}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_merge_cell_matches_golden(cell):
    assert CELLS[cell]() == _golden()["cells"][cell]


def test_golden_covers_every_cell():
    assert sorted(_golden()["cells"]) == sorted(CELLS)


def test_synthetic_runs_reach_the_edge_cases():
    """The fixture exercises n=1, numpy's pairwise path (n >= 8) and -0.0."""
    from repro.netem.scenarios import list_scenarios

    counts = {len(synthetic_runs(spec.name)) for spec in list_scenarios()}
    assert 1 in counts and max(counts) >= 8
    values = [
        value for spec in list_scenarios() for run in synthetic_runs(spec.name)
        for value in run.values()
    ]
    assert any(str(value) == "-0.0" for value in values)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_merge_golden.py --record")
    cells = {name: CELLS[name]() for name in sorted(CELLS)}
    GOLDEN_PATH.write_text(
        json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} ({len(cells)} cells)")
