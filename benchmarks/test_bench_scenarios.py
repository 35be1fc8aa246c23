"""Benchmarks for the netem scenario library.

The paper-baseline pack runs end to end, and every committed scenario
target (:data:`repro.calibrate.targets.SCENARIO_TARGETS`: bursty loss at
equal mean freezes video where i.i.d. does not, a trace-driven LTE uplink
keeps the controller re-deciding, CoDel tames the standing queue without
starving throughput, the competition and barometer claims) scores a
positive margin over one :func:`repro.calibrate.verify.verify_scenarios`
run (three seeds, aggregated as means).  Each threshold lives in the
target table only.  Units go through the session store, so scenarios
another benchmark ran are not simulated again, and a warm
``REPRO_RESULT_STORE`` (the CI scenario-smoke job) re-scores from cache.
Margins hold at both ``REPRO_BENCH_DURATION=10`` and the default 45.
Results are emitted to ``BENCH_scenarios.json`` for the CI artifact.
"""

from __future__ import annotations

from bench_io import record_bench_result
from conftest import BENCH_DURATION_S

from repro.calibrate.targets import SCENARIO_TARGETS
from repro.calibrate.verify import verify_scenarios
from repro.experiments.scenario import run_scenario_sweep

#: Seeds aggregated by the verification run.
SEEDS = (0, 1, 2)


def test_bench_scenario_pack_smoke(bench_store):
    """The paper-baseline pack runs end to end and produces sane metrics."""
    table = run_scenario_sweep(
        tag="paper-baseline",
        duration_s=BENCH_DURATION_S,
        repetitions=1,
        store=bench_store,
    )
    print("\n" + table.to_text())
    assert len(table.rows) >= 4
    by_name = {row[0]: dict(zip(table.columns[1:], row[1:])) for row in table.rows}
    for name, metrics in by_name.items():
        assert metrics["median_up_mbps"] > 0.0, name
        assert metrics["median_down_mbps"] > 0.0, name
    # The shaped uplink scenario is actually capacity-limited.
    assert by_name["paper/static-0.5up-zoom"]["median_up_mbps"] < 0.55
    record_bench_result(
        "scenarios",
        "paper_baseline_pack",
        duration_s=BENCH_DURATION_S,
        rows={name: metrics for name, metrics in by_name.items()},
    )


def test_bench_all_scenario_targets_satisfied(bench_store):
    """Every committed scenario target scores a positive margin."""
    report = verify_scenarios(
        duration_s=BENCH_DURATION_S, repetitions=len(SEEDS), store=bench_store
    )
    failing = [row for row in report["results"] if not row["satisfied"]]
    print("\n" + "\n".join(
        f"  [{'ok  ' if row['satisfied'] else 'FAIL'}] {row['name']:34s} "
        f"value={row['value']:8.4f} {row['op']} {row['threshold']:<8g} "
        f"margin={row['margin']:+.4f}"
        for row in report["results"]
    ))
    assert report["satisfied"], failing
    assert len(report["results"]) == len(SCENARIO_TARGETS)
    record_bench_result(
        "scenarios",
        "scenario_targets",
        duration_s=BENCH_DURATION_S,
        satisfied=report["satisfied"],
        values=report["values"],
        margins=report["margins"],
    )
