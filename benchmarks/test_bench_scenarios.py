"""Recorded-target benchmarks for the netem scenario library.

Unlike the figure benchmarks (which pin the paper's numbers), these pin the
*physics* the netem subsystem adds -- and since PR 5 they do it through the
committed :data:`repro.calibrate.targets.SCENARIO_TARGETS`: every
directional assertion (bursty loss at equal mean freezes video where i.i.d.
does not, a trace-driven LTE uplink keeps the controller re-deciding where
static shaping does not, CoDel tames the standing queue that drop-tail
bufferbloats) is a recorded threshold scored with a margin, so a regression
that shrinks an effect without flipping its sign still fails loudly.

All target tests share one :func:`repro.calibrate.verify.verify_scenarios`
run (three seeds, aggregated as means) so each referenced scenario is
simulated at most once per session -- or not at all when
``REPRO_RESULT_STORE`` points at a warm result store, which is how the CI
scenario-smoke job re-scores an unchanged scenario pack from cache.
Margins hold at both ``REPRO_BENCH_DURATION=10`` and the default 45.
Results are emitted to ``BENCH_scenarios.json`` for the CI artifact.
"""

from __future__ import annotations

from typing import Any, Optional

from bench_io import record_bench_result
from conftest import BENCH_DURATION_S, run_once

from repro.calibrate.targets import SCENARIO_TARGETS
from repro.calibrate.verify import verify_scenarios
from repro.experiments.scenario import run_scenario_sweep
from repro.results import store_from_env

#: Seeds aggregated by the shared verification run.
SEEDS = (0, 1, 2)

_REPORT: Optional[dict[str, Any]] = None


def scenario_target_report() -> dict[str, Any]:
    """The shared margin report (memoized; store-aware via the env var)."""
    global _REPORT
    if _REPORT is None:
        _REPORT = verify_scenarios(
            duration_s=BENCH_DURATION_S,
            repetitions=len(SEEDS),
            store=store_from_env(),
        )
    return _REPORT


def _target_row(report: dict[str, Any], name: str) -> dict[str, Any]:
    return next(row for row in report["results"] if row["name"] == name)


def test_bench_scenario_pack_smoke():
    """The paper-baseline pack runs end to end and produces sane metrics."""
    table = run_once(
        run_scenario_sweep,
        tag="paper-baseline",
        duration_s=BENCH_DURATION_S,
        repetitions=1,
        store=store_from_env(),
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


def test_bench_bursty_loss_beats_iid_at_equal_mean():
    """Gilbert-Elliott bursts freeze the video; i.i.d. at the same mean does not."""
    report = run_once(scenario_target_report)
    gap = _target_row(report, "bursty-vs-iid-freeze-gap")
    floor = _target_row(report, "bursty-freeze-floor")
    print(f"\nfreeze-gap margin={gap['margin']:+.4f} floor margin={floor['margin']:+.4f}")
    # FEC/recovery absorbs isolated losses but not ~24-packet bursts; the
    # 8% mean is identical on both sides, and the committed threshold keeps
    # a recorded gap, not just a sign.
    assert gap["margin"] > 0.0, gap
    assert floor["margin"] > 0.0, floor
    record_bench_result(
        "scenarios",
        "bursty_vs_iid_loss",
        duration_s=BENCH_DURATION_S,
        freeze_gap=gap["value"],
        freeze_gap_margin=gap["margin"],
        bursty_freeze=floor["value"],
    )


def test_bench_lte_trace_forces_more_rate_switches():
    """A trace-driven LTE uplink keeps the controller re-deciding; static shaping does not."""
    report = run_once(scenario_target_report)
    row = _target_row(report, "lte-vs-static-rate-switches")
    print(f"\nrate-switch gap={row['value']:.2f} (threshold {row['threshold']}) "
          f"margin={row['margin']:+.4f}")
    assert row["margin"] > 0.0, row
    record_bench_result(
        "scenarios",
        "lte_vs_static_switches",
        duration_s=BENCH_DURATION_S,
        switch_gap=row["value"],
        switch_gap_margin=row["margin"],
    )


def test_bench_codel_tames_the_standing_queue():
    """CoDel cuts the shaped link's queueing delay without starving throughput."""
    report = run_once(scenario_target_report)
    delay = _target_row(report, "codel-vs-droptail-queue-delay")
    ratio = _target_row(report, "codel-throughput-ratio")
    print(f"\nqueue-delay gap={delay['value']:.3f}s margin={delay['margin']:+.4f} | "
          f"throughput ratio={ratio['value']:.3f} margin={ratio['margin']:+.4f}")
    assert delay["margin"] > 0.0, delay
    assert ratio["margin"] > 0.0, ratio
    record_bench_result(
        "scenarios",
        "codel_vs_droptail",
        duration_s=BENCH_DURATION_S,
        queue_delay_gap_s=delay["value"],
        queue_delay_margin=delay["margin"],
        throughput_ratio=ratio["value"],
        throughput_ratio_margin=ratio["margin"],
    )


def test_bench_all_scenario_targets_satisfied():
    """Every committed scenario target scores a positive margin."""
    report = run_once(scenario_target_report)
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
        margins=report["margins"],
    )
