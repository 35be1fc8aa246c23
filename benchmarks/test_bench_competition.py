"""Recorded-target benchmarks for the competition scenario pack.

The ``competition`` pack expresses the paper's Section 5 cross-traffic
cells through the scenario API's ``workload`` axis (a competing VCA call,
bulk TCP, a streaming player sharing the measured client's access link).
These gates pin the pack's directional physics over three seeds:

* Teams stays passive -- but not starved -- against a competing Zoom call
  on the 0.5 Mbps drop-tail cell (the fig10 calibration condition, now a
  recorded share band),
* CoDel shifts downlink share from the loss-averse TCP competitor to the
  loss-tolerant VCA relative to the drop-tail control,
* a downlink-only competitor (TCP bulk, Netflix ABR) never displaces the
  measured call's uplink.

With ``REPRO_RESULT_STORE`` pointing at a warm store (the CI scenario-smoke
job) the pack re-scores from cache.  Results are emitted to
``BENCH_competition.json`` for the CI artifact.
"""

from __future__ import annotations

from typing import Any, Optional

from bench_io import record_bench_result
from conftest import BENCH_DURATION_S, run_once

from repro.experiments.scenario import WORKLOAD_SWEEP_METRICS, run_scenario_sweep
from repro.results import store_from_env

#: Repetition seeds aggregated by the shared pack sweep.
SEEDS = (0, 1, 2)

_TABLE: Optional[Any] = None


def competition_table():
    """The shared three-seed pack sweep (memoized; store-aware via the env)."""
    global _TABLE
    if _TABLE is None:
        _TABLE = run_scenario_sweep(
            tag="competition",
            duration_s=BENCH_DURATION_S,
            repetitions=len(SEEDS),
            store=store_from_env(),
        )
    return _TABLE


def _rows(table) -> dict[str, dict[str, Any]]:
    return {row[0]: dict(zip(table.columns[1:], row[1:])) for row in table.rows}


def test_bench_competition_pack_smoke():
    """The pack runs end to end with sane competition columns everywhere."""
    table = run_once(competition_table)
    print("\n" + table.to_text())
    rows = _rows(table)
    assert len(rows) >= 4
    for metric in WORKLOAD_SWEEP_METRICS:
        assert metric in table.columns
    for name, metrics in rows.items():
        assert 0.0 <= metrics["share_up"] <= 1.0, name
        assert 0.0 <= metrics["share_down"] <= 1.0, name
        assert metrics["competitor_down_mbps"] > 0.0, name
        assert metrics["median_up_mbps"] > 0.0, name
    record_bench_result(
        "competition",
        "pack_sweep",
        duration_s=BENCH_DURATION_S,
        rows=rows,
    )


def test_bench_teams_passive_but_not_starved_vs_zoom():
    """The fig10 cell as a share band: Teams under 60% but above 15%."""
    rows = _rows(run_once(competition_table))
    share = rows["competition/teams-vs-zoom-droptail"]["share_down"]
    print(f"\nteams-vs-zoom downlink share={share:.4f} (band 0.15..0.60)")
    assert share < 0.60, "Teams stopped yielding to the competing Zoom call"
    assert share > 0.15, "Teams collapsed against the competing Zoom call"
    record_bench_result(
        "competition",
        "teams_vs_zoom_share_band",
        duration_s=BENCH_DURATION_S,
        share_down=share,
    )


def test_bench_codel_shifts_share_from_tcp_to_vca():
    """CoDel's early drops cost CUBIC more than the VCA (vs drop-tail)."""
    rows = _rows(run_once(competition_table))
    codel = rows["competition/zoom-vs-tcp-codel"]["share_down"]
    droptail = rows["competition/zoom-vs-tcp-droptail"]["share_down"]
    print(f"\nvca share under TCP bulk: codel={codel:.4f} droptail={droptail:.4f} "
          f"gap={codel - droptail:+.4f}")
    assert codel > droptail, "CoDel no longer favours the VCA over TCP bulk"
    record_bench_result(
        "competition",
        "codel_vs_droptail_vca_share",
        duration_s=BENCH_DURATION_S,
        codel_share_down=codel,
        droptail_share_down=droptail,
        gap=codel - droptail,
    )


def test_bench_downlink_competitors_spare_the_uplink():
    """TCP bulk and Netflix contend downstream only; the call keeps its uplink."""
    rows = _rows(run_once(competition_table))
    tcp = rows["competition/zoom-vs-tcp-droptail"]["share_up"]
    netflix = rows["competition/netflix-vs-zoom-lte"]["share_up"]
    print(f"\nuplink share: vs tcp_bulk={tcp:.4f}, vs netflix-on-lte={netflix:.4f}")
    assert tcp > 0.8
    assert netflix > 0.8
    record_bench_result(
        "competition",
        "uplink_untouched",
        duration_s=BENCH_DURATION_S,
        share_up_vs_tcp=tcp,
        share_up_vs_netflix=netflix,
    )
