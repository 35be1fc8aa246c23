"""Campaign-driven joint calibration sweep over competition constants.

One *candidate* is a set of overrides on :class:`CompetitionConstants`.
Evaluating a candidate runs every scenario behind the competition figure
targets (fig8 uplink pairs, the fig10 Teams-vs-Zoom downlink pair, the fig12
TCP pairs, fig14 Zoom-vs-Netflix) with the candidate activated, and returns
the named share metrics the targets score.  Each scenario is the Section 5
workload spec the figure drivers run
(:func:`repro.experiments.competition.workload_scenario_spec`), so the
constants are scored on the same shared access link the figures use.  The sweep fans candidates ×
repetitions over :func:`repro.core.campaign.run_campaign`'s process pool --
repetition ``i`` always runs with ``seed + i`` -- picks the winner by
*maximin margin* (largest worst-case margin across targets and repetitions,
among candidates that satisfy every target in every repetition), and writes
``CALIBRATION.json``.

The committed constants are verified -- not swept -- by
``tests/test_calibration.py`` and the CI competition-smoke job via
:func:`verify_committed`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.calibrate.constants import COMMITTED_CONSTANTS, set_active_constants
from repro.calibrate.targets import FIGURE_TARGETS, score_metrics
from repro.core.campaign import Condition, run_campaign

__all__ = [
    "evaluate_candidate",
    "run_calibration_sweep",
    "verify_committed",
    "write_calibration_report",
    "default_grid",
]

#: Duration floor below which the fig14 scoring window would collapse.
MIN_DURATION_S = 20.0


def _effective_duration(competitor_duration_s: float) -> float:
    """The competitor window actually simulated (clamped at the floor)."""
    return max(float(competitor_duration_s), MIN_DURATION_S)


def _targets_payload() -> list[dict[str, object]]:
    """The target definitions as recorded in every calibration report."""
    return [
        {
            "figure": t.figure,
            "key": t.key,
            "metric": t.metric,
            "op": t.op,
            "threshold": t.threshold,
            "paper_note": t.paper_note,
        }
        for t in FIGURE_TARGETS
    ]


def evaluate_candidate(
    seed: int = 0,
    competitor_duration_s: float = 60.0,
    overrides: Optional[Mapping[str, float]] = None,
) -> dict[str, float]:
    """Run every figure-target scenario with a candidate constant set active.

    Module-level and picklable on purpose: this is the ``Condition.fn`` the
    campaign pool executes.  ``overrides`` is applied on top of the committed
    constants; ``None`` evaluates the committed set itself.
    """
    # Imported here, not at module top: the experiment drivers import the VCA
    # layer, which imports repro.calibrate.constants -- a top-level import
    # would cycle during package initialisation.
    from repro.experiments.competition import COMPETITOR_START_S, workload_scenario_spec
    from repro.netem.scenarios import WORKLOAD_CLIENT, WORKLOAD_SERVER, run_scenario

    duration = _effective_duration(competitor_duration_s)
    candidate = COMMITTED_CONSTANTS.replace(**dict(overrides)) if overrides else COMMITTED_CONSTANTS
    previous = set_active_constants(candidate)
    try:
        def run(incumbent: str, kind: str, params: dict[str, Any], capacity_mbps: float):
            spec = workload_scenario_spec(incumbent, kind, params, capacity_mbps, duration)
            return run_scenario(spec, seed=seed, collect_stats=False)

        # The fig10 cell also records Zoom's tx-side downlink loss (relay tx
        # vs client rx), the "floods through sustained 40%+ loss" caveat:
        # the shed constants bound it from above, the paper's measured
        # aggressiveness bounds it from below.
        fig10_run = run("teams", "vca", {"app": "zoom"}, 0.5)
        up, down = {"flows": 1, "direction": "up"}, {"flows": 1, "direction": "down"}
        metrics: dict[str, float] = {
            "fig8_zoom_vs_meet_up": run("zoom", "vca", {"app": "meet"}, 0.5).share("up"),
            "fig8_meet_vs_zoom_up": run("meet", "vca", {"app": "zoom"}, 0.5).share("up"),
            "fig10_teams_vs_zoom_down": fig10_run.share("down"),
            "fig10_zoom_tx_loss": fig10_run.relay_tx_loss(
                WORKLOAD_SERVER, WORKLOAD_CLIENT, "competitor"
            ),
            "fig12_teams_down_share": run("teams", "tcp_bulk", down, 2.0).share("down"),
            "fig12_teams_up_share": run("teams", "tcp_bulk", up, 2.0).share("up"),
            "fig12_zoom_down_share": run("zoom", "tcp_bulk", down, 2.0).share("down"),
        }
        metrics["fig12_zoom_down_minus_teams_down"] = (
            metrics["fig12_zoom_down_share"] - metrics["fig12_teams_down_share"]
        )

        # Fig 14 scores the mean of the per-second downstream bins inside
        # the competition window, as read off the figure's traces.
        fig14_run = run("zoom", "streaming", {"app": "netflix"}, 0.5)
        window = (COMPETITOR_START_S + 13.0, COMPETITOR_START_S + duration - 2.0)

        def mean_mbps(host: str) -> float:
            values = [
                float(y) for x, y in zip(*fig14_run.bitrate_series("rx", host))
                if window[0] <= x <= window[1]
            ]
            return sum(values) / max(len(values), 1)

        metrics["fig14_zoom_mbps"] = mean_mbps("C1")
        metrics["fig14_netflix_mbps"] = mean_mbps(WORKLOAD_CLIENT)
        metrics["fig14_zoom_minus_netflix_mbps"] = (
            metrics["fig14_zoom_mbps"] - metrics["fig14_netflix_mbps"]
        )
        return metrics
    finally:
        set_active_constants(previous)


def default_grid() -> list[dict[str, float]]:
    """The default candidate grid: the knobs the fig10 failure is sensitive to.

    The Teams-vs-Zoom downlink equilibrium is dominated by how hard Zoom's
    relay keeps pushing through standing loss: its estimate floor (how much
    of the SVC ladder never gets shed), its loss tolerance, and how much the
    bursty per-window loss signal is smoothed before the thresholds see it.
    27 candidates -- small enough to sweep locally in a few minutes with a
    handful of workers.
    """
    grid: list[dict[str, float]] = []
    for floor_bps in (480_000.0, 900_000.0, 1_200_000.0):
        for decrease_threshold in (0.30, 0.45, 0.60):
            for smoothing in (0.15, 0.30, 0.45):
                grid.append(
                    {
                        "zoom_relay_min_bitrate_bps": floor_bps,
                        "zoom_relay_loss_decrease_threshold": decrease_threshold,
                        "zoom_relay_loss_smoothing": smoothing,
                    }
                )
    return grid


def run_calibration_sweep(
    candidates: Optional[Sequence[Mapping[str, float]]] = None,
    repetitions: int = 2,
    competitor_duration_s: float = 60.0,
    seed: int = 0,
    workers: Optional[int | str] = None,
    output_path: str | Path | None = "CALIBRATION.json",
) -> dict[str, Any]:
    """Sweep candidates, score them jointly, and write ``CALIBRATION.json``.

    Returns the report dictionary (also written to ``output_path`` unless it
    is ``None``).  The winner maximises the worst-case margin across all
    targets and repetitions among fully satisfying candidates; when no
    candidate satisfies everything, ``winner`` is the least-bad one and
    ``satisfied`` is ``False`` (the report is still written so the failure
    is inspectable).
    """
    duration = _effective_duration(competitor_duration_s)
    grid = [dict(c) for c in (candidates if candidates is not None else default_grid())]
    conditions = [
        Condition(
            name=f"candidate-{index}",
            fn=evaluate_candidate,
            params={
                "overrides": overrides,
                "competitor_duration_s": duration,
            },
            repetitions=repetitions,
            seed=seed,
        )
        for index, overrides in enumerate(grid)
    ]
    results = run_campaign(conditions, workers=workers)

    scored: list[dict[str, Any]] = []
    for overrides, result in zip(grid, results):
        per_rep_margins = [score_metrics(run) for run in result.runs]
        worst_margins = {
            target.key: min(m[target.key] for m in per_rep_margins)
            for target in FIGURE_TARGETS
        }
        scored.append(
            {
                "overrides": overrides,
                "margins": worst_margins,
                "worst_margin": min(worst_margins.values()),
                "satisfied": all(v > 0.0 for v in worst_margins.values()),
                "metrics_per_repetition": [dict(run) for run in result.runs],
            }
        )

    satisfying = [entry for entry in scored if entry["satisfied"]]
    pool = satisfying if satisfying else scored
    winner = max(pool, key=lambda entry: entry["worst_margin"])
    winning_constants = COMMITTED_CONSTANTS.replace(**winner["overrides"])

    report = {
        "mode": "sweep",
        "satisfied": bool(satisfying),
        "winner": {
            "constants": winning_constants.as_dict(),
            "overrides": winner["overrides"],
            "margins": winner["margins"],
            "worst_margin": winner["worst_margin"],
        },
        "targets": _targets_payload(),
        "candidates": scored,
        "settings": {
            "repetitions": repetitions,
            "competitor_duration_s": duration,
            "seed": seed,
            "grid_size": len(grid),
        },
        "recorded_at": time.time(),
    }
    if output_path is not None:
        write_calibration_report(report, output_path)
    return report


def verify_committed(
    competitor_duration_s: float = 60.0,
    seed: int = 0,
    output_path: str | Path | None = None,
) -> dict[str, Any]:
    """Evaluate the *committed* constants against every figure target.

    This is what the tier-1 calibration test and the CI competition-smoke
    job run: no sweep, just the committed set, scored jointly.
    """
    duration = _effective_duration(competitor_duration_s)
    metrics = evaluate_candidate(seed=seed, competitor_duration_s=duration, overrides=None)
    margins = score_metrics(metrics)
    report = {
        "mode": "verify",
        "satisfied": all(v > 0.0 for v in margins.values()),
        "constants": COMMITTED_CONSTANTS.as_dict(),
        "metrics": metrics,
        "margins": margins,
        "targets": _targets_payload(),
        "settings": {"competitor_duration_s": duration, "seed": seed},
        "recorded_at": time.time(),
    }
    if output_path is not None:
        write_calibration_report(report, output_path)
    return report


def write_calibration_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Write a calibration report as pretty-printed JSON."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out
