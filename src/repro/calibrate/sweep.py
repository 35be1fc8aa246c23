"""Joint calibration of the competition constants: a campaign of figure units.

One *candidate* is a set of overrides on :class:`CompetitionConstants`.
Scoring it runs the seven Section 5 cells behind the figure targets
(:data:`CELLS`) as :func:`~repro.experiments.competition.measure_competition_point`
units, the unit Figs 8-14 run, with the overrides in the unit params: they
key the store entry and the unit activates them itself.  The campaign is
candidates x cells x repetitions (repetition ``i`` runs with ``seed + i``)
under the caller's ``run_campaign`` options, and each repetition's cell
payloads are scored against :data:`~repro.calibrate.targets.FIGURE_TARGETS`.
The sweep picks the winner by *maximin margin* (largest worst-case margin
across targets and repetitions, among candidates that satisfy every target
in every repetition) and writes ``CALIBRATION.json``.

:func:`verify_committed` scores the committed constants (tier-1 and CI's
competition-smoke job).  Its units are exactly the figure drivers' units,
so a store warmed by a figure at the same settings serves them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.calibrate.constants import COMMITTED_CONSTANTS
from repro.calibrate.targets import FIGURE_TARGETS, score_targets, targets_payload
from repro.core.campaign import run_campaign
from repro.experiments.competition import COMPETITOR_START_S, competition_conditions

__all__ = [
    "CELLS",
    "run_calibration_sweep",
    "verify_committed",
    "write_calibration_report",
    "default_grid",
]

#: Duration floor below which the fig14 scoring window would collapse.
MIN_DURATION_S = 20.0

#: The Section 5 cells the figure targets read: name -> (incumbent,
#: workload kind, workload params, link capacity in Mbps).
CELLS: dict[str, tuple[str, str, dict[str, Any], float]] = {
    "fig8-zoom-vs-meet": ("zoom", "vca", {"app": "meet"}, 0.5),
    "fig8-meet-vs-zoom": ("meet", "vca", {"app": "zoom"}, 0.5),
    "fig10-teams-vs-zoom": ("teams", "vca", {"app": "zoom"}, 0.5),
    "fig12-teams-down": ("teams", "tcp_bulk", {"flows": 1, "direction": "down"}, 2.0),
    "fig12-teams-up": ("teams", "tcp_bulk", {"flows": 1, "direction": "up"}, 2.0),
    "fig12-zoom-down": ("zoom", "tcp_bulk", {"flows": 1, "direction": "down"}, 2.0),
    "fig14-zoom-vs-netflix": ("zoom", "streaming", {"app": "netflix"}, 0.5),
}


def _cell_metrics(
    payloads: Mapping[str, Mapping[str, Any]], competitor_duration_s: float
) -> dict[str, dict[str, float]]:
    """The keys the figure targets read, per cell, from one repetition's payloads.

    A ``[times, mbps]`` trace key reduces to the mean of its per-second
    bins inside the fig14 window: from 13 s after the competitor starts to
    2 s before it stops.
    """
    start = COMPETITOR_START_S + 13.0
    stop = COMPETITOR_START_S + competitor_duration_s - 2.0
    metrics: dict[str, dict[str, float]] = {}
    for target in FIGURE_TARGETS:
        for cell, key in target.reads():
            value = payloads[cell][key]
            if isinstance(value, list):  # a [times, mbps] trace
                bins = [float(mbps) for t, mbps in zip(*value) if start <= t <= stop]
                value = sum(bins) / max(len(bins), 1)
            metrics.setdefault(cell, {})[key] = float(value)
    return metrics


def _evaluate(
    candidates: Sequence[Optional[Mapping[str, float]]],
    repetitions: int,
    duration: float,
    seed: int,
    **campaign: Any,
) -> list[tuple[list[dict[str, dict[str, float]]], list[str]]]:
    """Run every candidate's cells as one campaign.

    Per candidate, returns the cell metrics of each repetition and the
    cells that lost a repetition to quarantine; a candidate with such a
    cell gets no metrics, since its repetitions no longer pair up.
    """
    conditions = [
        condition
        for overrides in candidates
        for condition in competition_conditions(
            CELLS.values(), duration, repetitions, seed, overrides
        )
    ]
    results = iter(run_campaign(conditions, **campaign))
    evaluated = []
    for _ in candidates:
        runs = {cell: next(results).runs for cell in CELLS}
        quarantined = [cell for cell, cell_runs in runs.items() if len(cell_runs) < repetitions]
        metrics = [] if quarantined else [
            _cell_metrics({cell: cell_runs[rep] for cell, cell_runs in runs.items()}, duration)
            for rep in range(repetitions)
        ]
        evaluated.append((metrics, quarantined))
    return evaluated


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
    output_path: str | Path | None = "CALIBRATION.json",
    **campaign: Any,
) -> dict[str, Any]:
    """Sweep candidates, score them jointly, and write ``CALIBRATION.json``.

    Returns the report dictionary (also written to ``output_path`` unless it
    is ``None``).  The winner maximises the worst-case margin across all
    targets and repetitions among fully satisfying candidates; when no
    candidate satisfies everything, ``winner`` is the least-bad one and
    ``satisfied`` is ``False`` (the report is still written so the failure
    is inspectable).  A candidate with a quarantined cell is listed with
    its ``quarantined`` cells and never wins; ``winner`` is ``None`` when
    no candidate is left.  ``campaign`` is passed to ``run_campaign``.
    """
    duration = max(float(competitor_duration_s), MIN_DURATION_S)
    grid = [dict(c) for c in (candidates if candidates is not None else default_grid())]
    scored: list[dict[str, Any]] = []
    for overrides, (runs, quarantined) in zip(
        grid, _evaluate(grid, repetitions, duration, seed, **campaign)
    ):
        entry: dict[str, Any] = {"overrides": overrides}
        if quarantined:
            entry.update(quarantined=quarantined, satisfied=False)
        else:
            scores = [score_targets(FIGURE_TARGETS, metrics) for metrics in runs]
            margins = {
                name: min(score["margins"][name] for score in scores)
                for name in scores[0]["margins"]
            }
            entry.update(
                values_per_repetition=[score["values"] for score in scores],
                margins=margins,
                worst_margin=min(margins.values()),
                satisfied=all(v > 0.0 for v in margins.values()),
            )
        scored.append(entry)

    satisfying = [entry for entry in scored if entry["satisfied"]]
    pool = satisfying or [entry for entry in scored if "margins" in entry]
    winner = max(pool, key=lambda entry: entry["worst_margin"]) if pool else None

    report = {
        "mode": "sweep",
        "satisfied": bool(satisfying),
        "winner": None if winner is None else {
            "constants": COMMITTED_CONSTANTS.replace(**winner["overrides"]).as_dict(),
            "overrides": winner["overrides"],
            "margins": winner["margins"],
            "worst_margin": winner["worst_margin"],
        },
        "targets": targets_payload(FIGURE_TARGETS),
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
    **campaign: Any,
) -> dict[str, Any]:
    """Evaluate the *committed* constants against every figure target.

    This is what the tier-1 calibration test and the CI competition-smoke
    job run: no sweep, just the committed set, scored jointly.
    ``campaign`` is passed to ``run_campaign``; a cell quarantined under
    ``CampaignPolicy(on_exhausted="quarantine")`` is named under
    ``quarantined`` and leaves the report unsatisfied, without metrics.
    The report holds each target's value and margin, and under
    ``metrics`` the cell keys they were derived from.
    """
    duration = max(float(competitor_duration_s), MIN_DURATION_S)
    ((runs, quarantined),) = _evaluate([None], 1, duration, seed, **campaign)
    metrics = runs[0] if runs else {}
    scores = score_targets(FIGURE_TARGETS, metrics)
    report = {
        "mode": "verify",
        "satisfied": bool(runs) and all(v > 0.0 for v in scores["margins"].values()),
        "constants": COMMITTED_CONSTANTS.as_dict(),
        "metrics": metrics,
        **scores,
        **({"quarantined": quarantined} if quarantined else {}),
        "targets": targets_payload(FIGURE_TARGETS),
        "settings": {"competitor_duration_s": duration, "seed": seed},
        "recorded_at": time.time(),
    }
    if output_path is not None:
        write_calibration_report(report, output_path)
    return report


def write_calibration_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Write a calibration or scenario margin report as pretty-printed JSON."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out
