"""Scoring the committed scenario targets: ``verify_scenarios``.

:data:`~repro.calibrate.targets.SCENARIO_TARGETS` record the directional
physics of the netem scenario library (bursty loss freezes video where
i.i.d. does not, a trace-driven LTE uplink forces more rate switches than
static shaping, CoDel tames the standing queue) as thresholds with
margins.  :func:`verify_scenarios` runs every scenario a target references
over the campaign pool -- consulting the result store first, so an
unchanged scenario pack re-scores from cache instead of re-simulating --
and reports one value and margin per target.

This is the ``verify_scenarios`` entry point the CI scenario-smoke job,
the nightly full-duration gate, and ``examples/scenario_explorer.py
--verify-targets`` all call.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.calibrate.sweep import write_calibration_report
from repro.calibrate.targets import SCENARIO_TARGETS, Target, score_targets, targets_payload
from repro.core.campaign import CampaignPolicy, run_campaign

__all__ = ["verify_scenarios", "target_scenario_names"]

#: Seeds aggregated per scenario (repetition ``i`` runs with ``seed + i``),
#: matching the scenario benchmarks' three-seed aggregation.
DEFAULT_REPETITIONS = 3


def target_scenario_names(
    targets: Optional[Sequence[Target]] = None,
) -> list[str]:
    """Every registered scenario the (selected) targets reference, sorted."""
    if targets is None:
        targets = SCENARIO_TARGETS
    return sorted({scenario for target in targets for scenario, _ in target.reads()})


def verify_scenarios(
    duration_s: Optional[float] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union[str, Path, None, Any] = None,
    use_cache: bool = True,
    output_path: Union[str, Path, None] = None,
    policy: Optional[CampaignPolicy] = None,
    progress: Union[bool, None] = None,
    hosts: Optional[int] = None,
    targets: Optional[Sequence[Target]] = None,
) -> dict[str, Any]:
    """Score the committed scenario targets; return the margin report.

    ``targets`` restricts the run to a subset of
    :data:`~repro.calibrate.targets.SCENARIO_TARGETS` (only the scenarios
    those targets reference are simulated); the default scores them all.

    Runs every referenced scenario ``repetitions`` times (seeds ``seed`` ..
    ``seed + repetitions - 1``), aggregates each metric as the mean over
    repetitions, and scores every :class:`~repro.calibrate.targets.Target`.  ``store`` makes
    the run incremental (and an interrupted run resumable); ``duration_s=None``
    uses each spec's own duration (the full-duration nightly gate).
    ``policy`` holds the campaign fault-tolerance controls (timeouts,
    bounded retries, quarantine).

    The report records per-target values, thresholds and margins plus the
    per-scenario aggregated metrics; ``satisfied`` is ``True`` only when
    every margin is positive *and* no unit was quarantined.  A scenario
    that lost a repetition to quarantine is named under ``quarantined``;
    one that lost every repetition has no metrics, and the targets that
    read it are left unscored while the others are still scored.  The campaign's
    execution counters (retries, timeouts, crashes, quarantined units) land
    under ``report["campaign"]`` as provenance for SCENARIO_MARGINS.json;
    a ``hosts=N`` run (lease-coordinated multi-host fan-out) additionally
    records each host's claim/steal/fence counters under
    ``report["campaign"]["hosts"]``.
    """
    # Imported lazily for the same reason as repro.calibrate.sweep: the
    # experiment drivers import the VCA layer, which reads the calibration
    # constants at import time -- a top-level import would cycle.
    from repro.experiments.scenario import scenario_conditions

    if targets is None:
        targets = SCENARIO_TARGETS
    targets = tuple(targets)
    names = target_scenario_names(targets)
    conditions = scenario_conditions(
        names, duration_s=duration_s, repetitions=repetitions, seed=seed
    )
    results = run_campaign(
        conditions,
        workers=workers,
        store=store,
        use_cache=use_cache,
        policy=policy,
        progress=progress,
        hosts=hosts,
    )
    metrics_by_scenario: dict[str, dict[str, float]] = {}
    quarantined = []
    for result in results:
        if len(result.runs) < repetitions:
            quarantined.append(result.condition.name)
        if not result.runs:  # every repetition quarantined
            continue
        keys = sorted({key for run in result.runs for key in run})
        metrics_by_scenario[result.condition.name] = {
            key: result.mean(key) for key in keys
        }

    scores = score_targets(targets, metrics_by_scenario)
    margins = scores["margins"]
    target_rows = [
        {
            "name": target.name,
            "value": scores["values"][target.name],
            "op": target.op,
            "threshold": target.threshold,
            "margin": margins[target.name],
            "satisfied": margins[target.name] > 0.0,
        }
        for target in targets
        if target.name in margins
    ]

    report = {
        "mode": "verify_scenarios",
        "satisfied": (
            all(margin > 0.0 for margin in margins.values()) and results.failures.ok
        ),
        **scores,
        "results": target_rows,
        "metrics_by_scenario": metrics_by_scenario,
        **({"quarantined": quarantined} if quarantined else {}),
        "targets": targets_payload(targets),
        "campaign": {
            "stats": results.stats.as_dict(),
            "quarantined": results.failures.as_dict(),
            **({"hosts": results.hosts} if results.hosts else {}),
        },
        "settings": {
            "duration_s": duration_s,
            "repetitions": repetitions,
            "seed": seed,
            **({"hosts": hosts} if hosts is not None else {}),
        },
        "recorded_at": time.time(),
    }
    if output_path is not None:
        write_calibration_report(report, output_path)
    return report
