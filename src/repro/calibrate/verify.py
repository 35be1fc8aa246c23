"""Scoring the committed scenario targets: ``verify_scenarios``.

The netem scenario benchmarks pin *directions* (bursty loss freezes video
where i.i.d. does not, a trace-driven LTE uplink forces more rate switches
than static shaping, CoDel tames the standing queue).  The committed
:data:`~repro.calibrate.targets.SCENARIO_TARGETS` promote those directions
into recorded values with margins; :func:`verify_scenarios` runs every
scenario a target references over the campaign pool -- consulting the
result store first, so an unchanged scenario pack re-scores from cache
instead of re-simulating -- and reports one margin per target.

This is the ``verify_scenarios`` entry point the CI scenario-smoke job,
the nightly full-duration gate, and ``examples/scenario_explorer.py
--verify-targets`` all call.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.calibrate.targets import (
    SCENARIO_TARGETS,
    ScenarioTarget,
    score_scenario_metrics,
)
from repro.core.campaign import CampaignPolicy, run_campaign

__all__ = ["verify_scenarios", "target_scenario_names", "write_scenario_report"]

#: Seeds aggregated per scenario (repetition ``i`` runs with ``seed + i``),
#: matching the scenario benchmarks' three-seed aggregation.
DEFAULT_REPETITIONS = 3


def target_scenario_names(
    targets: Optional[Sequence[ScenarioTarget]] = None,
) -> list[str]:
    """Every registered scenario the (selected) targets reference, sorted."""
    if targets is None:
        targets = SCENARIO_TARGETS
    names = set()
    for target in targets:
        names.add(target.scenario)
        if target.baseline is not None:
            names.add(target.baseline)
    return sorted(names)


def _targets_payload(targets: Sequence[ScenarioTarget]) -> list[dict[str, Any]]:
    return [
        {
            "name": t.name,
            "metric": t.metric,
            "scenario": t.scenario,
            "baseline": t.baseline,
            **({"baseline_metric": t.baseline_metric} if t.baseline_metric else {}),
            "mode": t.mode,
            "op": t.op,
            "threshold": t.threshold,
            "note": t.note,
            "recorded": dict(t.recorded),
        }
        for t in targets
    ]


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
    targets: Optional[Sequence[ScenarioTarget]] = None,
) -> dict[str, Any]:
    """Score the committed scenario targets; return the margin report.

    ``targets`` restricts the run to a subset of
    :data:`~repro.calibrate.targets.SCENARIO_TARGETS` (only the scenarios
    those targets reference are simulated); the default scores them all.

    Runs every referenced scenario ``repetitions`` times (seeds ``seed`` ..
    ``seed + repetitions - 1``), aggregates each metric as the mean over
    repetitions, and scores every :class:`ScenarioTarget`.  ``store`` makes
    the run incremental (and an interrupted run resumable); ``duration_s=None``
    uses each spec's own duration (the full-duration nightly gate).
    ``policy`` holds the campaign fault-tolerance controls (timeouts,
    bounded retries, quarantine).

    The report records per-target values, thresholds and margins plus the
    per-scenario aggregated metrics; ``satisfied`` is ``True`` only when
    every margin is positive *and* no unit was quarantined.  The campaign's
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
    for result in results:
        if not result.runs:  # every repetition quarantined
            continue
        keys = sorted({key for run in result.runs for key in run})
        metrics_by_scenario[result.condition.name] = {
            key: result.mean(key) for key in keys
        }

    margins = score_scenario_metrics(metrics_by_scenario, targets)
    target_rows = []
    for target in targets:
        value = target.value(metrics_by_scenario)
        target_rows.append(
            {
                "name": target.name,
                "value": value,
                "op": target.op,
                "threshold": target.threshold,
                "margin": margins[target.name],
                "satisfied": margins[target.name] > 0.0,
            }
        )

    report = {
        "mode": "verify_scenarios",
        "satisfied": (
            all(margin > 0.0 for margin in margins.values()) and results.failures.ok
        ),
        "margins": margins,
        "results": target_rows,
        "metrics_by_scenario": metrics_by_scenario,
        "targets": _targets_payload(targets),
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
        write_scenario_report(report, output_path)
    return report


def write_scenario_report(report: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Write a scenario margin report as pretty-printed JSON."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out
