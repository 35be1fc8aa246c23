"""Cascaded-SFU topology sweeps (beyond-paper, cascade pack).

``run_cascade_sweep`` is the campaign driver behind the ``cascade_sweep``
experiment id: it fans the ``cascade``-tagged scenarios of the netem
registry over :func:`repro.core.campaign.run_campaign` and tabulates, next
to the scenario library's core metrics, the cascade-specific ones -- the
per-region freeze ratios, the near/far freeze gap and the trunk utilisation
and loss aggregates that single-server scenarios cannot express.

Like ``scenario_sweep`` the grid is incremental with ``store=``: every
``(scenario, repetition)`` cell is content-addressed by the resolved spec
payload, so editing one cascade cell re-simulates exactly that cell.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.results.store import ResultStore

from repro.core.campaign import CampaignPolicy, run_campaign
from repro.core.results import TableResult
from repro.experiments.scenario import scenario_conditions
from repro.netem.scenarios import get_scenario, list_scenarios

__all__ = ["run_cascade_sweep", "CASCADE_CORE_METRICS"]

#: Scalar metrics reported per cascade scenario (mean over repetitions).
CASCADE_CORE_METRICS = (
    "median_up_mbps",
    "median_down_mbps",
    "freeze_ratio",
    "cascade_freeze_gap",
    "trunk_mean_mbps",
    "trunk_tx_loss_rate",
)


def run_cascade_sweep(
    scenarios: Optional[Sequence[str]] = None,
    duration_s: Optional[float] = None,
    repetitions: int = 2,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union["ResultStore", str, Path, None] = None,
    use_cache: bool = True,
    policy: Optional[CampaignPolicy] = None,
    progress: Union[bool, None] = None,
    hosts: Optional[int] = None,
) -> TableResult:
    """Run the cascade scenario pack and tabulate per-region metrics.

    ``scenarios`` selects cascade scenarios by name; by default every
    scenario tagged ``cascade`` runs.  Scenarios without a cascade axis are
    rejected -- their metric payloads carry no per-region columns.  The
    per-region freeze columns span the widest selected cascade; narrower
    cascades report ``nan`` for regions they do not have.
    """
    if scenarios is not None:
        specs = [get_scenario(name) for name in scenarios]
    else:
        specs = list_scenarios(tag="cascade")
    if not specs:
        raise ValueError("no cascade scenarios selected")
    for spec in specs:
        if spec.cascade is None:
            raise ValueError(
                f"scenario {spec.name!r} has no cascade axis; use scenario_sweep"
            )
    max_regions = max(int(spec.cascade[1].get("regions", 2)) for spec in specs)
    region_metrics = tuple(f"cascade_freeze_ratio_R{k}" for k in range(max_regions))

    conditions = scenario_conditions(
        [spec.name for spec in specs],
        duration_s=duration_s,
        repetitions=repetitions,
        seed=seed,
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
    metrics = CASCADE_CORE_METRICS + region_metrics
    table = TableResult(
        table_id="cascade_sweep",
        title="Cascaded SFU topology sweep (netem trunks)",
        columns=("scenario", *metrics),
    )
    for result in results:
        if not result.runs:  # every repetition quarantined
            continue
        row = [result.condition.name]
        for metric in metrics:
            values = result.metric_values(metric)
            row.append(result.mean(metric) if values else math.nan)
        table.add_row(*row)
    table.campaign_stats = results.stats.as_dict()
    table.failure_report = results.failures
    table.campaign_hosts = results.hosts
    return table
