"""Fan the (household x VCA x use case) grid through the campaign service.

``run_barometer_sweep`` is the driver behind the ``barometer_sweep``
experiment id: it samples (or accepts) a household grid, compiles every
(household, VCA, use case) cell into a :class:`ScenarioSpec`, fans the
cells through :func:`repro.core.campaign.run_campaign` -- with the full
store / supervised-pool / ``hosts=N`` machinery the campaign service
provides -- and tabulates one row per cell with the cell's raw
scenario metrics plus its formula-scored quality index.

Two properties make population scale cheap:

* **Content-addressed cells.** Each cell's store key hashes the *resolved*
  spec payload (profile, impairments, VCA, participants, duration) plus the
  repetition seed, through the same ``scenario_cache_payload`` path the
  registered-scenario sweeps use, so a warm store re-scores a whole
  population without a single simulation.
* **Score-on-aggregate.** The quality index is computed driver-side from
  the cached metric payloads, never inside the work unit -- editing a
  formula re-scores yesterday's simulations for free.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.results.store import ResultStore

from repro.barometer.formula import UseCaseFormula, get_use_case, list_use_cases
from repro.barometer.population import (
    DEFAULT_TIERS,
    Household,
    IspTier,
    household_scenario,
    sample_households,
)
from repro.core.campaign import CampaignPolicy, Condition, run_campaign
from repro.core.results import TableResult
from repro.netem.scenarios import ScenarioSpec, run_scenario

__all__ = [
    "BAROMETER_METRICS",
    "DEFAULT_VCAS",
    "barometer_conditions",
    "run_barometer_sweep",
    "run_household_spec",
]

#: Raw scenario metrics carried per cell next to the quality index.
BAROMETER_METRICS = (
    "freeze_ratio",
    "mean_received_fps",
    "median_down_mbps",
    "median_up_mbps",
    "rate_switches",
    "tx_loss_rate",
    "p95_queue_delay_s",
)

#: VCAs a barometer sweep measures by default.
DEFAULT_VCAS = ("zoom", "meet")


def run_household_spec(
    seed: int, spec: ScenarioSpec, duration_s: Optional[float] = None
) -> dict[str, float]:
    """Campaign work unit: realise one compiled household cell.

    Module-level and keyword-driven so :class:`Condition` pickles it into
    worker processes; the frozen plain-data ``spec`` travels with it.
    """
    return run_scenario(spec, seed=seed, duration_s=duration_s).metrics()


def barometer_conditions(
    households: Sequence[Household],
    vcas: Sequence[str] = DEFAULT_VCAS,
    use_cases: Optional[Sequence[Union[str, UseCaseFormula]]] = None,
    duration_s: Optional[float] = None,
    repetitions: int = 1,
    seed: int = 0,
) -> list[Condition]:
    """One campaign condition per (household, VCA, use case) cell.

    Cells hash via the resolved-spec payload (``scenario_cache_payload``),
    so barometer cells share cache entries with any registered scenario
    that happens to resolve identically.
    """
    from repro.experiments.scenario import scenario_cache_payload

    formulas = [get_use_case(case) for case in (use_cases or list_use_cases())]
    conditions: list[Condition] = []
    for household in households:
        for vca in vcas:
            for formula in formulas:
                spec = household_scenario(household, vca, formula)
                if duration_s is not None:
                    effective = float(duration_s)
                else:
                    effective = spec.duration_s
                conditions.append(
                    Condition(
                        name=spec.name,
                        fn=run_household_spec,
                        params={"spec": spec, "duration_s": effective},
                        repetitions=repetitions,
                        seed=seed,
                        cache_payload=scenario_cache_payload(spec, effective),
                    )
                )
    return conditions


def run_barometer_sweep(
    n_households: int = 200,
    vcas: Sequence[str] = DEFAULT_VCAS,
    use_cases: Optional[Sequence[Union[str, UseCaseFormula]]] = None,
    tiers: Sequence[IspTier] = DEFAULT_TIERS,
    households: Optional[Sequence[Household]] = None,
    duration_s: Optional[float] = None,
    repetitions: int = 1,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union["ResultStore", str, Path, None] = None,
    use_cache: bool = True,
    policy: Optional[CampaignPolicy] = None,
    progress: Union[bool, None] = None,
    hosts: Optional[int] = None,
) -> TableResult:
    """Run the population barometer grid and tabulate per-cell quality.

    ``households`` supplies an explicit grid; otherwise ``n_households``
    are sampled from ``tiers`` with ``seed`` (the *same* seed also seeds
    the simulations, so one integer reproduces the whole population
    byte-identically, serial or distributed).  Repetition ``i`` of a cell
    runs with ``seed + i``.

    Returns a :class:`TableResult` with one row per cell -- household uid,
    tier, VCA, use case, the formula's ``quality_index`` and the raw
    metrics of :data:`BAROMETER_METRICS` -- plus the usual campaign extras
    (``campaign_stats`` / ``failure_report`` / ``campaign_hosts``) and the
    sampled grid itself as ``table.households``.
    """
    if households is None:
        households = sample_households(n_households, seed=seed, tiers=tiers)
    else:
        households = list(households)
    if not vcas:
        raise ValueError("need at least one VCA")
    formulas = [get_use_case(case) for case in (use_cases or list_use_cases())]
    conditions = barometer_conditions(
        households,
        vcas=vcas,
        use_cases=formulas,
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
    by_name = {result.condition.name: result for result in results}

    table = TableResult(
        table_id="barometer_sweep",
        title="Population VCA quality barometer",
        columns=("household", "tier", "vca", "use_case", "quality_index",
                 *BAROMETER_METRICS),
    )
    for household in households:
        for vca in vcas:
            for formula in formulas:
                name = household_scenario(household, vca, formula).name
                result = by_name.get(name)
                if result is None or not result.runs:  # quarantined cell
                    continue
                keys = sorted({key for run in result.runs for key in run})
                means = {key: result.mean(key) for key in keys}
                table.add_row(
                    household.uid,
                    household.tier,
                    vca,
                    formula.name,
                    formula.quality_index(means),
                    *(means.get(metric, float("nan")) for metric in BAROMETER_METRICS),
                )
    table.campaign_stats = results.stats.as_dict()
    table.failure_report = results.failures
    table.campaign_hosts = results.hosts
    table.households = households
    return table
