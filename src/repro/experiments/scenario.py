"""Beyond-paper scenario sweeps over the netem scenario registry.

``run_scenario_sweep`` is the campaign driver behind the ``scenario_sweep``
experiment id: it expands a set of registered scenarios into a
(condition x repetition) grid, fans it over the
:func:`repro.core.campaign.run_campaign` process pool, and returns one
:class:`~repro.core.results.TableResult` row per scenario with the
scenario library's core metrics (bitrate, freezes, rate switches, tx-side
loss, queueing delay).

With ``store=`` the sweep is incremental: every ``(scenario, repetition)``
cell is content-addressed by the *resolved* :class:`ScenarioSpec` payload
(not just its registry name), the effective duration, the repetition seed
and the code-version fingerprint, so an unchanged sweep re-scores entirely
from cache while editing one spec re-simulates exactly that scenario.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.core.journal import CampaignJournal
    from repro.results.store import ResultStore

from repro.core.campaign import CampaignPolicy, Condition, run_campaign
from repro.core.results import TableResult
from repro.netem.scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    resolve_trace_path,
    run_scenario_by_name,
)

__all__ = [
    "run_scenario_sweep",
    "scenario_cache_payload",
    "scenario_conditions",
    "registry_manifest",
]

#: Metrics reported per scenario (mean over repetitions).
SWEEP_METRICS = (
    "median_up_mbps",
    "median_down_mbps",
    "freeze_ratio",
    "mean_received_fps",
    "rate_switches",
    "tx_loss_rate",
    "aqm_drops",
    "p95_queue_delay_s",
)

#: Competition columns, appended only when a selected spec has a workload --
#: packs without cross-traffic keep their exact historical column set.
WORKLOAD_SWEEP_METRICS = (
    "share_up",
    "share_down",
    "competitor_up_mbps",
    "competitor_down_mbps",
)


def scenario_cache_payload(
    spec: ScenarioSpec, duration_s: Optional[float] = None
) -> dict[str, Any]:
    """The content the result store hashes for one scenario condition.

    The full spec is flattened to plain data (a deep copy equal to
    ``dataclasses.asdict``, see :func:`_plain_copy`), so *any* field edit --
    a shaping level, a loss parameter, the VCA -- changes the hash; the
    registry name alone never would.  ``duration_s`` records the effective
    call duration (``None`` resolves to the spec's own).

    A ``workload=None`` or ``pinned=None`` spec omits that key entirely:
    adding an axis must not re-key the store for the (vast) majority that
    does not use it, so a warm store stays warm across the API change.
    Specs that *do* set one hash it like any other field, so editing it
    re-keys exactly those cells.
    """
    duration = float(duration_s) if duration_s is not None else spec.duration_s
    spec_payload = {
        field.name: _plain_copy(getattr(spec, field.name))
        for field in dataclasses.fields(spec)
    }
    for optional_axis in ("workload", "pinned"):
        if spec_payload[optional_axis] is None:
            del spec_payload[optional_axis]
    payload: dict[str, Any] = {
        "kind": "scenario",
        "spec": spec_payload,
        "duration_s": duration,
    }
    trace_content = _trace_content_hashes(spec)
    if trace_content:
        # Trace-driven specs name a file, not its content; hashing the bytes
        # makes swapping a committed pack (or editing an ad-hoc Mahimahi
        # file) invalidate exactly the scenarios that read it.
        payload["trace_content"] = trace_content
    return payload


#: Field values returned as they are: immutable, and plain data already.
_ATOMS = frozenset({str, int, float, bool, type(None)})


def _plain_copy(value: Any) -> Any:
    """Deep copy of one spec field, equal to what ``dataclasses.asdict``
    renders for it.

    Dicts, lists and tuples are rebuilt level by level, so the payload
    shares no mutable container with the spec; any other value (none in a
    registered spec) is deep-copied, as ``asdict`` does.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        return {key: _plain_copy(item) for key, item in value.items()}
    if kind is tuple or kind is list:
        return kind(_plain_copy(item) for item in value)
    return copy.deepcopy(value)


def _trace_content_hashes(spec: ScenarioSpec) -> dict[str, str]:
    """Content digests of every trace file a spec's profile would read."""
    kind, params = spec.profile
    paths: list[Path] = []
    if kind == "trace":
        directions = (
            (str(params["direction"]),) if "direction" in params else spec.directions
        )
        paths = [resolve_trace_path(str(params["pack"]), d) for d in directions]
    elif kind == "mahimahi":
        paths = [Path(params["path"])]
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in paths
    }


def scenario_conditions(
    names: Sequence[str],
    duration_s: Optional[float] = None,
    repetitions: int = 2,
    seed: int = 0,
) -> list[Condition]:
    """Campaign conditions (with cache payloads) for registered scenarios."""
    return _spec_conditions(
        [get_scenario(name) for name in names], duration_s, repetitions, seed
    )


def _spec_conditions(
    specs: Sequence[ScenarioSpec],
    duration_s: Optional[float],
    repetitions: int,
    seed: int,
) -> list[Condition]:
    """:func:`scenario_conditions` over specs already resolved by name."""
    return [
        Condition(
            name=spec.name,
            fn=run_scenario_by_name,
            params={"name": spec.name, "duration_s": duration_s},
            repetitions=repetitions,
            seed=seed,
            cache_payload=scenario_cache_payload(spec, duration_s),
        )
        for spec in specs
    ]


def registry_manifest(
    scenarios: Optional[Sequence[str]] = None, tag: Optional[str] = None
) -> dict[str, Any]:
    """Spec-hash manifest of the (selected) registry, computed without running.

    Maps every scenario name to the content hash of its spec at its default
    duration, alongside the current code fingerprint.  CI keys its
    ``actions/cache`` entry for the result store on this manifest: the key
    changes exactly when a spec, the calibration constants, or the store
    schema change, and prefix ``restore-keys`` still restore the previous
    store so unchanged cells stay warm.
    """
    from repro.results.fingerprint import code_fingerprint, payload_hash

    if scenarios is not None:
        specs = [get_scenario(name) for name in scenarios]
    else:
        specs = list_scenarios(tag=tag)
    return {
        "fingerprint": code_fingerprint(),
        "scenarios": {spec.name: payload_hash(scenario_cache_payload(spec)) for spec in specs},
    }


def run_scenario_sweep(
    scenarios: Optional[Sequence[str]] = None,
    tag: Optional[str] = None,
    duration_s: Optional[float] = None,
    repetitions: int = 2,
    seed: int = 0,
    workers: Optional[int | str] = None,
    store: Union["ResultStore", str, Path, None] = None,
    use_cache: bool = True,
    policy: Optional[CampaignPolicy] = None,
    journal: Union["CampaignJournal", str, Path, None] = None,
    resume: bool = False,
    progress: Union[bool, None] = None,
    hosts: Optional[int] = None,
    score_use_case: Optional[str] = None,
) -> TableResult:
    """Run every selected scenario ``repetitions`` times and tabulate.

    ``scenarios`` selects by name; ``tag`` selects a whole pack
    (``"paper-baseline"`` / ``"beyond-paper"``); with neither, the full
    registry runs.  Repetition ``i`` of a scenario uses ``seed + i``.
    ``store``/``use_cache`` make the sweep incremental (see module docs);
    ``policy``/``journal``/``resume``/``progress`` are the fault-tolerance
    controls of :func:`repro.core.campaign.run_campaign` (timeouts, retries,
    quarantine, checkpointed resume, progress/ETA); ``hosts`` fans the sweep
    out over N lease-coordinated host processes sharing the store.

    When any selected scenario carries a ``workload``, the table grows the
    :data:`WORKLOAD_SWEEP_METRICS` competition columns (share and competitor
    throughput); selections without cross-traffic keep the historical column
    set, so existing packs see no column churn.

    ``score_use_case`` names a barometer use case (see
    :func:`repro.barometer.formula.list_use_cases`); when set, the table
    gains a ``quality_index`` column scoring each scenario's aggregated
    metrics under that use case's formula.  Scoring happens driver-side on
    the tabulated means, so it composes with cached cells for free.

    The returned table carries the campaign's execution counters as
    ``table.campaign_stats`` (a dict), any quarantined units as
    ``table.failure_report``, and -- for ``hosts`` runs -- the per-host
    counters as ``table.campaign_hosts``; quarantined scenarios with no
    surviving repetitions are omitted from the rows rather than reported as
    zeros.
    """
    if scenarios is not None:
        specs = [get_scenario(name) for name in scenarios]
    else:
        specs = list_scenarios(tag=tag)
    if not specs:
        raise ValueError("no scenarios selected")
    conditions = _spec_conditions(specs, duration_s, repetitions, seed)
    results = run_campaign(
        conditions,
        workers=workers,
        store=store,
        use_cache=use_cache,
        policy=policy,
        journal=journal,
        resume=resume,
        progress=progress,
        hosts=hosts,
    )
    formula = None
    if score_use_case is not None:
        from repro.barometer.formula import get_use_case

        formula = get_use_case(score_use_case)
    # The competition columns appear only when the selection carries a
    # workload anywhere; workload-free scenarios in a mixed selection report
    # NaN there (their runs never produce the metrics).
    sweep_metrics = SWEEP_METRICS
    if any(spec.workload is not None for spec in specs):
        sweep_metrics = (*SWEEP_METRICS, *WORKLOAD_SWEEP_METRICS)
    columns = ("scenario", *sweep_metrics)
    if formula is not None:
        columns = (*columns, "quality_index")
    table = TableResult(
        table_id="scenario_sweep",
        title="Scenario library sweep (netem)",
        columns=columns,
    )
    for result in results:
        if not result.runs:  # every repetition quarantined
            continue
        present = set().union(*result.runs)
        row = [
            result.condition.name,
            *(
                result.mean(metric) if metric in present else float("nan")
                for metric in sweep_metrics
            ),
        ]
        if formula is not None:
            means = {key: result.mean(key) for key in sorted(present)}
            row.append(formula.quality_index(means))
        table.add_row(*row)
    table.campaign_stats = results.stats.as_dict()
    table.failure_report = results.failures
    table.campaign_hosts = results.hosts
    return table
