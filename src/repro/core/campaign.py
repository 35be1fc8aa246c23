"""Fault-tolerant parallel campaigns: fan a (condition x repetition) grid
over cores under supervision.

The paper's campaigns are embarrassingly parallel: every condition (a VCA, a
shaping level, a participant count ...) is repeated several times, and each
repetition is an independent seeded simulation.  :func:`run_campaign` expands
the grid into one work unit per ``(condition, repetition)``, executes the
units either serially in-process or on a *supervised* worker pool
(:mod:`repro.core.supervisor`), and merges the per-unit metrics back into
per-condition results.

Determinism
-----------

Repetition ``i`` of a condition always runs with ``condition.seed + i`` --
the same rule the serial drivers have always used -- and results are keyed
by ``(condition, repetition)`` rather than completion order, so a parallel
run merges to *exactly* the same :class:`ConditionResult` list as a serial
run of the same grid (this is covered by an equivalence test), regardless of
retries, worker crashes or resume.

Work units must be picklable: ``Condition.fn`` has to be a module-level
callable (not a lambda or closure) taking ``seed`` plus the condition's
``params`` as keyword arguments and returning a picklable mapping of metric
name to value.  The experiment drivers expose such per-condition functions
(e.g. :func:`repro.experiments.static.measure_capacity_point`).

Fault tolerance
---------------

With ``workers >= 2`` the units run under the supervised pool: per-unit
wall-clock timeouts (derived from the unit's effective simulated duration
times :attr:`CampaignPolicy.timeout_multiplier`), bounded retries with
exponential backoff and deterministic jitter, worker respawn on crash, and
-- under ``CampaignPolicy(on_exhausted="quarantine")`` -- poison-unit
quarantine: the campaign completes and the returned
:class:`CampaignOutcome` carries a structured
:class:`~repro.core.supervisor.FailureReport` alongside the partial results
instead of raising.  A ``KeyboardInterrupt`` drains in-flight units and
flushes completed ones before the pool is torn down (terminate + join on
every exit path).

Incremental re-runs and resume
------------------------------

Passing ``store=`` (a :class:`repro.results.ResultStore` or a directory
path) makes the campaign content-addressed: every work unit hashes to a key
from its payload -- :attr:`Condition.cache_payload` when set, otherwise the
function's qualified name plus ``params`` -- the repetition seed, and the
code-version fingerprint.  Cached units are merged without dispatching;
only misses execute and are written back *as they complete* (incremental
checkpointing).  Fresh and cached metrics both pass through the store's
canonical-JSON round trip, so warm, cold, serial and parallel runs merge
byte-identically.

The store is also the resume mechanism: a sweep killed mid-run (Ctrl-C,
SIGKILL, a lost machine) resumes by re-running the same campaign against
the same ``store=`` -- every unit stored before the kill is merged as a
cache hit and only the rest are simulated.  An edited condition re-keys,
so it misses and re-simulates only itself.  ``use_cache=False`` refreshes
entries instead and therefore does not resume.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence, Union

from repro.core.analysis import RunSummary, aggregate_runs, exact_mean
from repro.core.supervisor import (
    CampaignPolicy,
    CampaignStats,
    CampaignUnitError,
    FailureReport,
    UnitCallbacks,
    WorkUnit,
    execute_serial,
    execute_supervised,
)

if TYPE_CHECKING:  # the core layer only needs the names for annotations
    from repro.core.chaos import ChaosConfig
    from repro.core.scheduler import LeaseConfig
    from repro.results.store import ResultStore

__all__ = [
    "Condition",
    "ConditionResult",
    "CampaignOutcome",
    "CampaignPolicy",
    "CampaignStats",
    "CampaignUnitError",
    "FailureReport",
    "expand_units",
    "run_campaign",
    "default_workers",
]


@dataclass(frozen=True)
class Condition:
    """One cell of a campaign grid.

    Attributes
    ----------
    name:
        Stable identifier of the condition, e.g. ``"zoom@0.5up"``.
    fn:
        Module-level callable executed once per repetition as
        ``fn(seed=..., **params)``; must return a picklable mapping of
        metric name to float (or any picklable payload).
    params:
        Keyword arguments forwarded to every repetition of ``fn``.
    repetitions:
        Number of repetitions of this condition.
    seed:
        Base seed; repetition ``i`` runs with ``seed + i``.
    cache_payload:
        JSON-serialisable content the result store hashes for this
        condition instead of the generic ``(fn qualname, params)`` payload.
        Drivers whose ``params`` name things indirectly (the scenario sweep
        passes a registry *name*) put the resolved content here so that
        editing the referenced spec re-keys the unit.
    """

    name: str
    fn: Callable[..., Mapping[str, float]]
    params: dict[str, Any] = field(default_factory=dict)
    repetitions: int = 1
    seed: int = 0
    cache_payload: Optional[dict[str, Any]] = None

    def seed_for(self, repetition: int) -> int:
        """Deterministic per-repetition seed (independent of scheduling)."""
        return self.seed + repetition


@dataclass
class ConditionResult:
    """All repetitions of one condition, in repetition order."""

    condition: Condition
    runs: list[Mapping[str, float]]

    def metric_values(self, name: str) -> list[float]:
        """Raw per-repetition values of one metric."""
        return [float(run[name]) for run in self.runs if name in run]

    def mean(self, name: str) -> float:
        """Mean of one metric over repetitions (``0.0`` when absent).

        Bit-identical to the ``mean`` of :meth:`summary` (``np.mean``, via
        :func:`~repro.core.analysis.exact_mean`), without the median and CI
        quantiles that table merges never read.
        """
        values = self.metric_values(name)
        return exact_mean(values) if values else 0.0

    def summary(self, name: str, confidence: float = 0.90) -> RunSummary:
        """Aggregated summary (mean/median/CI) of one metric."""
        return aggregate_runs(self.metric_values(name), confidence)


class CampaignOutcome(list):
    """The merged campaign: a ``list[ConditionResult]`` plus run metadata.

    Behaves exactly like the plain list :func:`run_campaign` used to return
    (iteration, indexing, equality), with three extra attributes:

    * ``stats`` -- the :class:`~repro.core.supervisor.CampaignStats`
      execution counters (dispatches, cache hits, retries, timeouts,
      crashes, quarantines),
    * ``failures`` -- the :class:`~repro.core.supervisor.FailureReport` of
      quarantined units (empty under ``on_exhausted="raise"``),
    * ``ok`` -- ``True`` when nothing was quarantined.

    Distributed runs (``hosts=N``) additionally set ``hosts``: a mapping of
    host id to that host's execution counters (claims, steals, fenced
    completions, heartbeats), which the scenario verifier records into
    ``SCENARIO_MARGINS.json`` provenance.
    """

    stats: CampaignStats
    failures: FailureReport
    hosts: Optional[dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.failures.ok


def default_workers() -> int:
    """Worker count used when ``workers`` is passed as ``"auto"``."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _condition_keys(
    condition: Condition, seeds: list[int], fingerprint: Optional[str]
) -> list[Optional[str]]:
    """The store key of each repetition seed of one condition, all ``None``
    without a ``fingerprint`` or when the condition is uncacheable.

    A condition is uncacheable when its payload (explicit or derived) is not
    JSON-expressible or its function has no stable qualified name.
    Uncacheable units always execute -- caching is an optimisation, never a
    correctness requirement.
    """
    from repro.results.fingerprint import result_keys

    uncached: list[Optional[str]] = [None] * len(seeds)
    if fingerprint is None:
        return uncached
    payload = condition.cache_payload
    if payload is None:
        module = getattr(condition.fn, "__module__", None)
        qualname = getattr(condition.fn, "__qualname__", None)
        if not module or not qualname:
            return uncached
        payload = {"fn": f"{module}.{qualname}", "params": condition.params}
    try:
        return result_keys(payload, seeds, fingerprint)
    except TypeError:
        return uncached


def _effective_duration(condition: Condition) -> Optional[float]:
    """The unit's simulated duration, for deriving its wall-clock budget."""
    duration = condition.params.get("duration_s")
    if duration is None and isinstance(condition.cache_payload, dict):
        duration = condition.cache_payload.get("duration_s")
    try:
        return float(duration) if duration is not None else None
    except (TypeError, ValueError):
        return None


def _campaign_id(descriptors: list[dict[str, Any]]) -> str:
    """Identity of one campaign grid (names the hosts' status directory)."""
    from repro.results.fingerprint import payload_hash

    return payload_hash(descriptors)


def expand_units(
    conditions: Sequence[Condition],
    policy: Optional[CampaignPolicy] = None,
    fingerprint: Optional[str] = None,
) -> tuple[list[WorkUnit], list[dict[str, Any]]]:
    """Expand a campaign grid into work units plus identity descriptors.

    One :class:`~repro.core.supervisor.WorkUnit` per ``(condition,
    repetition)`` with a stable uid, the per-repetition seed, a wall-clock
    budget derived from the condition's simulated duration, and -- when a
    code-version ``fingerprint`` is given -- the unit's content-addressed
    store key.  The descriptors hash into the campaign id that names the
    distributed scheduler's per-campaign host status directory.

    Shared by :func:`run_campaign` and the ``repro.campaignd`` worker
    entrypoint, which must expand *identical* units from the same grid on
    every participating host.
    """
    if policy is None:
        policy = CampaignPolicy()
    units: list[WorkUnit] = []
    descriptors: list[dict[str, Any]] = []
    for index, condition in enumerate(conditions):
        timeout_s = policy.timeout_for(_effective_duration(condition))
        fn_name = (
            f"{getattr(condition.fn, '__module__', '?')}."
            f"{getattr(condition.fn, '__qualname__', repr(condition.fn))}"
        )
        params = repr(sorted(condition.params.items()))
        seeds = [condition.seed_for(repetition) for repetition in range(condition.repetitions)]
        keys = _condition_keys(condition, seeds, fingerprint)
        for repetition, (seed, key) in enumerate(zip(seeds, keys)):
            uid = f"{index}:{condition.name}#r{repetition}"
            descriptors.append(
                {"uid": uid, "seed": seed, "key": key, "fn": fn_name, "params": params}
            )
            units.append(
                WorkUnit(
                    uid=uid,
                    index=index,
                    repetition=repetition,
                    name=condition.name,
                    fn=condition.fn,
                    params=condition.params,
                    seed=seed,
                    timeout_s=timeout_s,
                    key=key,
                )
            )
    return units, descriptors


class _ProgressReporter:
    """Progress/ETA line for long campaigns.

    ``sink=True`` renders a carriage-return line on stderr (throttled);
    a callable sink receives a snapshot dict after every accounted unit --
    which is also the injection point the interrupt tests use.

    The ETA is completion-rate based: mean per-unit wall-clock duration
    (measured per successful attempt) times the remaining unit count,
    divided by the effective worker parallelism; it appears once one unit
    has completed.  Unlike the old elapsed/executed estimate it is not
    skewed by time spent merging cache hits or waiting out retry backoff.
    """

    def __init__(
        self,
        sink,
        stats: CampaignStats,
        min_interval_s: float = 0.5,
        workers: int = 1,
    ) -> None:
        self._sink = sink
        self._stats = stats
        self._min_interval_s = min_interval_s
        self._workers = max(1, workers)
        self._last_render = 0.0
        self._rendered = False

    def eta_s(self) -> Optional[float]:
        """Seconds to completion, or ``None`` without a duration sample."""
        stats = self._stats
        remaining = stats.units - stats.done
        if remaining <= 0 or stats.completed <= 0:
            return None
        return stats.exec_wall_s / stats.completed * remaining / self._workers

    def unit_done(self) -> None:
        stats = self._stats
        if callable(self._sink):
            self._sink(
                {
                    "done": stats.done,
                    "total": stats.units,
                    "eta_s": self.eta_s(),
                    "stats": stats,
                }
            )
            return
        now = time.monotonic()
        if stats.done < stats.units and now - self._last_render < self._min_interval_s:
            return
        self._last_render = now
        eta_s = self.eta_s()
        eta = f"{eta_s:5.0f}s" if eta_s is not None else "    -"
        line = (
            f"\r[campaign] {stats.done}/{stats.units} units "
            f"({stats.cache_hits} cached) "
            f"retries={stats.retries} timeouts={stats.timeouts} "
            f"quarantined={stats.quarantined} eta {eta}"
        )
        sys.stderr.write(line)
        sys.stderr.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered:
            sys.stderr.write("\n")
            sys.stderr.flush()


def run_campaign(
    conditions: Sequence[Condition],
    workers: Optional[int | str] = None,
    mp_context: Optional[str] = None,
    store: Union["ResultStore", str, Path, None] = None,
    use_cache: bool = True,
    policy: Optional[CampaignPolicy] = None,
    progress: Union[bool, Callable[[dict[str, Any]], None], None] = None,
    chaos: Optional["ChaosConfig"] = None,
    hosts: Optional[int] = None,
    lease_config: Optional["LeaseConfig"] = None,
) -> CampaignOutcome:
    """Execute every repetition of every condition and merge the results.

    Parameters
    ----------
    conditions:
        The campaign grid.
    workers:
        ``None``, ``0`` or ``1`` runs serially in-process; an integer > 1
        fans the units out over that many supervised worker processes;
        ``"auto"`` uses one worker per available core.
    mp_context:
        Multiprocessing start method for the pool.  Defaults to ``fork``
        where available (cheap worker start-up on Linux) and ``spawn``
        elsewhere; every work unit is a module-level picklable, so both
        start methods produce identical results.
    store:
        A :class:`repro.results.ResultStore` (or a directory path) consulted
        before dispatch; hits are merged without executing, misses execute
        and are written back as they complete.  Re-running an interrupted
        campaign against the same store resumes it.  ``None`` (the default)
        disables caching.
    use_cache:
        With ``False`` the store is not *read* -- every unit re-executes --
        but fresh results are still written back, refreshing the store (the
        ``--no-cache`` escape hatch).
    policy:
        The :class:`CampaignPolicy` governing timeouts, retries, backoff and
        quarantine.  ``None`` uses the defaults (3 attempts, raise on
        exhaustion, duration-derived timeouts).
    progress:
        ``True`` renders a progress/ETA line on stderr; a callable receives
        a snapshot dict after every accounted unit.
    chaos:
        A :class:`~repro.core.chaos.ChaosConfig` fault plan (testing only).
        Kill/hang faults require ``workers >= 2``; host-level faults
        (:class:`~repro.core.chaos.HostFaultPlan`) require ``hosts=``.
    hosts:
        Fan the campaign out over this many independent *host processes*
        coordinating purely through the shared store's lease directory
        (:mod:`repro.core.scheduler`): any host can be SIGKILLed mid-run
        and the survivors steal its leases and finish the campaign.
        Requires ``store=`` with ``use_cache=True`` (the store entry is the
        completion authority) and is mutually exclusive with ``workers``
        (each host executes its units in-process, serially).
    lease_config:
        Lease TTL / heartbeat / steal tuning of a ``hosts=`` run (defaults
        to :class:`~repro.core.scheduler.LeaseConfig`).

    Returns
    -------
    A :class:`CampaignOutcome` -- one :class:`ConditionResult` per condition,
    in input order, with repetitions in repetition order (identical
    regardless of worker count, retries and of which units came from the
    store) -- carrying the run's ``stats`` and ``failures``.
    """
    if workers == "auto":
        workers = default_workers()
    if policy is None:
        policy = CampaignPolicy()
    serial = workers is None or int(workers) <= 1
    hosts_mode = hosts is not None
    if hosts_mode:
        if int(hosts) < 1:
            raise ValueError("hosts must be >= 1")
        if not serial:
            raise ValueError(
                "hosts= and workers= are mutually exclusive: each host "
                "executes its units in-process, serially"
            )
        if store is None:
            raise ValueError(
                "run_campaign(hosts=...) requires store=: the shared store "
                "directory is the hosts' only coordination substrate"
            )
        if not use_cache:
            raise ValueError(
                "run_campaign(hosts=...) requires use_cache=True: the store "
                "entry is the completion authority the hosts converge on"
            )
        if chaos is not None and chaos.needs_pool():
            raise ValueError(
                "chaos worker kill/hang faults target the supervised pool; "
                "use ChaosConfig(host_faults=...) for host-level faults"
            )
    elif lease_config is not None:
        raise ValueError("lease_config only applies to run_campaign(hosts=...)")
    if chaos is not None and serial and not hosts_mode and chaos.needs_pool():
        raise ValueError(
            "chaos worker-kill/hang faults require the supervised pool; "
            "pass workers >= 2 or restrict the plan to raise faults"
        )

    merged: dict[int, dict[int, Mapping[str, float]]] = {
        index: {} for index in range(len(conditions))
    }
    stats = CampaignStats(units=sum(c.repetitions for c in conditions))
    failures = FailureReport()

    result_store = None
    fingerprint = None
    if store is not None:
        from repro.results.fingerprint import code_fingerprint
        from repro.results.store import resolve_store

        result_store = resolve_store(store)
        fingerprint = code_fingerprint()

    # Expand the grid into work units with stable uids and wall-clock budgets.
    units, descriptors = expand_units(conditions, policy, fingerprint)

    # In hosts mode the distributed fan-out renders its own per-host view.
    progress_reporter = (
        _ProgressReporter(
            progress,
            stats,
            workers=1 if serial else int(workers),
        )
        if progress and not hosts_mode
        else None
    )

    def _accounted() -> None:
        if progress_reporter is not None:
            progress_reporter.unit_done()

    # Merge store-cached units without dispatching.
    pending: list[WorkUnit] = []
    for unit in units:
        if result_store is not None and unit.key is not None and use_cache:
            cached = result_store.get(unit.key)
            if cached is not None:
                merged[unit.index][unit.repetition] = cached
                stats.cache_hits += 1
                _accounted()
                continue
        pending.append(unit)

    def on_complete(unit: WorkUnit, metrics: Mapping[str, Any]) -> None:
        stats.completed += 1
        if result_store is not None and unit.key is not None:
            try:
                metrics = result_store.put(
                    unit.key,
                    metrics,
                    meta={
                        "condition": unit.name,
                        "repetition": unit.repetition,
                        "seed": unit.seed,
                        "attempts": unit.attempts,
                    },
                )
            except (TypeError, OSError):
                # Non-JSON metrics or an unwritable/full store directory:
                # the result is usable this run, it just is not cached.
                pass
        merged[unit.index][unit.repetition] = metrics
        _accounted()

    def on_attempt_failed(unit: WorkUnit, kind: str, error: str) -> None:
        if (
            chaos is not None
            and result_store is not None
            and unit.key is not None
            and chaos.should_corrupt_store(unit.uid, unit.attempts - 1)
        ):
            from repro.core.chaos import corrupt_store_entry

            corrupt_store_entry(result_store, unit.key)

    def on_quarantined(unit: WorkUnit) -> None:
        failures.quarantined.append(unit.failure())
        _accounted()

    callbacks = UnitCallbacks(
        on_complete=on_complete,
        on_attempt_failed=on_attempt_failed,
        on_quarantined=on_quarantined,
    )

    host_stats: Optional[dict[str, Any]] = None
    try:
        if pending:
            if hosts_mode:
                from repro.core.scheduler import execute_distributed

                if mp_context is None:
                    mp_context = (
                        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
                    )
                context = multiprocessing.get_context(mp_context)
                dist = execute_distributed(
                    pending,
                    result_store,
                    int(hosts),
                    context,
                    policy,
                    lease_config=lease_config,
                    chaos=chaos,
                    campaign_id=_campaign_id(descriptors),
                    progress=progress,
                )
                host_stats = dist.host_stats
                stats.dispatched += dist.attempts
                stats.errors += dist.errors
                stats.stolen += dist.stolen
                stats.fenced += dist.fenced
                stats.exec_wall_s += sum(
                    s.get("exec_wall_s", 0.0) for s in dist.host_stats.values()
                )
                for unit in pending:
                    metrics = dist.merged.get(unit.uid)
                    if metrics is None:
                        continue
                    stats.completed += 1
                    merged[unit.index][unit.repetition] = metrics
                stats.quarantined += len(dist.failures.quarantined)
                failures.quarantined.extend(dist.failures.quarantined)
                if failures.quarantined and policy.on_exhausted == "raise":
                    raise CampaignUnitError(failures.quarantined[0])
            elif serial:
                execute_serial(pending, policy, chaos, stats, callbacks)
            else:
                if mp_context is None:
                    mp_context = (
                        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
                    )
                context = multiprocessing.get_context(mp_context)
                execute_supervised(
                    pending, int(workers), context, policy, chaos, stats, callbacks
                )
    except KeyboardInterrupt:
        stats.interrupted = True
        raise
    finally:
        if progress_reporter is not None:
            progress_reporter.close()

    outcome = CampaignOutcome(
        ConditionResult(
            condition=condition,
            runs=[merged[index][rep] for rep in sorted(merged[index])],
        )
        for index, condition in enumerate(conditions)
    )
    outcome.stats = stats
    outcome.failures = failures
    outcome.hosts = host_stats
    return outcome
