"""Lease-based multi-host campaign scheduling.

The supervised pool (:mod:`repro.core.supervisor`) makes one host survive
worker crashes; this module makes a *campaign* survive the loss of entire
hosts.  Multiple independent OS processes -- potentially on different
machines sharing one store directory -- cooperatively drain one campaign
with filesystem-only, crash-safe coordination:

* **Leases.**  Every work unit maps to one lease file under
  ``<store>/leases/<key[:2]>/<key>.json`` (keyed by the unit's
  content-addressed store key, so two campaigns over the same grid share
  work instead of duplicating it).  A host claims a unit by hard-linking a
  fully written record to the lease name -- the link fails when the lease
  exists, so the filesystem arbitrates and exactly one claimant wins, and no
  peer reads a claim before its content -- and the lease records the
  owner's host id, pid, a random claim token, a fencing counter and an
  expiry deadline derived from the unit's simulated duration.

* **Heartbeats.**  A daemon thread refreshes every lease the host holds
  (atomic rewrite extending ``expires_at``) at a fraction of the lease TTL,
  so a live host never expires no matter how long its unit runs.

* **Stale-lease stealing.**  A lease whose deadline has passed marks a dead
  or frozen owner.  Any other host reclaims it: unlink the stale file, then
  race a fresh exclusive claim (two stealers race; exactly one wins) with
  the fencing counter incremented.

* **Fencing.**  Every refresh and release verifies the on-disk lease still
  carries this host's identity ``(host, pid, token, fence)``.  A zombie
  host resurfacing after its lease was stolen fails that check: it may
  still publish its metrics -- harmless, completion goes through the
  content-addressed :meth:`ResultStore.put`, so a double execution is
  byte-identical -- but it is *fenced* out of provenance (its completion is
  not journalled or counted) and it never touches the thief's lease.

* **Completion.**  The store entry *is* the completion record.  Hosts check
  the store before claiming and again after winning a lease; a campaign is
  complete when every unit is stored (or quarantined).  Killing every host
  and re-running the same campaign against the same store therefore resumes
  for free.

Poison units are handled cooperatively: a host that exhausts its local
retry budget on a unit publishes a quarantine marker next to the lease so
other hosts skip the unit instead of retrying it forever.

:func:`run_host` is one host's drain loop (the ``python -m repro.campaignd``
worker entrypoint wraps it); :func:`execute_distributed` is the local
fan-out used by ``run_campaign(hosts=N)``: it spawns N host processes,
renders a live per-host progress/ETA view from lease + status state, and
merges the completed campaign from the store.

Clock caveat: staleness compares lease deadlines against ``time.time()``,
so hosts sharing a store over a network filesystem need loosely synchronised
clocks; :attr:`LeaseConfig.steal_grace_s` absorbs the skew.

Known residual race (documented, not load-bearing): a zombie's refresh
verifies identity and then atomically rewrites the lease; a steal landing
inside that microsecond window can be overwritten.  The consequence is
confined to *attribution* (which host's counters record the completion) --
stored bytes are identical either way, and the loser of the final
verification is fenced.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence, Union

from repro.core.fsutil import atomic_write_text, sweep_stale_tmp, tmp_path_for
from repro.core.journal import CampaignJournal
from repro.core.supervisor import (
    KIND_ERROR,
    CampaignPolicy,
    FailureReport,
    UnitFailure,
    WorkUnit,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.chaos import ChaosConfig, HostFaultPlan
    from repro.results.store import ResultStore

__all__ = [
    "DistributedCampaignError",
    "DistributedOutcome",
    "HostStats",
    "Lease",
    "LeaseConfig",
    "LeaseManager",
    "run_host",
    "execute_distributed",
]

#: Exit code of a host whose run_host loop raised (distinct from chaos 137).
HOST_ERROR_EXIT = 3


class DistributedCampaignError(RuntimeError):
    """Every host exited but the campaign is incomplete (all hosts lost)."""


@dataclass(frozen=True)
class LeaseConfig:
    """Lease/heartbeat tuning of one distributed campaign.

    Attributes
    ----------
    ttl_multiplier / min_ttl_s:
        A unit's lease deadline is ``max(min_ttl_s, wall_budget *
        ttl_multiplier)`` from its last heartbeat, where ``wall_budget`` is
        the unit's supervised wall-clock budget (itself derived from the
        simulated duration).  The TTL only needs to cover heartbeat gaps --
        heartbeats keep extending it -- so it bounds how long a dead host's
        units stay locked, not how long a unit may run.
    heartbeat_interval_s:
        Refresh cadence of the heartbeat thread; ``None`` derives
        ``min(5, max(0.05, min_ttl_s / 5))``.
    poll_interval_s:
        Idle wait between passes over unfinished units when everything is
        leased out to other hosts.
    steal:
        Whether expired leases are reclaimed (disable to observe only).
    steal_grace_s:
        Extra slack beyond expiry before a lease counts as stale -- absorbs
        cross-host clock skew on shared filesystems.
    """

    ttl_multiplier: float = 0.5
    min_ttl_s: float = 15.0
    heartbeat_interval_s: Optional[float] = None
    poll_interval_s: float = 0.2
    steal: bool = True
    steal_grace_s: float = 0.0

    def __post_init__(self) -> None:
        if self.min_ttl_s <= 0 or self.ttl_multiplier < 0:
            raise ValueError("min_ttl_s must be positive and ttl_multiplier >= 0")
        if self.heartbeat_interval_s is not None and self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.steal_grace_s < 0:
            raise ValueError("steal_grace_s must be non-negative")

    def ttl_for(self, wall_budget_s: float) -> float:
        """Lease deadline distance for a unit with this wall-clock budget."""
        return max(self.min_ttl_s, wall_budget_s * self.ttl_multiplier)

    def heartbeat_interval(self) -> float:
        if self.heartbeat_interval_s is not None:
            return self.heartbeat_interval_s
        return min(5.0, max(0.05, self.min_ttl_s / 5.0))


@dataclass
class Lease:
    """One lease this host holds: its on-disk identity plus liveness."""

    key: str
    unit: str
    host: str
    pid: int
    token: str
    fence: int
    ttl_s: float
    expires_at: float
    #: Set by refresh/verify when the on-disk lease no longer carries this
    #: host's identity -- the lease was stolen while we were executing.
    lost: bool = False

    def record(self, now: float) -> dict[str, Any]:
        return {
            "unit": self.unit,
            "host": self.host,
            "pid": self.pid,
            "token": self.token,
            "fence": self.fence,
            "ttl_s": self.ttl_s,
            "claimed_at": now,
            "expires_at": self.expires_at,
        }

    def matches(self, record: Mapping[str, Any]) -> bool:
        return (
            record.get("host") == self.host
            and record.get("pid") == self.pid
            and record.get("token") == self.token
            and record.get("fence") == self.fence
        )


@dataclass
class HostStats:
    """Execution counters of one host's participation in a campaign."""

    host: str
    units: int = 0           # campaign grid size this host was launched with
    executed: int = 0        # units this host ran, published and owned at release
    merged: int = 0          # units observed complete in the store (any publisher)
    attempts: int = 0        # execution attempts (>= executed + errors)
    errors: int = 0          # failed attempts (retried locally)
    claims: int = 0          # leases claimed fresh
    stolen: int = 0          # stale leases this host reclaimed
    fenced: int = 0          # completions suppressed because the lease was stolen
    quarantined: int = 0     # units this host exhausted and marked poisoned
    heartbeats: int = 0      # successful lease refreshes
    exec_wall_s: float = 0.0  # wall-clock spent executing units
    wall_s: float = 0.0      # total host wall-clock

    @property
    def done(self) -> int:
        return self.executed + self.merged + self.fenced + self.quarantined

    def as_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "units": self.units,
            "executed": self.executed,
            "merged": self.merged,
            "attempts": self.attempts,
            "errors": self.errors,
            "claims": self.claims,
            "stolen": self.stolen,
            "fenced": self.fenced,
            "quarantined": self.quarantined,
            "heartbeats": self.heartbeats,
            "exec_wall_s": self.exec_wall_s,
            "wall_s": self.wall_s,
        }


class LeaseManager:
    """Crash-safe lease files under one shared directory.

    Claims hard-link a complete record to the lease name (the filesystem
    picks exactly one winner); refreshes and releases verify the on-disk
    identity first, so a host whose lease was stolen discovers it instead
    of clobbering the thief.  Stealing unlinks the stale file and races a fresh exclusive
    claim with the fencing counter incremented.
    """

    def __init__(self, root: Union[str, Path], host_id: str) -> None:
        self.root = Path(root)
        self.host_id = host_id
        # Orphaned temp files from heartbeat rewrites of crashed hosts.
        self.swept_tmp = sweep_stale_tmp(self.root)

    # ------------------------------------------------------------- layout
    def lease_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def quarantine_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.quarantined.json"

    # -------------------------------------------------------------- claim
    def try_claim(
        self, key: str, unit_uid: str, ttl_s: float, fence: int = 1
    ) -> Optional[Lease]:
        """Claim the unit's lease exclusively; ``None`` when already held."""
        path = self.lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        now = time.time()
        lease = Lease(
            key=key,
            unit=unit_uid,
            host=self.host_id,
            pid=os.getpid(),
            token=os.urandom(8).hex(),
            fence=fence,
            ttl_s=ttl_s,
            expires_at=now + ttl_s,
        )
        # Write the whole record to a private temp file, then hard-link it
        # to the lease name: the link fails when the lease exists, so the
        # claim stays exclusive, and a peer never sees the lease before its
        # content.  Creating the lease empty and writing it afterwards let a
        # peer read it in between, take it as torn (stale) and steal it from
        # a live owner, so both executed the unit.
        tmp = tmp_path_for(path)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(lease.record(now), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return None
        finally:
            os.unlink(tmp)
        return lease

    def read(self, key: str) -> Optional[dict[str, Any]]:
        """The on-disk lease record, ``{"corrupt": True}`` if torn, or None."""
        try:
            record = json.loads(self.lease_path(key).read_text(encoding="utf-8"))
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {"corrupt": True}
        if not isinstance(record, dict):
            return {"corrupt": True}
        return record

    def is_stale(self, record: Mapping[str, Any], grace_s: float = 0.0) -> bool:
        """Whether a lease record's owner must be presumed dead.

        A torn record is immediately stale -- it can never be refreshed, so
        waiting on it would deadlock.  Claims appear whole (hard link) and
        refreshes replace whole (rename), so a live owner's lease never
        reads as torn; only a damaged file does.
        """
        if record.get("corrupt"):
            return True
        expires_at = record.get("expires_at")
        if not isinstance(expires_at, (int, float)):
            return True
        return time.time() > expires_at + grace_s

    def try_steal(
        self, key: str, stale_record: Mapping[str, Any], unit_uid: str, ttl_s: float
    ) -> Optional[Lease]:
        """Reclaim an expired lease; ``None`` when another stealer won.

        Unlink-then-claim: both racing stealers may unlink (idempotent) but
        the fresh exclusive claim has exactly one winner.  The new fence is
        the stale owner's plus one, so provenance records how often the
        unit changed hands.
        """
        try:
            os.unlink(self.lease_path(key))
        except FileNotFoundError:
            pass  # the other stealer got here first; still race the claim
        except OSError:
            return None
        fence = stale_record.get("fence")
        next_fence = (fence + 1) if isinstance(fence, int) else 2
        return self.try_claim(key, unit_uid, ttl_s, fence=next_fence)

    # ---------------------------------------------------------- liveness
    def verify(self, lease: Lease) -> bool:
        """Whether the on-disk lease still carries this host's identity."""
        record = self.read(lease.key)
        if record is None or not lease.matches(record):
            lease.lost = True
            return False
        return True

    def refresh(self, lease: Lease) -> bool:
        """Extend a held lease's deadline; fails (and fences) when stolen."""
        if lease.lost or not self.verify(lease):
            return False
        now = time.time()
        lease.expires_at = now + lease.ttl_s
        try:
            atomic_write_text(
                self.lease_path(lease.key),
                json.dumps(lease.record(now), sort_keys=True) + "\n",
            )
        except OSError:  # pragma: no cover - unwritable store mid-run
            return False
        return True

    def release(self, lease: Lease) -> bool:
        """Remove a held lease; no-op (fenced) when it was stolen."""
        if lease.lost or not self.verify(lease):
            return False
        try:
            os.unlink(self.lease_path(lease.key))
        except OSError:  # pragma: no cover - vanished underneath us
            return False
        return True

    # --------------------------------------------------------- quarantine
    def mark_quarantined(self, key: str, failure: UnitFailure) -> None:
        payload = {"key": key, "host": self.host_id, **failure.as_dict()}
        path = self.quarantine_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")

    def read_quarantined(self, key: str) -> Optional[dict[str, Any]]:
        try:
            payload = json.loads(self.quarantine_path(key).read_text(encoding="utf-8"))
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None


class _HeartbeatThread(threading.Thread):
    """Daemon refreshing every lease the host holds at a fixed cadence.

    ``freeze()`` stops refreshes without stopping the thread -- the chaos
    harness's frozen-heartbeat host fault, indistinguishable from a livelock
    to the other hosts.
    """

    def __init__(self, manager: LeaseManager, interval_s: float, stats: HostStats) -> None:
        super().__init__(name=f"lease-heartbeat-{manager.host_id}", daemon=True)
        self._manager = manager
        self._interval_s = interval_s
        self._stats = stats
        self._leases: dict[str, Lease] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.frozen = False

    def add(self, lease: Lease) -> None:
        with self._lock:
            self._leases[lease.key] = lease

    def remove(self, key: str) -> None:
        with self._lock:
            self._leases.pop(key, None)

    def freeze(self) -> None:
        self.frozen = True

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self._interval_s):
            if self.frozen:
                continue
            with self._lock:
                leases = list(self._leases.values())
            for lease in leases:
                if self._manager.refresh(lease):
                    self._stats.heartbeats += 1


# --------------------------------------------------------------------------
# One host's drain loop
# --------------------------------------------------------------------------


def _write_status(path: Optional[Path], stats: HostStats, total: int, alive: bool) -> None:
    if path is None:
        return
    payload = dict(stats.as_dict(), total=total, alive=alive, updated_at=time.time())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - status is best-effort telemetry
        pass


def run_host(
    units: Sequence[WorkUnit],
    store: "ResultStore",
    host_id: str,
    policy: Optional[CampaignPolicy] = None,
    lease_config: Optional[LeaseConfig] = None,
    chaos: Optional["ChaosConfig"] = None,
    journal_root: Union[str, Path, None] = None,
    campaign_id: str = "",
    status_path: Union[str, Path, None] = None,
    progress: Optional[Callable[[dict[str, Any]], None]] = None,
) -> tuple[HostStats, FailureReport]:
    """Drain one campaign as one host until every unit is done.

    The loop runs until every unit is either published in the store (by
    this host or any other) or marked quarantined.  Units are executed
    in-process, serially, with the policy's local retry budget; hang
    protection is the *inter-host* lease deadline -- a host stuck inside a
    unit stops heartbeating only if it dies, and a dead host's leases are
    stolen by its peers.

    Every unit must carry a store key (``unit.key``); the store entry is
    the completion authority, which is what makes the campaign resumable
    and host-crash-tolerant with no coordinator.
    """
    if policy is None:
        policy = CampaignPolicy()
    if lease_config is None:
        lease_config = LeaseConfig()
    for unit in units:
        if unit.key is None:
            raise ValueError(
                f"distributed campaigns require content-addressed units; "
                f"unit {unit.uid!r} has no store key"
            )

    stats = HostStats(host=host_id, units=len(units))
    failures = FailureReport()
    started = time.monotonic()
    manager = LeaseManager(Path(store.root) / "leases", host_id)
    host_plan: Optional[HostFaultPlan] = chaos.host_plan(host_id) if chaos is not None else None
    heartbeat = _HeartbeatThread(manager, lease_config.heartbeat_interval(), stats)
    heartbeat.start()

    journal: Optional[CampaignJournal] = None
    if journal_root is not None:
        journal = CampaignJournal(Path(journal_root) / host_id)
        journal.start(campaign_id, total_units=len(units), meta={"host": host_id})

    status = Path(status_path) if status_path is not None else None

    def account(snapshot_done: bool = True) -> None:
        stats.wall_s = time.monotonic() - started
        _write_status(status, stats, len(units), alive=True)
        if progress is not None and snapshot_done:
            progress({"host": host_id, "done": stats.done, "total": len(units), "stats": stats})

    def maybe_freeze() -> None:
        if (
            host_plan is not None
            and host_plan.freeze_heartbeats_after_units is not None
            and stats.executed >= host_plan.freeze_heartbeats_after_units
        ):
            heartbeat.freeze()

    try:
        remaining: dict[str, WorkUnit] = {unit.uid: unit for unit in units}
        account(snapshot_done=False)
        while remaining:
            progressed = False
            for uid in list(remaining):
                unit = remaining[uid]
                maybe_freeze()

                # 1. The store is the completion authority.
                cached = store.get(unit.key)
                if cached is not None:
                    stats.merged += 1
                    if journal is not None:
                        journal.record_ok(uid, 0, cached, source="store")
                    del remaining[uid]
                    progressed = True
                    account()
                    continue

                # 2. A poisoned unit (exhausted on any host) is skipped.
                marker = manager.read_quarantined(unit.key)
                if marker is not None:
                    stats.quarantined += 1
                    failures.quarantined.append(
                        UnitFailure(
                            condition=marker.get("condition", unit.name),
                            repetition=marker.get("repetition", unit.repetition),
                            seed=marker.get("seed", unit.seed),
                            attempts=marker.get("attempts", 0),
                            kinds=list(marker.get("kinds", [])),
                            last_error=marker.get("last_error", ""),
                        )
                    )
                    if journal is not None:
                        journal.record_quarantined(
                            uid, marker.get("attempts", 0), list(marker.get("kinds", []))
                        )
                    del remaining[uid]
                    progressed = True
                    account()
                    continue

                # 3. Claim the lease -- or steal it from a dead owner.
                ttl_s = lease_config.ttl_for(unit.timeout_s)
                lease = manager.try_claim(unit.key, uid, ttl_s)
                if lease is None:
                    record = manager.read(unit.key)
                    if (
                        record is not None
                        and lease_config.steal
                        and manager.is_stale(record, lease_config.steal_grace_s)
                    ):
                        lease = manager.try_steal(unit.key, record, uid, ttl_s)
                        if lease is not None:
                            stats.stolen += 1
                    if lease is None:
                        continue  # held by a live host; try again next pass
                else:
                    stats.claims += 1

                # Host-level chaos: die mid-unit with the lease held and no
                # store entry published -- the only way out for the campaign
                # is a peer stealing the stale lease and re-executing.
                if (
                    host_plan is not None
                    and host_plan.kill_after_claims is not None
                    and stats.claims + stats.stolen >= host_plan.kill_after_claims
                ):
                    os._exit(host_plan.exit_code)

                # 4. The lease may have raced a publisher: re-check the store.
                cached = store.get(unit.key)
                if cached is not None:
                    manager.release(lease)
                    stats.merged += 1
                    if journal is not None:
                        journal.record_ok(uid, 0, cached, source="store")
                    del remaining[uid]
                    progressed = True
                    account()
                    continue

                # 5. Execute under the local retry budget, heartbeating.
                heartbeat.add(lease)
                metrics: Optional[Mapping[str, Any]] = None
                exec_started = time.monotonic()
                while True:
                    attempt = unit.attempts
                    unit.attempts += 1
                    stats.attempts += 1
                    if journal is not None:
                        journal.record_dispatch(uid, attempt)
                    try:
                        if chaos is not None:
                            chaos.execute_fault(uid, attempt)
                        metrics = unit.fn(seed=unit.seed, **unit.params)
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        stats.errors += 1
                        unit.failure_kinds.append(KIND_ERROR)
                        unit.last_error = f"{type(exc).__name__}: {exc}"
                        if journal is not None:
                            journal.record_failure(uid, attempt, KIND_ERROR, unit.last_error)
                        if unit.attempts >= policy.max_attempts:
                            break
                        delay = policy.backoff_for(uid, unit.attempts)
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        break
                elapsed = time.monotonic() - exec_started
                stats.exec_wall_s += elapsed

                if metrics is None:
                    # Exhausted: poison the unit for every host, release.
                    failure = unit.failure()
                    manager.mark_quarantined(unit.key, failure)
                    heartbeat.remove(unit.key)
                    manager.release(lease)
                    stats.quarantined += 1
                    failures.quarantined.append(failure)
                    if journal is not None:
                        journal.record_quarantined(uid, unit.attempts, list(unit.failure_kinds))
                    del remaining[uid]
                    progressed = True
                    account()
                    continue

                # 6. Publish through the atomic, content-addressed store --
                #    double execution after a steal is harmless because the
                #    entry is byte-identical.
                store.put(
                    unit.key,
                    metrics,
                    meta={
                        "condition": unit.name,
                        "repetition": unit.repetition,
                        "seed": unit.seed,
                        "attempts": unit.attempts,
                        "host": host_id,
                        "fence": lease.fence,
                    },
                )

                # Host-level chaos: die with the lease still held, exactly
                # like a machine lost between publish and release.
                if (
                    host_plan is not None
                    and host_plan.kill_after_units is not None
                    and stats.executed + 1 >= host_plan.kill_after_units
                ):
                    os._exit(host_plan.exit_code)

                heartbeat.remove(unit.key)
                if host_plan is not None and host_plan.release_delay_s > 0:
                    time.sleep(host_plan.release_delay_s)

                # 7. Fencing: only the current on-disk owner takes the
                #    completion into its provenance (and removes the lease).
                if not lease.lost and manager.release(lease):
                    stats.executed += 1
                    if journal is not None:
                        journal.record_ok(uid, unit.attempts - 1, metrics, elapsed_s=elapsed)
                else:
                    stats.fenced += 1
                del remaining[uid]
                progressed = True
                account()
            if remaining and not progressed:
                time.sleep(lease_config.poll_interval_s)
                account(snapshot_done=False)
    finally:
        heartbeat.stop()
        stats.wall_s = time.monotonic() - started
        if journal is not None:
            journal.close()
        _write_status(status, stats, len(units), alive=False)
    return stats, failures


# --------------------------------------------------------------------------
# Local fan-out: run_campaign(hosts=N)
# --------------------------------------------------------------------------


@dataclass
class DistributedOutcome:
    """What the local multi-host fan-out hands back to ``run_campaign``."""

    merged: dict[str, dict[str, Any]]        # uid -> normalized metrics
    failures: FailureReport
    host_stats: dict[str, dict[str, Any]]    # host id -> HostStats.as_dict()
    pre_cached: set[str] = field(default_factory=set)  # uids stored before launch
    attempts: int = 0
    errors: int = 0
    stolen: int = 0
    fenced: int = 0


def _host_entry(
    units: list[WorkUnit],
    store_root: str,
    host_id: str,
    policy: CampaignPolicy,
    lease_config: LeaseConfig,
    chaos: Optional["ChaosConfig"],
    journal_root: Optional[str],
    campaign_id: str,
    status_path: str,
) -> None:
    """Child-process entrypoint of one locally fanned-out host."""
    from repro.results.store import ResultStore

    try:
        run_host(
            units,
            ResultStore(store_root),
            host_id,
            policy=policy,
            lease_config=lease_config,
            chaos=chaos,
            journal_root=journal_root,
            campaign_id=campaign_id,
            status_path=status_path,
        )
    except Exception:  # pragma: no cover - surfaced via exit code
        sys.excepthook(*sys.exc_info())
        os._exit(HOST_ERROR_EXIT)


class _DistributedProgress:
    """Live per-host progress/ETA view of a fanned-out campaign.

    Fed by the hosts' status snapshots (lease + journal state distilled per
    host) and the store's completion count; renders a carriage-return line
    on stderr, or feeds snapshot dicts to a callable sink.
    """

    def __init__(self, sink, total: int, min_interval_s: float = 0.5) -> None:
        self._sink = sink
        self._total = total
        self._min_interval_s = min_interval_s
        self._last_render = 0.0
        self._rendered = False

    def render(self, done: int, host_stats: dict[str, dict[str, Any]], final: bool = False) -> None:
        if callable(self._sink):
            self._sink({"done": done, "total": self._total, "hosts": host_stats})
            return
        now = time.monotonic()
        if not final and now - self._last_render < self._min_interval_s:
            return
        self._last_render = now
        executed = sum(s.get("executed", 0) for s in host_stats.values())
        exec_wall = sum(s.get("exec_wall_s", 0.0) for s in host_stats.values())
        live = [h for h, s in host_stats.items() if s.get("alive")]
        remaining = self._total - done
        if executed > 0 and remaining > 0 and live:
            eta = f"{exec_wall / executed * remaining / len(live):5.0f}s"
        else:
            eta = "    -"
        parts = []
        for host in sorted(host_stats):
            s = host_stats[host]
            extra = ""
            if s.get("stolen"):
                extra += f"+{s['stolen']}st"
            if s.get("fenced"):
                extra += f"+{s['fenced']}fe"
            state = "" if s.get("alive") else " DEAD"
            parts.append(f"{host}:{s.get('executed', 0)}r{extra}{state}")
        line = f"\r[campaign] {done}/{self._total} units | {' | '.join(parts)} | eta {eta}"
        sys.stderr.write(line)
        sys.stderr.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _read_status_dir(status_dir: Path) -> dict[str, dict[str, Any]]:
    snapshots: dict[str, dict[str, Any]] = {}
    if not status_dir.is_dir():
        return snapshots
    for path in sorted(status_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(payload, dict) and payload.get("host"):
            snapshots[payload["host"]] = payload
    return snapshots


def execute_distributed(
    units: list[WorkUnit],
    store: "ResultStore",
    hosts: int,
    ctx,
    policy: CampaignPolicy,
    lease_config: Optional[LeaseConfig] = None,
    chaos: Optional["ChaosConfig"] = None,
    journal_root: Union[str, Path, None] = None,
    campaign_id: str = "",
    progress=None,
    host_prefix: str = "host",
) -> DistributedOutcome:
    """Fan one campaign out over ``hosts`` local host processes and merge.

    Spawns ``hosts`` independent processes each running :func:`run_host`
    against the shared store, watches their status snapshots for the live
    per-host progress view, and -- once the campaign is complete -- merges
    every unit's metrics back out of the store.  A host that dies mid-run
    (chaos kill, real crash) is simply never waited on: its leases expire
    and its peers steal the work.  Only when *every* host is gone with work
    still unfinished does :class:`DistributedCampaignError` surface -- and
    because the store is the checkpoint, re-running the same campaign
    against the same store resumes exactly where the dead hosts left off.
    """
    if hosts < 1:
        raise ValueError("hosts must be >= 1")
    if lease_config is None:
        lease_config = LeaseConfig()
    for unit in units:
        if unit.key is None:
            raise ValueError(
                f"run_campaign(hosts=...) requires content-addressed units; "
                f"unit {unit.uid!r} has no store key (is every condition cacheable?)"
            )

    pre_cached = {
        unit.uid for unit in units if os.path.isfile(store.entry_path(unit.key))
    }
    status_dir = Path(store.root) / "hosts" / (campaign_id[:12] or "campaign")
    status_dir.mkdir(parents=True, exist_ok=True)
    host_ids = [f"{host_prefix}-{i}" for i in range(hosts)]
    procs = []
    for host_id in host_ids:
        proc = ctx.Process(
            target=_host_entry,
            args=(
                units,
                str(store.root),
                host_id,
                policy,
                lease_config,
                chaos,
                str(journal_root) if journal_root is not None else None,
                campaign_id,
                str(status_dir / f"{host_id}.json"),
            ),
            daemon=False,
        )
        proc.start()
        procs.append(proc)

    manager = LeaseManager(Path(store.root) / "leases", host_prefix)
    reporter = _DistributedProgress(progress, len(units)) if progress else None

    def done_count() -> int:
        count = 0
        for unit in units:
            if os.path.isfile(store.entry_path(unit.key)):
                count += 1
            elif manager.quarantine_path(unit.key).is_file():
                count += 1
        return count

    try:
        while any(proc.is_alive() for proc in procs):
            if reporter is not None:
                reporter.render(done_count(), _read_status_dir(status_dir))
            time.sleep(0.2)
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        raise
    finally:
        host_stats = _read_status_dir(status_dir)
        if reporter is not None:
            reporter.render(done_count(), host_stats, final=True)
            reporter.close()

    # Merge the campaign back out of the store.
    merged: dict[str, dict[str, Any]] = {}
    failures = FailureReport()
    unfinished: list[str] = []
    for unit in units:
        metrics = store.get(unit.key)
        if metrics is not None:
            merged[unit.uid] = metrics
            continue
        marker = manager.read_quarantined(unit.key)
        if marker is not None:
            failures.quarantined.append(
                UnitFailure(
                    condition=marker.get("condition", unit.name),
                    repetition=marker.get("repetition", unit.repetition),
                    seed=marker.get("seed", unit.seed),
                    attempts=marker.get("attempts", 0),
                    kinds=list(marker.get("kinds", [])),
                    last_error=marker.get("last_error", ""),
                )
            )
            continue
        unfinished.append(unit.uid)

    # Leave no coordination residue behind: every lease of this campaign's
    # keys is dead once the campaign is merged (or its owner is one of our
    # now-exited hosts), and quarantine markers must not poison future runs.
    for unit in units:
        for path in (manager.lease_path(unit.key), manager.quarantine_path(unit.key)):
            try:
                path.unlink()
            except OSError:
                pass
    for sub in {manager.lease_path(unit.key).parent for unit in units}:
        try:
            sub.rmdir()  # best effort; non-empty dirs (other campaigns) stay
        except OSError:
            pass

    outcome = DistributedOutcome(
        merged=merged,
        failures=failures,
        host_stats=host_stats,
        pre_cached=pre_cached,
        attempts=sum(s.get("attempts", 0) for s in host_stats.values()),
        errors=sum(s.get("errors", 0) for s in host_stats.values()),
        stolen=sum(s.get("stolen", 0) for s in host_stats.values()),
        fenced=sum(s.get("fenced", 0) for s in host_stats.values()),
    )
    if unfinished:
        raise DistributedCampaignError(
            f"all {hosts} host(s) exited with {len(unfinished)} of {len(units)} "
            f"unit(s) unfinished (first: {unfinished[0]!r}); the store is the "
            "checkpoint -- re-run the same campaign against the same store to "
            "resume where the lost hosts left off"
        )
    # The per-host status snapshots were merged into the outcome above;
    # remove them so a clean completion leaves only objects/ behind.
    for host_id in host_ids:
        try:
            (status_dir / f"{host_id}.json").unlink()
        except OSError:
            pass
    try:
        status_dir.rmdir()
        status_dir.parent.rmdir()
    except OSError:
        pass
    return outcome
