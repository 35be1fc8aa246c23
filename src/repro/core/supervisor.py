"""Supervised campaign execution: timeouts, retries, quarantine, respawn.

:func:`repro.core.campaign.run_campaign` used to drive a bare
``ProcessPoolExecutor``: a hung work unit stalled the whole sweep, a worker
segfault killed the run with ``BrokenProcessPool``, and an interrupt lost
everything not yet merged.  This module is the supervision layer that
replaces it for week-long population campaigns:

* **per-unit wall-clock timeouts** -- each unit gets a deadline derived from
  its effective simulated duration times a configurable multiplier (or an
  explicit override); a worker that blows the deadline is terminated and its
  unit retried,
* **bounded retries with exponential backoff** -- a unit that raises, times
  out or takes its worker down is re-dispatched up to
  :attr:`CampaignPolicy.max_attempts` times, delayed by an exponentially
  growing backoff with *deterministic* jitter (hashed from the unit id and
  the attempt number, so two runs of the same campaign retry on the same
  schedule),
* **poison-unit quarantine** -- a unit that exhausts its attempts is either
  raised as :class:`CampaignUnitError` (the default) or quarantined into a
  structured :class:`FailureReport` while the rest of the campaign completes,
* **worker respawn** -- a crashed or killed worker is replaced immediately;
  the pool never shrinks below its configured size while work remains,
* **graceful interrupt** -- the first ``KeyboardInterrupt`` stops dispatching
  and drains in-flight units (bounded by :attr:`CampaignPolicy.drain_timeout_s`
  and the units' own deadlines) so their results reach the store/journal; a
  second interrupt tears the pool down immediately.  Worker teardown
  (terminate + join) runs on *every* exit path.

Workers are plain ``multiprocessing`` processes connected by one duplex pipe
each; the supervisor multiplexes over them with
:func:`multiprocessing.connection.wait`, which detects worker death as an
EOF on the pipe -- there is no shared queue a dying worker could corrupt.

The deterministic chaos harness (:mod:`repro.core.chaos`) plugs into the
worker loop: a seeded :class:`~repro.core.chaos.ChaosConfig` decides per
``(unit, attempt)`` whether to kill the worker, hang past the deadline or
raise inside the unit, which is how the fault-tolerance guarantees above are
proven byte-identical to fault-free runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "CampaignPolicy",
    "CampaignStats",
    "CampaignUnitError",
    "FailureReport",
    "UnitFailure",
    "WorkUnit",
    "stable_fraction",
]

#: Failure kinds recorded per attempt.
KIND_ERROR = "error"      # the unit function raised
KIND_TIMEOUT = "timeout"  # the unit exceeded its wall-clock deadline
KIND_CRASH = "crash"      # the worker process died mid-unit


def stable_fraction(*parts: Any) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` from ``parts``.

    Used for retry-backoff jitter and chaos fault draws: the value depends
    only on the textual rendering of ``parts``, never on process state, so
    schedules and fault plans replay identically across runs and platforms.
    """
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class CampaignPolicy:
    """Fault-tolerance policy of one campaign.

    Attributes
    ----------
    unit_timeout_s:
        Explicit per-unit wall-clock budget.  When ``None`` the budget is
        derived from the unit's effective simulated duration (see
        :meth:`timeout_for`).
    timeout_multiplier / min_timeout_s / default_timeout_s:
        Derived budget = ``max(sim_duration * timeout_multiplier,
        min_timeout_s)``; units whose duration is unknown get
        ``default_timeout_s``.  Timeouts are enforced by the supervised pool
        (``workers >= 2``); the in-process serial path cannot pre-empt a
        hung unit and applies only the retry/quarantine policy.
    max_attempts:
        Total attempts per unit (1 = no retries).
    backoff_base_s / backoff_cap_s / backoff_jitter:
        Failure ``n`` delays the next attempt by
        ``min(base * 2**(n-1), cap) * (1 + jitter * j)`` with ``j`` a
        deterministic per-(unit, attempt) fraction -- retries de-synchronise
        without sacrificing reproducibility.
    on_exhausted:
        ``"raise"`` aborts the campaign with :class:`CampaignUnitError` once
        a unit exhausts its attempts; ``"quarantine"`` records the unit in
        the :class:`FailureReport` and lets the campaign complete.
    drain_timeout_s:
        Upper bound on how long a graceful interrupt waits for in-flight
        units before tearing the pool down.
    """

    unit_timeout_s: Optional[float] = None
    timeout_multiplier: float = 4.0
    min_timeout_s: float = 120.0
    default_timeout_s: float = 600.0
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    backoff_jitter: float = 0.25
    on_exhausted: str = "raise"
    drain_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.on_exhausted not in ("raise", "quarantine"):
            raise ValueError("on_exhausted must be 'raise' or 'quarantine'")
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff parameters must be non-negative")

    def timeout_for(self, sim_duration_s: Optional[float]) -> float:
        """The wall-clock budget of one unit given its simulated duration."""
        if self.unit_timeout_s is not None:
            return self.unit_timeout_s
        if sim_duration_s is not None and sim_duration_s > 0:
            return max(sim_duration_s * self.timeout_multiplier, self.min_timeout_s)
        return self.default_timeout_s

    def backoff_for(self, uid: str, failures: int) -> float:
        """Delay before the attempt following failure number ``failures``."""
        if failures < 1 or self.backoff_base_s <= 0:
            return 0.0
        base = min(self.backoff_base_s * 2 ** (failures - 1), self.backoff_cap_s)
        return base * (1.0 + self.backoff_jitter * stable_fraction("backoff", uid, failures))


@dataclass
class CampaignStats:
    """Execution counters of one campaign run.

    ``units`` is the grid size; every unit ends up exactly once in
    ``completed``, ``cache_hits``, ``resumed`` or ``quarantined`` (unless the
    run was interrupted).  ``dispatched`` counts attempts handed to an
    executor -- the number a resume test asserts to prove completed units
    were never re-simulated -- and ``retries``/``errors``/``timeouts``/
    ``crashes`` make silent fault recovery visible in provenance records.
    """

    units: int = 0
    dispatched: int = 0
    completed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    retries: int = 0
    errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    stolen: int = 0    # stale leases reclaimed (distributed campaigns only)
    fenced: int = 0    # completions suppressed after a lease steal (ditto)
    exec_wall_s: float = 0.0  # wall-clock spent in successful unit attempts
    interrupted: bool = False

    @property
    def done(self) -> int:
        """Units accounted for (merged or quarantined)."""
        return self.completed + self.cache_hits + self.resumed + self.quarantined

    @property
    def faults(self) -> int:
        """Failed attempts of any kind."""
        return self.errors + self.timeouts + self.crashes

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class UnitFailure:
    """One quarantined work unit: what failed, how often, and why."""

    condition: str
    repetition: int
    seed: int
    attempts: int
    kinds: list[str]
    last_error: str

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class FailureReport:
    """Structured record of every quarantined unit of one campaign."""

    quarantined: list[UnitFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def conditions(self) -> set[str]:
        """Names of the conditions with at least one quarantined unit."""
        return {failure.condition for failure in self.quarantined}

    def as_dict(self) -> dict[str, Any]:
        return {"quarantined": [failure.as_dict() for failure in self.quarantined]}

    def __bool__(self) -> bool:  # truthy when there is something to report
        return bool(self.quarantined)


class CampaignUnitError(RuntimeError):
    """A work unit exhausted its attempts under ``on_exhausted='raise'``."""

    def __init__(self, failure: UnitFailure) -> None:
        self.failure = failure
        super().__init__(
            f"campaign unit {failure.condition!r} (repetition {failure.repetition}, "
            f"seed {failure.seed}) failed {failure.attempts} attempt(s) "
            f"[{', '.join(failure.kinds)}]: {failure.last_error}"
        )


@dataclass
class WorkUnit:
    """One dispatchable ``(condition, repetition)`` cell plus its attempt log."""

    uid: str
    index: int
    repetition: int
    name: str
    fn: Callable[..., Mapping[str, Any]]
    params: dict[str, Any]
    seed: int
    timeout_s: float
    key: Optional[str] = None
    attempts: int = 0
    failure_kinds: list[str] = field(default_factory=list)
    last_error: str = ""
    #: Wall-clock duration of the successful attempt (set by the executors;
    #: feeds journal ``ok`` events and the progress reporter's ETA).
    elapsed_s: Optional[float] = None

    def failure(self) -> UnitFailure:
        return UnitFailure(
            condition=self.name,
            repetition=self.repetition,
            seed=self.seed,
            attempts=self.attempts,
            kinds=list(self.failure_kinds),
            last_error=self.last_error,
        )


@dataclass
class UnitCallbacks:
    """Hooks the campaign layer uses to journal/checkpoint supervised work."""

    on_dispatch: Callable[[WorkUnit], None] = lambda unit: None
    on_complete: Callable[[WorkUnit, Mapping[str, Any]], None] = lambda unit, metrics: None
    on_attempt_failed: Callable[[WorkUnit, str, str], None] = lambda unit, kind, error: None
    on_quarantined: Callable[[WorkUnit], None] = lambda unit: None


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _worker_main(conn, chaos, inherited) -> None:
    """Worker loop: receive ``(uid, attempt, fn, params, seed)``, reply once.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole process
    group) leaves drain control with the supervisor; the supervisor stops
    workers with a ``None`` sentinel, pipe EOF, or SIGTERM.

    ``inherited`` holds the supervisor-side pipe ends a forked worker got
    copies of (its own and those of the workers forked before it).  They are
    closed first: while any process holds a supervisor end open, ``recv``
    never sees EOF, so a SIGKILLed supervisor would leave its workers alive.
    """
    for end in inherited:
        end.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        uid, attempt, fn, params, seed = task
        try:
            if chaos is not None:
                chaos.execute_fault(uid, attempt)
            metrics = fn(seed=seed, **params)
        except BaseException as exc:  # noqa: BLE001 - reported, never swallowed
            reply = (uid, attempt, KIND_ERROR, f"{type(exc).__name__}: {exc}")
        else:
            reply = (uid, attempt, "ok", metrics)
        try:
            conn.send(reply)
        except Exception:
            # Unpicklable metrics or a vanished supervisor: report what we
            # can; if even that fails the EOF path takes over.
            try:
                conn.send((uid, attempt, KIND_ERROR, "result could not be sent to the supervisor"))
            except Exception:
                return


class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = ("proc", "conn", "unit", "deadline", "started")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.unit: Optional[WorkUnit] = None
        self.deadline: Optional[float] = None
        self.started: Optional[float] = None


def _spawn_worker(ctx, chaos, pool: list[_Worker]) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # Only a forked child inherits the supervisor's open pipe ends; other
    # start methods pass the worker nothing but its own end.
    inherited = (
        (parent_conn, *(worker.conn for worker in pool))
        if ctx.get_start_method() == "fork"
        else ()
    )
    proc = ctx.Process(target=_worker_main, args=(child_conn, chaos, inherited), daemon=True)
    proc.start()
    child_conn.close()
    return _Worker(proc, parent_conn)


def _stop_worker(worker: _Worker) -> None:
    """Terminate + join one worker; escalate to SIGKILL if it lingers."""
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
    if worker.proc.is_alive():
        worker.proc.terminate()
        worker.proc.join(timeout=2.0)
        if worker.proc.is_alive():  # pragma: no cover - SIGTERM blocked
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
    else:
        worker.proc.join(timeout=1.0)


# --------------------------------------------------------------------------
# Supervisor side
# --------------------------------------------------------------------------


def execute_serial(
    units: list[WorkUnit],
    policy: CampaignPolicy,
    chaos,
    stats: CampaignStats,
    callbacks: UnitCallbacks,
) -> None:
    """In-process execution with the retry/quarantine policy applied.

    Wall-clock timeouts are not enforced here (a single process cannot
    pre-empt itself); use ``workers >= 2`` for hang protection.
    """
    for unit in units:
        while True:
            attempt = unit.attempts
            unit.attempts += 1
            stats.dispatched += 1
            callbacks.on_dispatch(unit)
            attempt_started = time.monotonic()
            try:
                if chaos is not None:
                    chaos.execute_fault(unit.uid, attempt)
                metrics = unit.fn(seed=unit.seed, **unit.params)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                stats.errors += 1
                unit.failure_kinds.append(KIND_ERROR)
                unit.last_error = f"{type(exc).__name__}: {exc}"
                callbacks.on_attempt_failed(unit, KIND_ERROR, unit.last_error)
                if unit.attempts >= policy.max_attempts:
                    if policy.on_exhausted == "quarantine":
                        stats.quarantined += 1
                        callbacks.on_quarantined(unit)
                        break
                    raise CampaignUnitError(unit.failure()) from exc
                stats.retries += 1
                delay = policy.backoff_for(unit.uid, unit.attempts)
                if delay > 0:
                    time.sleep(delay)
            else:
                unit.elapsed_s = time.monotonic() - attempt_started
                stats.exec_wall_s += unit.elapsed_s
                callbacks.on_complete(unit, metrics)
                break


def execute_supervised(
    units: list[WorkUnit],
    workers: int,
    ctx,
    policy: CampaignPolicy,
    chaos,
    stats: CampaignStats,
    callbacks: UnitCallbacks,
) -> None:
    """Run ``units`` on a supervised pool of ``workers`` processes.

    The loop multiplexes over one duplex pipe per worker.  Worker death
    surfaces as pipe EOF, hangs as missed deadlines; both terminate the
    worker (if needed), respawn a replacement and send the unit through the
    retry policy.  A ``KeyboardInterrupt`` drains in-flight units before the
    mandatory ``finally`` teardown (terminate + join every worker).
    """
    monotonic = time.monotonic
    ready: deque[WorkUnit] = deque(units)
    delayed: list[tuple[float, int, WorkUnit]] = []  # (ready_time, tiebreak, unit)
    delay_seq = 0
    pool: list[_Worker] = []
    for _ in range(max(1, min(workers, len(units)))):
        pool.append(_spawn_worker(ctx, chaos, pool))
    interrupted = False
    drain_deadline: Optional[float] = None

    def fail_attempt(unit: WorkUnit, kind: str, error: str) -> None:
        nonlocal delay_seq
        if kind == KIND_TIMEOUT:
            stats.timeouts += 1
        elif kind == KIND_CRASH:
            stats.crashes += 1
        else:
            stats.errors += 1
        unit.failure_kinds.append(kind)
        unit.last_error = error
        callbacks.on_attempt_failed(unit, kind, error)
        if interrupted:
            return  # draining: never schedule new work
        if unit.attempts >= policy.max_attempts:
            if policy.on_exhausted == "quarantine":
                stats.quarantined += 1
                callbacks.on_quarantined(unit)
                return
            raise CampaignUnitError(unit.failure())
        stats.retries += 1
        delay = policy.backoff_for(unit.uid, unit.attempts)
        delay_seq += 1
        heapq.heappush(delayed, (monotonic() + delay, delay_seq, unit))

    def replace(slot: int) -> None:
        _stop_worker(pool[slot])
        pool[slot] = _spawn_worker(ctx, chaos, pool)

    def handle_crash(slot: int) -> None:
        worker = pool[slot]
        unit = worker.unit
        worker.unit = None
        worker.deadline = None
        exitcode = worker.proc.exitcode
        replace(slot)
        if unit is not None:
            fail_attempt(unit, KIND_CRASH, f"worker process died (exitcode {exitcode})")

    try:
        while True:
            try:
                now = monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])

                if not interrupted:
                    for slot, worker in enumerate(pool):
                        if worker.unit is not None or not ready:
                            continue
                        if not worker.proc.is_alive():
                            replace(slot)
                            worker = pool[slot]
                        unit = ready.popleft()
                        try:
                            worker.conn.send((unit.uid, unit.attempts, unit.fn, unit.params, unit.seed))
                        except (OSError, ValueError):
                            ready.appendleft(unit)
                            replace(slot)
                            continue
                        unit.attempts += 1
                        stats.dispatched += 1
                        worker.unit = unit
                        worker.started = monotonic()
                        worker.deadline = worker.started + unit.timeout_s
                        callbacks.on_dispatch(unit)

                busy = [worker for worker in pool if worker.unit is not None]
                if not busy:
                    if interrupted or not (ready or delayed):
                        break
                    if delayed and not ready:
                        time.sleep(max(0.0, min(delayed[0][0] - monotonic(), 0.25)))
                    continue

                if drain_deadline is not None and monotonic() >= drain_deadline:
                    break  # drain grace exhausted; teardown kills the rest

                next_event = min(worker.deadline for worker in busy)
                if delayed:
                    next_event = min(next_event, delayed[0][0])
                if drain_deadline is not None:
                    next_event = min(next_event, drain_deadline)
                wait_timeout = min(max(next_event - monotonic(), 0.01), 0.25)
                readable = mp_connection.wait([worker.conn for worker in busy], timeout=wait_timeout)

                by_conn = {worker.conn: slot for slot, worker in enumerate(pool)}
                for conn in readable:
                    slot = by_conn[conn]
                    worker = pool[slot]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        handle_crash(slot)
                        continue
                    uid, _attempt, status, payload = message
                    unit = worker.unit
                    dispatched_at = worker.started
                    worker.unit = None
                    worker.deadline = None
                    worker.started = None
                    if unit is None or unit.uid != uid:  # pragma: no cover - stale reply
                        continue
                    if status == "ok":
                        if dispatched_at is not None:
                            unit.elapsed_s = monotonic() - dispatched_at
                            stats.exec_wall_s += unit.elapsed_s
                        callbacks.on_complete(unit, payload)
                    else:
                        fail_attempt(unit, KIND_ERROR, str(payload))

                now = monotonic()
                for slot, worker in enumerate(pool):
                    if worker.unit is None or worker.deadline is None or now < worker.deadline:
                        continue
                    if worker.conn.poll():
                        continue  # result already in the pipe; read it next pass
                    unit = worker.unit
                    worker.unit = None
                    worker.deadline = None
                    replace(slot)
                    fail_attempt(
                        unit,
                        KIND_TIMEOUT,
                        f"unit exceeded its {unit.timeout_s:.1f}s wall-clock budget "
                        f"(attempt {unit.attempts})",
                    )
            except KeyboardInterrupt:
                if interrupted:
                    raise  # second interrupt: stop draining immediately
                interrupted = True
                stats.interrupted = True
                ready.clear()
                delayed.clear()
                drain_deadline = monotonic() + policy.drain_timeout_s
        if interrupted:
            raise KeyboardInterrupt
    finally:
        for worker in pool:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in pool:
            _stop_worker(worker)
