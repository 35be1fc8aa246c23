"""Picklable work-unit functions for the supervisor / chaos test suites.

Campaign work units must be module-level callables (the pool pickles them
by reference), so the fault-injection helpers the tests dispatch live here
rather than inside test functions.  Cross-process coordination goes through
the filesystem: execution counting appends single bytes with ``O_APPEND``
(atomic on POSIX), and flakiness thresholds read the same counter files.

Also used by the SIGKILL-resume test, which launches
:func:`run_sleepy_campaign` in a subprocess (``PYTHONPATH=src:tests``) and
kills it mid-sweep.
"""

from __future__ import annotations

import os
import time


def _append_byte(path: str) -> int:
    """Atomically append one byte to ``path``; returns the new count."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b".")
    finally:
        os.close(fd)
    return os.path.getsize(path)


def execution_count(path: str) -> int:
    """How many times a counted unit function ran (0 if never)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def quick(value: float = 1.0, label: str = "unit", seed: int = 0) -> dict[str, float]:
    """A deterministic, instant work unit."""
    return {"value": float(value) + seed, "seed": float(seed)}


def counted(count_file: str, value: float = 1.0, seed: int = 0) -> dict[str, float]:
    """Like :func:`quick`, but records every execution in ``count_file``."""
    _append_byte(count_file)
    return {"value": float(value) + seed, "seed": float(seed)}


def sleepy(
    sleep_s: float = 0.3, count_file: str | None = None, seed: int = 0
) -> dict[str, float]:
    """Sleeps ``sleep_s`` then returns; optionally counts executions."""
    time.sleep(sleep_s)
    if count_file is not None:
        _append_byte(count_file)
    return {"slept_s": float(sleep_s), "seed": float(seed)}


def boom(message: str = "synthetic failure", seed: int = 0) -> dict[str, float]:
    """Always raises (exercises the in-unit error path)."""
    raise RuntimeError(f"{message} (seed {seed})")


def die(exit_code: int = 117, seed: int = 0) -> dict[str, float]:
    """Kills the worker process outright (exercises the crash path)."""
    os._exit(exit_code)


def flaky(fail_file: str, fail_times: int = 1, seed: int = 0) -> dict[str, float]:
    """Fails its first ``fail_times`` executions, then succeeds.

    The attempt count lives in ``fail_file`` so it survives worker
    respawns and is shared across processes.
    """
    count = _append_byte(fail_file)
    if count <= fail_times:
        raise RuntimeError(f"flaky attempt {count}/{fail_times} (seed {seed})")
    return {"attempts_needed": float(count), "seed": float(seed)}


def flaky_crash(fail_file: str, fail_times: int = 1, seed: int = 0) -> dict[str, float]:
    """Crashes the worker for its first ``fail_times`` executions."""
    count = _append_byte(fail_file)
    if count <= fail_times:
        os._exit(117)
    return {"attempts_needed": float(count), "seed": float(seed)}


def flaky_hang(
    fail_file: str, fail_times: int = 1, hang_s: float = 30.0, seed: int = 0
) -> dict[str, float]:
    """Hangs past any sane unit timeout for its first ``fail_times`` runs."""
    count = _append_byte(fail_file)
    if count <= fail_times:
        time.sleep(hang_s)
    return {"attempts_needed": float(count), "seed": float(seed)}


def run_sleepy_campaign(
    store_dir: str,
    count_file: str,
    units: int = 6,
    sleep_s: float = 0.25,
    workers: int = 2,
) -> list[dict[str, float]]:
    """A small pooled campaign of sleepy units (SIGKILL-resume subject).

    The parent test launches this in a subprocess, waits for the store to
    hold a few completions, SIGKILLs the whole process tree, then re-runs
    the grid in-process against the same store and asserts stored units are
    not re-simulated (via ``count_file``).
    """
    from repro.core.campaign import Condition, run_campaign

    conditions = [
        Condition(
            name=f"sleepy-{index}",
            fn=sleepy,
            params={"sleep_s": sleep_s, "count_file": count_file},
            repetitions=1,
            seed=index,
        )
        for index in range(units)
    ]
    results = run_campaign(conditions, workers=workers, store=store_dir)
    return [dict(result.runs[0]) for result in results]


def race_claim(lease_root: str, host_id: str, key: str, barrier, queue) -> None:
    """Race one ``LeaseManager.try_claim`` against sibling processes.

    Every racer waits on the shared barrier so the hard-link claims hit the
    filesystem as close to simultaneously as the scheduler allows, then
    reports ``(host_id, won)`` on the queue.
    """
    from repro.core.scheduler import LeaseManager

    manager = LeaseManager(lease_root, host_id)
    barrier.wait()
    lease = manager.try_claim(key, "contested", ttl_s=60.0)
    queue.put((host_id, lease is not None))


def hammer_put(store_root: str, key: str, rounds: int, barrier) -> None:
    """Repeatedly publish the same (key, metrics) entry as fast as possible.

    Several of these run concurrently against one store while the parent
    reads the key in a loop: any torn or mixed entry would fail the store's
    read validation and surface as a ``None`` get.
    """
    from repro.results import ResultStore

    store = ResultStore(store_root)
    barrier.wait()
    for round_index in range(rounds):
        store.put(key, {"metric": 1.5, "seed": 0.0}, meta={"round": round_index})
