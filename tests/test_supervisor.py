"""Fault-tolerant campaign execution: the supervised pool and the journal.

Covers the supervision layer's guarantees end to end:

* retry with deterministic backoff, quarantine vs abort on exhaustion,
* per-unit wall-clock timeouts and worker-crash respawn (pool mode),
* serial and pooled runs of one grid merge byte-identically,
* graceful interrupt: in-flight units drain, completed units are flushed,
  no worker processes are leaked on any exit path,
* the campaign journal: fresh start, resume with zero re-simulation of
  completed units, torn-tail tolerance, grid-mismatch rejection,
* a SIGKILLed sweep resumes from the journal (subprocess test),
* two concurrent campaigns sharing one result store (no corruption,
  at most one double-execute per key).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import _campaign_workers as workers_mod
from repro.core.campaign import (
    CampaignPolicy,
    CampaignUnitError,
    Condition,
    run_campaign,
)
from repro.core.journal import CampaignJournal, JournalMismatchError
from repro.core.supervisor import CampaignStats, stable_fraction
from repro.results import ResultStore
from repro.results.fingerprint import canonical_json

FAST = CampaignPolicy(backoff_base_s=0.0)  # retries without sleeping


def encode(results) -> bytes:
    """Canonical byte encoding of a campaign's merged metrics."""
    return canonical_json([[dict(run) for run in r.runs] for r in results]).encode()


def quick_grid(n: int = 4, repetitions: int = 2) -> list[Condition]:
    return [
        Condition(
            name=f"q{i}",
            fn=workers_mod.quick,
            params={"value": float(i)},
            repetitions=repetitions,
            seed=10 * i,
        )
        for i in range(n)
    ]


class TestPolicy:
    def test_timeout_derivation(self):
        policy = CampaignPolicy()
        assert policy.timeout_for(150.0) == 600.0  # duration * multiplier
        assert policy.timeout_for(5.0) == 120.0  # floored at min_timeout_s
        assert policy.timeout_for(None) == 600.0  # unknown -> default
        assert CampaignPolicy(unit_timeout_s=7.5).timeout_for(150.0) == 7.5

    def test_backoff_grows_caps_and_replays(self):
        policy = CampaignPolicy(backoff_base_s=1.0, backoff_cap_s=4.0, backoff_jitter=0.25)
        first = policy.backoff_for("u", 1)
        second = policy.backoff_for("u", 2)
        assert 1.0 <= first <= 1.25
        assert 2.0 <= second <= 2.5
        # Capped growth: failure 10 backs off no more than cap * (1 + jitter).
        assert policy.backoff_for("u", 10) <= 4.0 * 1.25
        # Deterministic: the schedule replays exactly.
        assert policy.backoff_for("u", 1) == first
        assert policy.backoff_for("other", 1) != first  # jitter de-synchronises
        assert policy.backoff_for("u", 0) == 0.0
        assert CampaignPolicy(backoff_base_s=0.0).backoff_for("u", 3) == 0.0

    def test_stable_fraction_is_stable(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)
        assert 0.0 <= stable_fraction("a", 1) < 1.0
        assert stable_fraction("a", 1) != stable_fraction("a", 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            CampaignPolicy(on_exhausted="explode")
        with pytest.raises(ValueError):
            CampaignPolicy(unit_timeout_s=0.0)
        with pytest.raises(ValueError):
            CampaignPolicy(backoff_base_s=-1.0)

    def test_stats_accounting(self):
        stats = CampaignStats(units=10, completed=4, cache_hits=3, resumed=2, quarantined=1)
        assert stats.done == 10
        stats.errors, stats.timeouts, stats.crashes = 1, 2, 3
        assert stats.faults == 6
        assert stats.as_dict()["completed"] == 4


class TestSerialExecution:
    def test_flaky_unit_retries_then_succeeds(self, tmp_path):
        fail_file = str(tmp_path / "flaky")
        results = run_campaign(
            [Condition(name="f", fn=workers_mod.flaky,
                       params={"fail_file": fail_file, "fail_times": 2})],
            policy=FAST,
        )
        assert results[0].runs[0]["attempts_needed"] == 3.0
        assert results.stats.retries == 2
        assert results.stats.errors == 2
        assert results.stats.completed == 1
        assert results.ok

    def test_exhausted_unit_raises_by_default(self):
        with pytest.raises(CampaignUnitError) as excinfo:
            run_campaign([Condition(name="b", fn=workers_mod.boom)], policy=FAST)
        failure = excinfo.value.failure
        assert failure.condition == "b"
        assert failure.attempts == FAST.max_attempts
        assert failure.kinds == ["error"] * FAST.max_attempts

    def test_quarantine_completes_with_partial_results(self):
        policy = CampaignPolicy(backoff_base_s=0.0, on_exhausted="quarantine")
        conditions = [
            Condition(name="good", fn=workers_mod.quick, repetitions=2),
            Condition(name="bad", fn=workers_mod.boom, repetitions=2),
        ]
        results = run_campaign(conditions, policy=policy)
        assert len(results[0].runs) == 2
        assert results[1].runs == []
        assert not results.ok
        assert results.failures.conditions() == {"bad"}
        assert results.stats.quarantined == 2
        report = results.failures.as_dict()["quarantined"][0]
        assert report["condition"] == "bad" and "synthetic failure" in report["last_error"]

    def test_single_attempt_policy_never_retries(self, tmp_path):
        fail_file = str(tmp_path / "flaky")
        policy = CampaignPolicy(max_attempts=1, on_exhausted="quarantine")
        results = run_campaign(
            [Condition(name="f", fn=workers_mod.flaky,
                       params={"fail_file": fail_file, "fail_times": 1})],
            policy=policy,
        )
        assert results.stats.retries == 0
        assert results.stats.quarantined == 1


class TestSupervisedPool:
    def test_pooled_equals_serial_byte_identically(self):
        conditions = quick_grid()
        serial = run_campaign(conditions)
        pooled = run_campaign(conditions, workers=2, policy=FAST)
        assert encode(pooled) == encode(serial)
        assert pooled.stats.dispatched == pooled.stats.units == 8

    def test_crash_respawns_worker_and_retries(self, tmp_path):
        fail_file = str(tmp_path / "crashes")
        conditions = [
            Condition(name="crashy", fn=workers_mod.flaky_crash,
                      params={"fail_file": fail_file, "fail_times": 1}),
            Condition(name="steady", fn=workers_mod.quick, repetitions=2),
        ]
        results = run_campaign(conditions, workers=2, policy=FAST)
        assert results.stats.crashes == 1
        assert results.stats.retries == 1
        assert results.stats.completed == 3
        assert results[0].runs[0]["attempts_needed"] == 2.0

    def test_always_crashing_unit_quarantined_campaign_survives(self):
        policy = CampaignPolicy(backoff_base_s=0.0, on_exhausted="quarantine")
        conditions = [
            Condition(name="doomed", fn=workers_mod.die),
            Condition(name="steady", fn=workers_mod.quick, repetitions=3),
        ]
        results = run_campaign(conditions, workers=2, policy=policy)
        assert results.stats.crashes == policy.max_attempts
        assert results.failures.conditions() == {"doomed"}
        assert [f.kinds for f in results.failures.quarantined] == [["crash"] * 3]
        assert len(results[1].runs) == 3

    def test_hung_unit_times_out_and_is_killed(self):
        policy = CampaignPolicy(
            unit_timeout_s=0.5, max_attempts=1, on_exhausted="quarantine"
        )
        conditions = [
            Condition(name="hung", fn=workers_mod.sleepy, params={"sleep_s": 30.0}),
            Condition(name="steady", fn=workers_mod.quick, repetitions=2),
        ]
        start = time.monotonic()
        results = run_campaign(conditions, workers=2, policy=policy)
        assert time.monotonic() - start < 15.0, "timeout must pre-empt the 30s sleep"
        assert results.stats.timeouts == 1
        assert results.failures.quarantined[0].kinds == ["timeout"]
        assert "wall-clock budget" in results.failures.quarantined[0].last_error
        assert len(results[1].runs) == 2

    def test_no_workers_leak_on_success_or_failure(self):
        baseline = len(multiprocessing.active_children())
        run_campaign(quick_grid(n=2), workers=2, policy=FAST)
        with pytest.raises(CampaignUnitError):
            run_campaign([Condition(name="b", fn=workers_mod.boom)], workers=2, policy=FAST)
        deadline = time.monotonic() + 5.0
        while len(multiprocessing.active_children()) > baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= baseline


class TestInterrupt:
    def test_interrupt_drains_flushes_and_resumes(self, tmp_path):
        """First Ctrl-C: in-flight units finish, completed ones checkpoint,
        the pool is torn down, and a --resume re-simulates only the rest."""
        count_file = str(tmp_path / "count")
        journal_dir = tmp_path / "journal"
        conditions = [
            Condition(name=f"s{i}", fn=workers_mod.sleepy,
                      params={"sleep_s": 0.2, "count_file": count_file}, seed=i)
            for i in range(6)
        ]
        seen = []

        def interrupt_after_two(snapshot):
            seen.append(snapshot["done"])
            if snapshot["done"] == 2:
                raise KeyboardInterrupt

        baseline = len(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                conditions, workers=2, policy=FAST,
                journal=journal_dir, progress=interrupt_after_two,
            )
        deadline = time.monotonic() + 5.0
        while len(multiprocessing.active_children()) > baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= baseline, "orphaned workers"

        journal = CampaignJournal(journal_dir)
        flushed = journal.replay_completed()
        assert len(flushed) >= 2, "completed units must be flushed to the journal"
        events = [json.loads(line) for line in journal.events_path.read_text().splitlines()]
        assert {"event": "interrupted"} in events

        executed_before = workers_mod.execution_count(count_file)
        resumed = run_campaign(
            conditions, workers=2, policy=FAST, journal=journal_dir, resume=True
        )
        assert resumed.stats.resumed == len(flushed)
        assert resumed.stats.dispatched == 6 - len(flushed), "completed units re-simulated"
        assert workers_mod.execution_count(count_file) == executed_before + 6 - len(flushed)
        # The resumed merge is identical to an uninterrupted serial run.
        clean = run_campaign(conditions)
        assert encode(resumed) == encode(clean)


class TestJournal:
    def test_fresh_start_truncates_and_resume_replays(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j")
        assert journal.start("cid", total_units=2) == {}
        journal.record_dispatch("u0", 0)
        journal.record_ok("u0", 0, {"v": 1.0})
        journal.close()
        # Resume against the matching campaign replays the completion.
        again = CampaignJournal(tmp_path / "j")
        assert again.start("cid", total_units=2, resume=True) == {"u0": {"v": 1.0}}
        again.close()
        # A fresh (non-resume) start truncates the log.
        fresh = CampaignJournal(tmp_path / "j")
        assert fresh.start("cid", total_units=2) == {}
        fresh.close()
        assert fresh.replay_completed() == {}

    def test_resume_rejects_different_campaign(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j")
        journal.start("cid-a", total_units=1)
        journal.close()
        with pytest.raises(JournalMismatchError):
            CampaignJournal(tmp_path / "j").start("cid-b", total_units=1, resume=True)

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        journal = CampaignJournal(tmp_path / "never-written")
        assert journal.start("cid", total_units=1, resume=True) == {}
        journal.close()

    def test_torn_tail_is_skipped_not_trusted(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j")
        journal.start("cid", total_units=3)
        journal.record_ok("u0", 0, {"v": 1.0})
        journal.record_ok("u1", 0, {"v": 2.0})
        journal.close()
        with open(journal.events_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "ok", "unit": "u2", "metrics": {"v"')  # torn write
        completed = journal.replay_completed()
        assert completed == {"u0": {"v": 1.0}, "u1": {"v": 2.0}}
        assert journal.torn_lines == 1

    def test_grid_change_invalidates_resume(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_campaign(quick_grid(n=2), journal=journal_dir)
        edited = quick_grid(n=2)
        edited[0] = Condition(
            name="q0", fn=workers_mod.quick, params={"value": 99.0}, repetitions=2
        )
        with pytest.raises(JournalMismatchError):
            run_campaign(edited, journal=journal_dir, resume=True)

    def test_resume_via_run_campaign_zero_redispatch(self, tmp_path):
        conditions = quick_grid()
        journal_dir = tmp_path / "journal"
        first = run_campaign(conditions, journal=journal_dir)
        assert first.stats.dispatched == 8
        second = run_campaign(conditions, journal=journal_dir, resume=True)
        assert second.stats.resumed == 8
        assert second.stats.dispatched == 0
        assert encode(second) == encode(first)


def _child_pids(pid: int) -> set[int]:
    """PIDs whose parent is ``pid`` (Linux ``/proc``)."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.add(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class TestSigkillResume:
    @pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs Linux /proc")
    def test_sigkilled_sweep_resumes_without_resimulating(self, tmp_path):
        """SIGKILL the supervisor mid-sweep: its workers must exit, and resume
        must re-run only the units the journal does not record as completed."""
        journal_dir = tmp_path / "journal"
        count_file = str(tmp_path / "count")
        code = (
            "import _campaign_workers as w; "
            f"w.run_sleepy_campaign({str(journal_dir)!r}, None, {count_file!r}, "
            "units=6, sleep_s=0.25, workers=2)"
        )
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=str(repo),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        journal = CampaignJournal(journal_dir)
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail("campaign subprocess finished before it could be killed")
                if journal.events_path.is_file() and len(journal.replay_completed()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never recorded two completions")
            worker_pids = _child_pids(proc.pid)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)
            assert len(worker_pids) == 2, worker_pids
            # Orphaned workers finish their in-flight unit, then see EOF on
            # their pipe and exit.
            exit_deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in worker_pids) and time.monotonic() < exit_deadline:
                time.sleep(0.05)
            assert not [pid for pid in worker_pids if _running(pid)], "workers outlived the supervisor"
        finally:
            # Backstop: never leave the campaign's process group behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10.0)

        completed = journal.replay_completed()
        assert 2 <= len(completed) < 6, "the kill must land mid-sweep"
        # Workers may have completed their in-flight units before exiting;
        # wait for the execution counter to quiesce before snapshotting it.
        executed_before = workers_mod.execution_count(count_file)
        stable_since = time.monotonic()
        while time.monotonic() - stable_since < 0.75:
            current = workers_mod.execution_count(count_file)
            if current != executed_before:
                executed_before = current
                stable_since = time.monotonic()
            time.sleep(0.05)

        conditions = [
            Condition(name=f"sleepy-{i}", fn=workers_mod.sleepy,
                      params={"sleep_s": 0.25, "count_file": count_file}, seed=i)
            for i in range(6)
        ]
        results = run_campaign(
            conditions, workers=2, policy=FAST, journal=journal_dir, resume=True
        )
        assert results.stats.resumed == len(completed)
        assert results.stats.dispatched == 6 - len(completed)
        assert (
            workers_mod.execution_count(count_file)
            == executed_before + 6 - len(completed)
        ), "a journal-completed unit was re-simulated"
        assert encode(results) == encode(run_campaign(conditions))


def _run_shared_store_campaign(store_dir: str, count_dir: str, barrier) -> None:
    """One of two concurrent campaigns over the same grid and store."""
    conditions = [
        Condition(
            name=f"c{i}",
            fn=workers_mod.counted,
            params={"count_file": os.path.join(count_dir, f"c{i}"), "value": float(i)},
            repetitions=1,
            seed=i,
        )
        for i in range(4)
    ]
    barrier.wait(timeout=30.0)
    run_campaign(conditions, store=store_dir, policy=FAST)


class TestConcurrentCampaigns:
    def test_two_campaigns_share_one_store_safely(self, tmp_path):
        store_dir = str(tmp_path / "store")
        count_dir = tmp_path / "counts"
        count_dir.mkdir()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_run_shared_store_campaign,
                args=(store_dir, str(count_dir), barrier),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
        # At most one double-execute per key (both campaigns racing the
        # same cold cell), never more, and never a corrupted entry.
        for i in range(4):
            executions = workers_mod.execution_count(str(count_dir / f"c{i}"))
            assert 1 <= executions <= 2, f"unit c{i} ran {executions} times"
        store = ResultStore(store_dir)
        conditions = [
            Condition(
                name=f"c{i}",
                fn=workers_mod.counted,
                params={"count_file": os.path.join(str(count_dir), f"c{i}"), "value": float(i)},
                repetitions=1,
                seed=i,
            )
            for i in range(4)
        ]
        warm = run_campaign(conditions, store=store)
        assert warm.stats.cache_hits == 4, "a concurrent write corrupted the store"
        assert store.discarded == 0
        assert [r.runs[0]["value"] for r in warm] == [0.0, 2.0, 4.0, 6.0]
