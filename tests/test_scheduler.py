"""Distributed campaign service: leases, heartbeats, stealing, host crashes.

Covers the lease protocol and the multi-host fan-out end to end:

* lease claim/refresh/release round trips, hard-link claim contention
  from racing processes (exactly one winner), torn-record staleness,
* stealing an expired lease bumps the fencing counter and the zombie
  owner's late release is suppressed (never clobbers the thief),
* N-host campaigns merge byte-identically to a fault-free serial run --
  clean, with a host killed mid-unit (steal + re-execute), with a host
  killed between publish and release (orphaned-but-complete lease), and
  with frozen heartbeats on a slow unit (steal + fence),
* killing every host raises; re-running resumes from the store for free
  with no unit ever executed twice,
* after clean completion the store carries zero coordination residue
  (no lease files, no host-status snapshots, no ``*.tmp`` files),
* quarantine markers share poison-unit knowledge across hosts,
* same-key ``ResultStore.put`` hammered from several processes is never
  observably torn,
* the store's ``*.tmp`` sweep and the duration-based ETA,
* a real-scenario multi-host chaos run at ``REPRO_CHAOS_DURATION``
  seconds (the CI multi-host chaos-smoke entry).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import _campaign_workers as workers_mod
from repro.core.campaign import CampaignPolicy, Condition, expand_units, run_campaign
from repro.core.chaos import ChaosConfig, HostFaultPlan
from repro.core.scheduler import (
    DistributedCampaignError,
    LeaseConfig,
    LeaseManager,
    run_host,
)
from repro.results import ResultStore
from repro.results.fingerprint import canonical_json

#: Duration of the real-scenario multi-host chaos run (CI sets this low).
CHAOS_DURATION_S = float(os.environ.get("REPRO_CHAOS_DURATION", "3"))

#: Tight lease timing so steal/fence paths run in test time, not minutes.
FAST_LEASES = LeaseConfig(
    min_ttl_s=0.3,
    ttl_multiplier=0.001,
    heartbeat_interval_s=0.05,
    poll_interval_s=0.05,
)

FAST = CampaignPolicy(backoff_base_s=0.0)


def encode(results) -> bytes:
    """Canonical byte encoding of a campaign's merged metrics."""
    return canonical_json([[dict(run) for run in r.runs] for r in results]).encode()


def quick_grid(n: int = 3, repetitions: int = 2) -> list[Condition]:
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


def assert_no_residue(store_root: Path) -> None:
    """After clean completion the store holds results and nothing else."""
    leases = store_root / "leases"
    if leases.exists():
        assert [p for p in leases.rglob("*") if p.is_file()] == []
    assert not (store_root / "hosts").exists()
    assert list(store_root.rglob("*.tmp*")) == []


class TestLeaseConfig:
    def test_ttl_floor_and_scaling(self):
        config = LeaseConfig(min_ttl_s=15.0, ttl_multiplier=0.5)
        assert config.ttl_for(10.0) == 15.0  # floored
        assert config.ttl_for(600.0) == 300.0  # scaled

    def test_heartbeat_interval_derivation(self):
        assert LeaseConfig(min_ttl_s=15.0).heartbeat_interval() == 3.0
        assert LeaseConfig(min_ttl_s=100.0).heartbeat_interval() == 5.0  # capped
        assert LeaseConfig(min_ttl_s=0.1).heartbeat_interval() == 0.05  # floored
        assert LeaseConfig(heartbeat_interval_s=1.25).heartbeat_interval() == 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(min_ttl_s=0.0)
        with pytest.raises(ValueError):
            LeaseConfig(ttl_multiplier=-1.0)
        with pytest.raises(ValueError):
            LeaseConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            LeaseConfig(steal_grace_s=-0.1)


class TestLeaseManager:
    KEY = "ab" + "0" * 62

    def test_claim_release_roundtrip(self, tmp_path):
        manager = LeaseManager(tmp_path, "host-a")
        lease = manager.try_claim(self.KEY, "0:q0#r0", ttl_s=60.0)
        assert lease is not None and lease.fence == 1
        # Held: a second claim (any host) loses.
        other = LeaseManager(tmp_path, "host-b")
        assert other.try_claim(self.KEY, "0:q0#r0", ttl_s=60.0) is None
        assert manager.refresh(lease)
        assert manager.release(lease)
        # Released: claimable again.
        assert other.try_claim(self.KEY, "0:q0#r0", ttl_s=60.0) is not None

    def test_torn_record_is_stale_and_stealable(self, tmp_path):
        manager = LeaseManager(tmp_path, "host-a")
        path = manager.lease_path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_text('{"host": "host-a", "expires')  # crash mid-claim
        record = manager.read(self.KEY)
        assert record == {"corrupt": True}
        assert manager.is_stale(record)
        stolen = manager.try_steal(self.KEY, record, "0:q0#r0", ttl_s=60.0)
        assert stolen is not None and stolen.fence == 2  # unknown fence -> 2

    def test_steal_bumps_fence_and_fences_old_owner(self, tmp_path):
        owner = LeaseManager(tmp_path, "host-a")
        thief = LeaseManager(tmp_path, "host-b")
        lease = owner.try_claim(self.KEY, "0:q0#r0", ttl_s=0.05)
        time.sleep(0.08)  # no heartbeat -> expires
        record = thief.read(self.KEY)
        assert thief.is_stale(record)
        stolen = thief.try_steal(self.KEY, record, "0:q0#r0", ttl_s=60.0)
        assert stolen is not None and stolen.fence == lease.fence + 1
        # The zombie resurfaces: refresh and release both refuse and mark
        # the lease lost; the thief's claim is untouched.
        assert not owner.refresh(lease)
        assert lease.lost
        assert not owner.release(lease)
        assert thief.verify(stolen)

    def test_live_lease_not_stale_within_grace(self, tmp_path):
        manager = LeaseManager(tmp_path, "host-a")
        manager.try_claim(self.KEY, "0:q0#r0", ttl_s=0.05)
        time.sleep(0.08)
        record = manager.read(self.KEY)
        assert manager.is_stale(record, grace_s=0.0)
        assert not manager.is_stale(record, grace_s=60.0)  # clock-skew slack

    def test_exclusive_claim_across_processes(self, tmp_path):
        """N processes race one hard-link claim; the filesystem picks one winner."""
        ctx = multiprocessing.get_context("fork")
        racers = 4
        barrier = ctx.Barrier(racers)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=workers_mod.race_claim,
                args=(str(tmp_path), f"racer-{i}", self.KEY, barrier, queue),
            )
            for i in range(racers)
        ]
        for proc in procs:
            proc.start()
        outcomes = [queue.get(timeout=30) for _ in range(racers)]
        for proc in procs:
            proc.join(timeout=30)
        winners = [host for host, won in outcomes if won]
        assert len(winners) == 1


class TestRunHost:
    def test_single_host_drains_and_cleans_up(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        units, _ = expand_units(quick_grid(), FAST, fingerprint="fp")
        stats, failures = run_host(
            units, store, "solo", policy=FAST, lease_config=FAST_LEASES
        )
        assert stats.executed == len(units) and stats.claims == len(units)
        assert stats.stolen == 0 and stats.fenced == 0 and failures.ok
        for unit in units:
            assert store.get(unit.key) is not None
        assert [p for p in (store.root / "leases").rglob("*") if p.is_file()] == []

    def test_second_host_merges_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        units, _ = expand_units(quick_grid(), FAST, fingerprint="fp")
        run_host(units, store, "first", policy=FAST, lease_config=FAST_LEASES)
        units2, _ = expand_units(quick_grid(), FAST, fingerprint="fp")
        stats, _ = run_host(units2, store, "second", policy=FAST, lease_config=FAST_LEASES)
        assert stats.merged == len(units2) and stats.executed == 0
        assert stats.attempts == 0  # nothing re-simulated

    def test_quarantine_marker_shared_across_hosts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        grid = [Condition(name="bad", fn=workers_mod.boom, params={}, repetitions=1)]
        policy = CampaignPolicy(
            backoff_base_s=0.0, max_attempts=2, on_exhausted="quarantine"
        )
        units, _ = expand_units(grid, policy, fingerprint="fp")
        stats_a, failures_a = run_host(
            units, store, "host-a", policy=policy, lease_config=FAST_LEASES
        )
        assert stats_a.quarantined == 1 and stats_a.attempts == 2
        assert failures_a.quarantined[0].condition == "bad"
        # A second host sees the marker and never executes the poison unit.
        units_b, _ = expand_units(grid, policy, fingerprint="fp")
        stats_b, failures_b = run_host(
            units_b, store, "host-b", policy=policy, lease_config=FAST_LEASES
        )
        assert stats_b.quarantined == 1 and stats_b.attempts == 0
        assert failures_b.quarantined[0].kinds == failures_a.quarantined[0].kinds


class TestDistributedEquivalence:
    """run_campaign(hosts=N) merges byte-identically to serial, under chaos."""

    def test_clean_two_host_run_matches_serial(self, tmp_path):
        grid = quick_grid()
        serial = run_campaign(grid, store=tmp_path / "ref")
        dist = run_campaign(
            grid, store=tmp_path / "store", hosts=2, lease_config=FAST_LEASES
        )
        assert encode(dist) == encode(serial)
        assert dist.stats.completed == 6 and dist.ok
        assert dist.hosts is not None and set(dist.hosts) == {"host-0", "host-1"}
        assert sum(h["executed"] + h["merged"] for h in dist.hosts.values()) >= 6
        assert_no_residue(tmp_path / "store")

    def test_second_hosts_run_is_all_cache_hits(self, tmp_path):
        grid = quick_grid()
        run_campaign(grid, store=tmp_path / "store", hosts=2, lease_config=FAST_LEASES)
        again = run_campaign(
            grid, store=tmp_path / "store", hosts=2, lease_config=FAST_LEASES
        )
        assert again.stats.cache_hits == 6 and again.stats.dispatched == 0

    def test_host_killed_mid_unit_recovers_via_steal(self, tmp_path):
        """SIGKILL-alike mid-unit: the lease is stolen and the unit re-run."""
        grid = quick_grid()
        serial = run_campaign(grid, store=tmp_path / "ref")
        chaos = ChaosConfig(host_faults=(HostFaultPlan("host-0", kill_after_claims=1),))
        dist = run_campaign(
            grid, store=tmp_path / "store", hosts=2, chaos=chaos,
            lease_config=FAST_LEASES,
        )
        assert encode(dist) == encode(serial)
        assert dist.stats.stolen >= 1
        assert dist.hosts["host-1"]["stolen"] >= 1
        assert_no_residue(tmp_path / "store")

    def test_host_killed_after_publish_is_merged(self, tmp_path):
        """Death between store write and lease release loses no work."""
        grid = quick_grid()
        serial = run_campaign(grid, store=tmp_path / "ref")
        chaos = ChaosConfig(host_faults=(HostFaultPlan("host-0", kill_after_units=1),))
        dist = run_campaign(
            grid, store=tmp_path / "store", hosts=2, chaos=chaos,
            lease_config=FAST_LEASES,
        )
        assert encode(dist) == encode(serial)
        assert dist.stats.completed == 6
        assert_no_residue(tmp_path / "store")

    def test_frozen_heartbeats_on_slow_unit_steal_and_fence(self, tmp_path):
        """A live-but-silent host is presumed dead; its late release fences."""
        grid = [
            Condition(
                name="slow", fn=workers_mod.sleepy,
                params={"sleep_s": 1.0}, repetitions=1, seed=7,
            )
        ]
        serial = run_campaign(grid, store=tmp_path / "ref")
        chaos = ChaosConfig(
            host_faults=(
                HostFaultPlan("host-0", freeze_heartbeats_after_units=0,
                              release_delay_s=1.0),
                HostFaultPlan("host-1", freeze_heartbeats_after_units=0,
                              release_delay_s=1.0),
            )
        )
        dist = run_campaign(
            grid, store=tmp_path / "store", hosts=2, chaos=chaos,
            lease_config=FAST_LEASES,
        )
        assert encode(dist) == encode(serial)
        assert dist.stats.stolen >= 1 and dist.stats.fenced >= 1

    def test_all_hosts_dead_raises_then_resumes_exactly_once(self, tmp_path):
        """Total loss raises; the re-run completes with no double execution."""
        count_file = str(tmp_path / "count")
        grid = [
            Condition(
                name=f"c{i}", fn=workers_mod.counted,
                params={"count_file": count_file, "value": float(i)},
                repetitions=1, seed=100 * i,
            )
            for i in range(4)
        ]
        serial = run_campaign(grid, store=tmp_path / "ref")
        chaos = ChaosConfig(
            host_faults=(
                HostFaultPlan("host-0", kill_after_units=1),
                HostFaultPlan("host-1", kill_after_units=1),
            )
        )
        with pytest.raises(DistributedCampaignError):
            run_campaign(
                grid, store=tmp_path / "store", hosts=2, chaos=chaos,
                lease_config=FAST_LEASES,
            )
        resumed = run_campaign(
            grid, store=tmp_path / "store", hosts=2, lease_config=FAST_LEASES
        )
        assert encode(resumed) == encode(serial)
        # Leases made the dead hosts' work disjoint and the store made it
        # durable: across crash + resume every unit ran exactly once
        # (plus the serial reference run).
        assert workers_mod.execution_count(count_file) == 2 * len(grid)
        assert_no_residue(tmp_path / "store")

    def test_host_counters_land_in_provenance(self, tmp_path):
        grid = quick_grid(2, repetitions=1)
        dist = run_campaign(
            grid, store=tmp_path / "store", hosts=2, lease_config=FAST_LEASES
        )
        for host_id, host in dist.hosts.items():
            assert host["host"] == host_id
            assert set(host) >= {"executed", "merged", "claims", "stolen",
                                 "fenced", "heartbeats", "wall_s"}

    def test_hosts_validation(self, tmp_path):
        grid = quick_grid(1, repetitions=1)
        with pytest.raises(ValueError):
            run_campaign(grid, hosts=2)  # no store
        with pytest.raises(ValueError):
            run_campaign(grid, hosts=2, store=tmp_path / "s", workers=2)
        with pytest.raises(ValueError):
            run_campaign(grid, hosts=2, store=tmp_path / "s", use_cache=False)
        with pytest.raises(ValueError):
            run_campaign(grid, hosts=0, store=tmp_path / "s")
        with pytest.raises(ValueError):  # pool-level chaos needs the pool
            run_campaign(
                grid, hosts=2, store=tmp_path / "s",
                chaos=ChaosConfig(kill_prob=0.5),
            )
        with pytest.raises(ValueError):  # lease tuning without hosts
            run_campaign(grid, store=tmp_path / "s", lease_config=FAST_LEASES)


class TestSameKeyHammer:
    def test_concurrent_same_key_puts_never_tear(self, tmp_path):
        """Racing publishers of one key are invisible to a validating reader."""
        store_root = str(tmp_path / "store")
        store = ResultStore(store_root)
        from repro.results import result_key

        key = result_key({"kind": "hammer"}, 0, "fp")
        ctx = multiprocessing.get_context("fork")
        writers = 3
        barrier = ctx.Barrier(writers + 1)
        procs = [
            ctx.Process(
                target=workers_mod.hammer_put, args=(store_root, key, 40, barrier)
            )
            for _ in range(writers)
        ]
        for proc in procs:
            proc.start()
        barrier.wait()
        observed = 0
        deadline = time.monotonic() + 30.0
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            entry = store.get(key)
            if entry is not None:
                # get() validates schema + key + metric types: a torn or
                # mixed entry would come back None here.
                assert entry == {"metric": 1.5, "seed": 0.0}
                observed += 1
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert observed > 0
        assert store.get(key) == {"metric": 1.5, "seed": 0.0}


class TestTmpSweeps:
    def test_store_sweeps_stale_tmp_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("ab" + "0" * 62, {"metric": 1.0})
        stale = root / "objects" / "ab" / "entry.json.tmp12345"
        fresh = root / "objects" / "ab" / "entry.json.tmp67890"
        stale.write_text("torn")
        fresh.write_text("in-flight")
        old = time.time() - 7200.0
        os.utime(stale, (old, old))
        reopened = ResultStore(root)
        assert reopened.swept_tmp == 1
        assert not stale.exists()
        assert fresh.exists()  # young tmp may belong to a live writer
        assert reopened.get("ab" + "0" * 62) is not None


class TestProgressEta:
    def test_eta_appears_once_a_duration_sample_exists(self):
        snapshots = []
        run_campaign(quick_grid(2, repetitions=2), progress=snapshots.append)
        assert [s["done"] for s in snapshots] == [1, 2, 3, 4]
        # First completion yields a mean duration -> an ETA for the rest.
        assert all(s["eta_s"] is not None and s["eta_s"] >= 0.0
                   for s in snapshots[:-1])
        assert snapshots[-1]["eta_s"] is None  # nothing remaining


class TestCampaignd:
    def test_campaignd_worker_drains_then_merges(self, tmp_path):
        """Two sequential campaignd runs: the second is pure merge."""
        repo = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        base = [
            sys.executable, "-m", "repro.campaignd",
            "--store", str(tmp_path / "store"),
            "--scenarios", "iid-downlink-zoom",
            "--duration", str(CHAOS_DURATION_S),
            "--repetitions", "1",
        ]
        first = subprocess.run(
            base + ["--host-id", "w1", "--json", str(tmp_path / "w1.json")],
            cwd=str(repo), env=env, capture_output=True, text=True, timeout=300,
        )
        assert first.returncode == 0, first.stderr
        report = json.loads((tmp_path / "w1.json").read_text())
        assert report["host"]["executed"] == 1 and report["host"]["host"] == "w1"
        second = subprocess.run(
            base + ["--host-id", "w2", "--json", str(tmp_path / "w2.json")],
            cwd=str(repo), env=env, capture_output=True, text=True, timeout=300,
        )
        assert second.returncode == 0, second.stderr
        report2 = json.loads((tmp_path / "w2.json").read_text())
        assert report2["host"]["executed"] == 0 and report2["host"]["merged"] == 1
        assert report2["campaign"] == report["campaign"]


class TestRealScenarioMultiHostChaos:
    """Multi-host chaos equivalence on real simulations (CI chaos-smoke)."""

    NAMES = ("bursty-downlink-zoom", "iid-downlink-zoom")

    def test_host_kill_chaos_matches_serial_run(self, tmp_path):
        from repro.experiments.scenario import scenario_conditions

        conditions = scenario_conditions(
            self.NAMES, duration_s=CHAOS_DURATION_S, repetitions=1
        )
        serial = run_campaign(conditions, store=tmp_path / "ref")
        chaos = ChaosConfig(host_faults=(HostFaultPlan("host-0", kill_after_claims=1),))
        dist = run_campaign(
            conditions, store=tmp_path / "store", hosts=2, chaos=chaos,
            lease_config=LeaseConfig(
                min_ttl_s=1.0, ttl_multiplier=0.001,
                heartbeat_interval_s=0.2, poll_interval_s=0.1,
            ),
        )
        assert encode(dist) == encode(serial)
        assert dist.stats.completed == len(conditions) and dist.ok
        assert dist.stats.stolen >= 1
        assert dist.hosts is not None
        assert_no_residue(tmp_path / "store")
