"""A lease claim is visible to peers only with its whole record.

A peer that read a claim before its record was written took it as torn,
hence stale, and stole it from a live owner; both hosts then executed the
unit.  Seen as ``test_all_hosts_dead_raises_then_resumes_exactly_once``
counting 9 executions instead of 8 when run beside a busy-loop process.
"""

from __future__ import annotations

from repro.core.scheduler import Lease, LeaseManager

KEY = "ab" + "1" * 62


def test_peer_never_reads_a_claim_before_its_record(tmp_path, monkeypatch):
    owner = LeaseManager(tmp_path, "host-a")
    peer = LeaseManager(tmp_path, "host-b")
    seen = []
    record = Lease.record

    def record_and_peek(self, now):
        # The claim is being rendered: a peer looking now must find no lease
        # at all, never an empty or partial one it would take as stale.
        seen.append(peer.read(KEY))
        return record(self, now)

    monkeypatch.setattr(Lease, "record", record_and_peek)
    lease = owner.try_claim(KEY, "0:q0#r0", ttl_s=60.0)
    monkeypatch.undo()
    assert seen == [None]
    assert lease is not None
    on_disk = peer.read(KEY)
    assert lease.matches(on_disk) and not peer.is_stale(on_disk)


def test_claims_leave_no_temp_files(tmp_path):
    owner = LeaseManager(tmp_path, "host-a")
    peer = LeaseManager(tmp_path, "host-b")
    assert owner.try_claim(KEY, "0:q0#r0", ttl_s=60.0) is not None
    assert peer.try_claim(KEY, "0:q0#r0", ttl_s=60.0) is None  # held: loses
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [f"{KEY}.json"]
