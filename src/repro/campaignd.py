"""``python -m repro.campaignd``: one distributed-campaign worker host.

Launch the same command on any number of machines (or terminals) sharing
one result-store directory and they cooperatively drain one scenario
campaign -- no coordinator, no network protocol, no message queue.  All
coordination is crash-safe filesystem state under the shared store
(:mod:`repro.core.scheduler`): per-unit lease files claimed by
hard-linking a fully written record to the lease name (the link fails
while the lease is held), heartbeat-refreshed deadlines, stale-lease
stealing with a fencing counter, and completion published through the
content-addressed store itself.

Every worker must be given the *same grid* (same scenario selection,
duration, repetitions and seed) -- the grid is expanded identically on
each host from the scenario registry, and the store keys embed the
resolved specs plus the code-version fingerprint, so workers running
different code or different grids simply work on disjoint keys instead of
corrupting each other.

A worker exits 0 once every unit of the campaign is complete (whether this
host executed it, another host did, or it was already cached), and 1 when
any unit ended quarantined.  Kill a worker (``kill -9``) at any moment: its
leases expire and the surviving workers steal the work; re-starting it (or
re-running the whole campaign later) resumes from the store for free.

Examples::

    # Two cooperating workers on one machine (run in two terminals):
    python -m repro.campaignd --store /shared/store --tag paper-baseline \\
        --duration 10 --repetitions 3 --progress
    python -m repro.campaignd --store /shared/store --tag paper-baseline \\
        --duration 10 --repetitions 3 --progress

    # The committed verification targets, short leases for quick stealing:
    python -m repro.campaignd --store /shared/store --targets \\
        --duration 10 --min-ttl 10 --json host-report.json
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaignd",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="shared result-store directory (the coordination substrate)")
    grid = parser.add_mutually_exclusive_group()
    grid.add_argument("--scenarios", nargs="+", metavar="NAME",
                      help="run these registered scenarios")
    grid.add_argument("--tag", default=None,
                      help="run a whole scenario pack (paper-baseline / beyond-paper)")
    grid.add_argument("--targets", action="store_true",
                      help="run every scenario the committed verification targets reference")
    parser.add_argument("--duration", type=float, default=None,
                        help="override call duration in seconds (must match on every host)")
    parser.add_argument("--repetitions", type=int, default=2,
                        help="repetitions per scenario (must match on every host; default 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed, repetition i uses seed+i (must match on every host)")
    parser.add_argument("--host-id", default=None,
                        help="stable identity of this worker in leases and provenance "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--min-ttl", type=float, default=None, metavar="SECONDS",
                        help="minimum lease TTL before a silent host is presumed dead")
    parser.add_argument("--ttl-multiplier", type=float, default=None, metavar="X",
                        help="lease TTL as a fraction of the unit's wall-clock budget")
    parser.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                        help="lease refresh interval (default: min-ttl / 5, capped at 5s)")
    parser.add_argument("--poll", type=float, default=None, metavar="SECONDS",
                        help="idle wait between passes when all remaining units are leased out")
    parser.add_argument("--steal-grace", type=float, default=None, metavar="SECONDS",
                        help="extra slack beyond lease expiry before stealing (clock skew)")
    parser.add_argument("--no-steal", action="store_true",
                        help="never reclaim expired leases (observe-only worker)")
    parser.add_argument("--unit-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-unit wall-clock budget override (feeds the lease TTL)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="local retries per unit before it is quarantined for every host")
    parser.add_argument("--progress", action="store_true",
                        help="print a live progress line for this host")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write this host's execution counters as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    # Imports deferred past argparse so ``--help`` stays instant.
    from repro.calibrate.verify import target_scenario_names
    from repro.core.campaign import CampaignPolicy, _campaign_id, expand_units
    from repro.core.scheduler import LeaseConfig, run_host
    from repro.experiments.scenario import scenario_conditions
    from repro.netem.scenarios import get_scenario, list_scenarios
    from repro.results.fingerprint import code_fingerprint
    from repro.results.store import ResultStore

    if args.targets:
        names = target_scenario_names()
    elif args.scenarios:
        names = [get_scenario(name).name for name in args.scenarios]
    else:
        names = [spec.name for spec in list_scenarios(tag=args.tag)]
    if not names:
        print("campaignd: no scenarios selected", file=sys.stderr)
        return 2

    policy_overrides = {"on_exhausted": "quarantine"}
    if args.unit_timeout is not None:
        policy_overrides["unit_timeout_s"] = args.unit_timeout
    if args.max_retries is not None:
        policy_overrides["max_attempts"] = args.max_retries + 1
    policy = CampaignPolicy(**policy_overrides)

    lease_overrides = {}
    if args.min_ttl is not None:
        lease_overrides["min_ttl_s"] = args.min_ttl
    if args.ttl_multiplier is not None:
        lease_overrides["ttl_multiplier"] = args.ttl_multiplier
    if args.heartbeat is not None:
        lease_overrides["heartbeat_interval_s"] = args.heartbeat
    if args.poll is not None:
        lease_overrides["poll_interval_s"] = args.poll
    if args.steal_grace is not None:
        lease_overrides["steal_grace_s"] = args.steal_grace
    if args.no_steal:
        lease_overrides["steal"] = False
    lease_config = LeaseConfig(**lease_overrides)

    host_id = args.host_id or f"{socket.gethostname()}-{os.getpid()}"
    conditions = scenario_conditions(
        names, duration_s=args.duration, repetitions=args.repetitions, seed=args.seed
    )
    units, descriptors = expand_units(conditions, policy, code_fingerprint())
    campaign_id = _campaign_id(descriptors)
    store = ResultStore(args.store)

    rendered = False

    def render(snapshot) -> None:
        nonlocal rendered
        stats = snapshot["stats"]
        sys.stderr.write(
            f"\r[{host_id}] {snapshot['done']}/{snapshot['total']} units | "
            f"{stats.executed} run, {stats.merged} merged, {stats.stolen} stolen, "
            f"{stats.fenced} fenced, {stats.quarantined} quarantined"
        )
        sys.stderr.flush()
        rendered = True

    print(
        f"campaignd {host_id}: campaign {campaign_id[:12]} -- {len(units)} units "
        f"({len(names)} scenarios x {args.repetitions} reps), store {store.root}"
    )
    try:
        stats, failures = run_host(
            units,
            store,
            host_id,
            policy=policy,
            lease_config=lease_config,
            progress=render if args.progress else None,
        )
    except KeyboardInterrupt:
        if rendered:
            sys.stderr.write("\n")
        print(f"campaignd {host_id}: interrupted; held leases expire in "
              f">= {lease_config.min_ttl_s:g}s and other hosts take over")
        return 130
    if rendered:
        sys.stderr.write("\n")

    print(
        f"campaignd {host_id}: done -- {stats.executed} run, {stats.merged} merged, "
        f"{stats.claims} claims, {stats.stolen} stolen, {stats.fenced} fenced, "
        f"{stats.quarantined} quarantined, {stats.heartbeats} heartbeats, "
        f"{stats.wall_s:.1f}s wall"
    )
    for failure in failures.quarantined:
        print(
            f"  QUARANTINED {failure.condition} (rep {failure.repetition}, "
            f"seed {failure.seed}): {'/'.join(failure.kinds)} after "
            f"{failure.attempts} attempts -- {failure.last_error}"
        )
    if args.json:
        payload = {
            "campaign": campaign_id,
            "host": stats.as_dict(),
            "quarantined": failures.as_dict()["quarantined"],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if failures.quarantined else 0


if __name__ == "__main__":
    sys.exit(main())
