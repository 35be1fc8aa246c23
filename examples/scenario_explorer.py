#!/usr/bin/env python3
"""Explore the netem scenario library (repro.netem.scenarios).

Modes:

* ``--list`` (default) prints the registry: every scenario's pack tags,
  VCA, workload and network condition.
* ``--run NAME [NAME ...]`` runs specific scenarios and prints their
  metrics (one line per repetition plus the mean).  ``--workload
  KIND[:param=val,...]`` overrides the cross-traffic axis of every run
  scenario (e.g. ``--workload tcp_bulk:flows=2,direction=down``,
  ``--workload streaming:app=netflix``, ``--workload none``), so any
  registered netem condition composes with any competitor ad hoc.
* ``--sweep [--tag TAG]`` runs a whole pack through the campaign process
  pool and prints the summary table (the ``scenario_sweep`` experiment).
* ``--score USE_CASE`` (with --run / --sweep) additionally scores every
  scenario under a barometer use-case formula
  (repro.barometer.formula): per-repetition and mean ``quality_index``
  lines for --run, a ``quality_index`` table column for --sweep.
* ``--cascade [NAME ...]`` runs the cascaded-SFU pack (scenarios tagged
  ``cascade``) through the campaign pool and prints the per-region table
  (the ``cascade_sweep`` experiment).
* ``--verify-targets`` scores the committed scenario targets
  (repro.calibrate.targets.SCENARIO_TARGETS) and exits non-zero if any
  margin is non-positive.
* ``--manifest FILE`` writes the registry's spec-hash manifest (no
  simulation) -- CI keys the result-store cache on this file.

``--store DIR`` makes --sweep / --verify-targets incremental via the
content-addressed result store: unchanged (scenario, seed, duration) cells
re-score from cache.  ``--no-cache`` re-executes everything but still
refreshes the store.

Resume: the store is the checkpoint.  A killed --sweep / --verify-targets
resumes by re-running the same command against the same ``--store``:
stored units merge as cache hits and only the rest are simulated.  An
edited scenario re-keys and re-simulates only itself; ``--no-cache``
refreshes entries and therefore does not resume.

Fault tolerance (--sweep / --verify-targets): ``--unit-timeout``,
``--max-retries`` and ``--quarantine`` tune the supervised pool's per-unit
wall-clock timeout, bounded-retry budget, and whether exhausted units are
quarantined into a failure report instead of aborting the campaign.

``--hosts N`` (requires ``--store``) fans the sweep out over N independent
host processes coordinating only through the store's lease directory --
the same lease/heartbeat/steal protocol `python -m repro.campaignd` workers
use across real machines.  Any host can be killed mid-run; the survivors
steal its leases and the sweep completes byte-identically.  With
``--progress`` a live per-host progress/ETA line (fed by lease state)
replaces the single-process progress view.

Run with:  python examples/scenario_explorer.py --list
           python examples/scenario_explorer.py --run lte-uplink-zoom --duration 30
           python examples/scenario_explorer.py --sweep --tag beyond-paper \\
               --duration 30 --workers auto --store .repro-results
           python examples/scenario_explorer.py --verify-targets --duration 10 \\
               --store .repro-results --json SCENARIO_MARGINS.json
"""

import argparse
import json
import sys


def _resolve_store(args):
    from repro.results import ResultStore

    return ResultStore(args.store) if args.store else None


def _resolve_policy(args):
    """A CampaignPolicy from the CLI flags, or None for the defaults."""
    from repro.core.campaign import CampaignPolicy

    overrides = {}
    if args.unit_timeout is not None:
        overrides["unit_timeout_s"] = args.unit_timeout
    if args.max_retries is not None:
        overrides["max_attempts"] = args.max_retries + 1
    if args.quarantine:
        overrides["on_exhausted"] = "quarantine"
    return CampaignPolicy(**overrides) if overrides else None


def _print_campaign(stats, failures, hosts=None) -> None:
    """One summary line of execution counters, plus any quarantined units."""
    if stats:
        print(
            "campaign: "
            f"{stats['completed']} run, {stats['cache_hits']} cached, "
            f"{stats['retries']} retries, "
            f"{stats['timeouts']} timeouts, {stats['crashes']} crashes, "
            f"{stats['quarantined']} quarantined"
            + (f", {stats['stolen']} leases stolen, {stats['fenced']} fenced"
               if stats.get("stolen") or stats.get("fenced") else "")
        )
    if hosts:
        for host_id in sorted(hosts):
            s = hosts[host_id]
            print(
                f"  host {host_id}: {s.get('executed', 0)} run, "
                f"{s.get('merged', 0)} merged, {s.get('claims', 0)} claims, "
                f"{s.get('stolen', 0)} stolen, {s.get('fenced', 0)} fenced, "
                f"{s.get('heartbeats', 0)} heartbeats"
            )
    if failures:
        for failure in failures.quarantined:
            print(
                f"  QUARANTINED {failure.condition} (rep {failure.repetition}, "
                f"seed {failure.seed}): {'/'.join(failure.kinds)} after "
                f"{failure.attempts} attempts -- {failure.last_error}"
            )


def parse_workload(text):
    """``KIND[:param=val,...]`` -> a ScenarioSpec workload component.

    Values parse as int, then float, then string; ``none`` (bare) clears the
    scenario's workload.  Validation happens in ``ScenarioSpec.__post_init__``
    when the override is applied.
    """
    kind, _, rest = text.partition(":")
    params = {}
    for pair in filter(None, rest.split(",")):
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"workload param {pair!r} is not param=val")
        for cast in (int, float):
            try:
                raw = cast(raw)
                break
            except ValueError:
                continue
        params[key.strip()] = raw
    return (kind.strip(), params)


def cmd_list(args) -> int:
    from repro.netem.scenarios import list_scenarios

    specs = list_scenarios(tag=args.tag)
    if not specs:
        print(f"no scenarios registered with tag {args.tag!r}")
        return 1
    print(f"{len(specs)} registered scenarios" + (f" (tag={args.tag})" if args.tag else "") + ":\n")
    for spec in specs:
        condition = spec.profile[0]
        extras = [kind for kind, present in (
            ("loss:" + (spec.loss[0] if spec.loss else ""), spec.loss),
            ("jitter", spec.jitter),
            ("aqm:" + (spec.aqm[0] if spec.aqm else ""), spec.aqm),
        ) if present]
        if spec.cascade is not None:
            kind, params = spec.cascade
            extras.append(f"cascade:{kind}x{params.get('regions', 2)}")
        if spec.workload is not None:
            extras.append(f"vs:{spec.workload[0]}")
        workload = f"{spec.participants}p {spec.vca}"
        print(f"  {spec.name:28s} [{', '.join(spec.tags)}] {workload:12s} "
              f"{condition}/{spec.direction}" + (f" + {', '.join(extras)}" if extras else ""))
        print(f"      {spec.description}")
    return 0


def cmd_run(args) -> int:
    import dataclasses

    from repro.netem.scenarios import get_scenario, run_scenario

    formula = None
    if args.score:
        from repro.barometer.formula import get_use_case

        formula = get_use_case(args.score)
    workload = parse_workload(args.workload) if args.workload else None
    payload = {}
    for name in args.run:
        spec = get_scenario(name)
        if workload is not None:
            spec = dataclasses.replace(spec, workload=workload)
        print(f"== {spec.name}: {spec.description}")
        per_rep = []
        for repetition in range(args.repetitions):
            run = run_scenario(spec, seed=args.seed + repetition, duration_s=args.duration)
            metrics = run.metrics()
            if formula is not None:
                metrics = dict(metrics)
                metrics["quality_index"] = formula.quality_index(metrics)
            per_rep.append(metrics)
            line = ", ".join(f"{key}={value:.4g}" for key, value in sorted(metrics.items()))
            print(f"   rep {repetition} (seed {args.seed + repetition}): {line}")
        if len(per_rep) > 1:
            means = {key: sum(rep[key] for rep in per_rep) / len(per_rep) for key in per_rep[0]}
            if formula is not None:
                # Score the aggregate, matching the sweep/verify convention.
                means["quality_index"] = formula.quality_index(means)
            line = ", ".join(f"{key}={value:.4g}" for key, value in sorted(means.items()))
            print(f"   mean over {len(per_rep)} reps: {line}")
        payload[name] = per_rep
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments.scenario import run_scenario_sweep

    workers = args.workers
    if isinstance(workers, str) and workers != "auto":
        workers = int(workers)
    store = _resolve_store(args)
    table = run_scenario_sweep(
        tag=args.tag,
        score_use_case=args.score,
        duration_s=args.duration,
        repetitions=args.repetitions,
        seed=args.seed,
        workers=workers,
        store=store,
        use_cache=not args.no_cache,
        policy=_resolve_policy(args),
        progress=args.progress or None,
        hosts=args.hosts,
    )
    print(table.to_text())
    _print_campaign(
        getattr(table, "campaign_stats", None),
        getattr(table, "failure_report", None),
        getattr(table, "campaign_hosts", None),
    )
    if store is not None:
        print(f"store: {store.hits} hits, {store.misses} misses, {store.puts} writes "
              f"({store.root})")
    if args.json:
        payload = {
            "columns": table.columns,
            "rows": table.rows,
            "campaign": getattr(table, "campaign_stats", None),
        }
        failures = getattr(table, "failure_report", None)
        if failures:
            payload["quarantined"] = failures.as_dict()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if getattr(table, "failure_report", None):
        print("PARTIAL: some units were quarantined (see above)")
        return 1
    return 0


def cmd_cascade(args) -> int:
    from repro.experiments.cascade import run_cascade_sweep

    workers = args.workers
    if isinstance(workers, str) and workers != "auto":
        workers = int(workers)
    store = _resolve_store(args)
    names = args.cascade if args.cascade and args.cascade != ["all"] else None
    table = run_cascade_sweep(
        scenarios=names,
        duration_s=args.duration,
        repetitions=args.repetitions,
        seed=args.seed,
        workers=workers,
        store=store,
        use_cache=not args.no_cache,
        policy=_resolve_policy(args),
        progress=args.progress or None,
        hosts=args.hosts,
    )
    print(table.to_text())
    _print_campaign(
        getattr(table, "campaign_stats", None),
        getattr(table, "failure_report", None),
        getattr(table, "campaign_hosts", None),
    )
    if store is not None:
        print(f"store: {store.hits} hits, {store.misses} misses, {store.puts} writes "
              f"({store.root})")
    if args.json:
        payload = {
            "columns": table.columns,
            "rows": table.rows,
            "campaign": getattr(table, "campaign_stats", None),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if getattr(table, "failure_report", None):
        print("PARTIAL: some units were quarantined (see above)")
        return 1
    return 0


def cmd_verify_targets(args) -> int:
    from repro.calibrate.verify import verify_scenarios

    workers = args.workers
    if isinstance(workers, str) and workers != "auto":
        workers = int(workers)
    store = _resolve_store(args)
    report = verify_scenarios(
        duration_s=args.duration,
        repetitions=args.repetitions,
        seed=args.seed,
        workers=workers,
        store=store,
        use_cache=not args.no_cache,
        output_path=args.json,
        policy=_resolve_policy(args),
        progress=args.progress or None,
        hosts=args.hosts,
    )
    print("committed scenario targets "
          f"(duration={args.duration if args.duration is not None else 'spec default'}, "
          f"{args.repetitions} seeds):")
    for row in report["results"]:
        status = "ok  " if row["satisfied"] else "FAIL"
        print(f"  [{status}] {row['name']:34s} value={row['value']:8.4f} "
              f"{row['op']} {row['threshold']:<8g} margin={row['margin']:+.4f}")
    campaign = report.get("campaign", {})
    stats = campaign.get("stats")
    quarantined = campaign.get("quarantined", {}).get("quarantined", [])
    if stats:
        print(
            "campaign: "
            f"{stats['completed']} run, {stats['cache_hits']} cached, "
            f"{stats['retries']} retries, "
            f"{stats['timeouts']} timeouts, {stats['crashes']} crashes, "
            f"{stats['quarantined']} quarantined"
            + (f", {stats['stolen']} leases stolen, {stats['fenced']} fenced"
               if stats.get("stolen") or stats.get("fenced") else "")
        )
    for host_id in sorted(campaign.get("hosts") or {}):
        s = campaign["hosts"][host_id]
        print(
            f"  host {host_id}: {s.get('executed', 0)} run, {s.get('merged', 0)} merged, "
            f"{s.get('claims', 0)} claims, {s.get('stolen', 0)} stolen, "
            f"{s.get('fenced', 0)} fenced, {s.get('heartbeats', 0)} heartbeats"
        )
    for failure in quarantined:
        print(
            f"  QUARANTINED {failure['condition']} (rep {failure['repetition']}, "
            f"seed {failure['seed']}): {'/'.join(failure['kinds'])} after "
            f"{failure['attempts']} attempts -- {failure['last_error']}"
        )
    if store is not None:
        print(f"store: {store.hits} hits, {store.misses} misses, {store.puts} writes "
              f"({store.root})")
    if args.json:
        print(f"wrote {args.json}")
    if not report["satisfied"]:
        print("FAILED: at least one scenario target margin is non-positive")
        return 1
    print("all scenario targets satisfied")
    return 0


def cmd_manifest(args) -> int:
    from repro.experiments.scenario import registry_manifest

    manifest = registry_manifest(tag=args.tag)
    with open(args.manifest, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.manifest}: {len(manifest['scenarios'])} scenarios, "
          f"fingerprint {manifest['fingerprint']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list the registry (default)")
    mode.add_argument("--run", nargs="+", metavar="NAME", help="run specific scenarios")
    mode.add_argument("--sweep", action="store_true", help="sweep a pack via the campaign pool")
    mode.add_argument("--cascade", nargs="*", metavar="NAME",
                      help="sweep the cascaded-SFU pack (or specific cascade scenarios; "
                           "no names / 'all' = every scenario tagged 'cascade')")
    mode.add_argument("--verify-targets", action="store_true",
                      help="score the committed scenario targets (exit 1 on violation)")
    mode.add_argument("--manifest", metavar="FILE",
                      help="write the registry spec-hash manifest (no simulation)")
    parser.add_argument("--tag", default=None, help="filter by pack tag (paper-baseline / beyond-paper)")
    parser.add_argument("--workload", default=None, metavar="KIND[:param=val,...]",
                        help="override the cross-traffic workload of --run scenarios "
                             "(vca / tcp_bulk / streaming / none; e.g. "
                             "tcp_bulk:flows=2,direction=down)")
    parser.add_argument("--score", default=None, metavar="USE_CASE",
                        help="score --run / --sweep output under a barometer use-case "
                             "formula (adds quality_index; see repro.barometer)")
    parser.add_argument("--duration", type=float, default=None, help="override call duration in seconds")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="repetitions per scenario (default: 1; 3 for --verify-targets)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (repetition i uses seed+i)")
    parser.add_argument("--workers", default=None, help="pool size for --sweep: int, 'auto', or omit")
    parser.add_argument("--hosts", type=int, default=None, metavar="N",
                        help="fan --sweep / --verify-targets out over N lease-coordinated "
                             "host processes sharing --store (mutually exclusive with --workers)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store directory (incremental re-runs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read the store (re-run everything; fresh results still stored)")
    parser.add_argument("--unit-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-unit wall-clock timeout for pooled sweeps "
                             "(default: 4x the unit's simulated duration)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retries per unit after a crash/timeout/error (default: 2)")
    parser.add_argument("--quarantine", action="store_true",
                        help="quarantine units that exhaust their retries instead of aborting "
                             "(campaign completes with partial results; exit code 1)")
    parser.add_argument("--progress", action="store_true",
                        help="print a progress/ETA line while the sweep runs")
    parser.add_argument("--json", default=None, help="also write results to this JSON file")
    args = parser.parse_args()

    if args.hosts is not None:
        if not args.store:
            parser.error("--hosts requires --store DIR (the hosts' shared coordination substrate)")
        if args.workers is not None:
            parser.error("--hosts and --workers are mutually exclusive")
        if args.no_cache:
            parser.error("--hosts requires the store cache (drop --no-cache)")
    if args.workload is not None and not args.run:
        parser.error("--workload applies to --run scenarios")
    if args.score is not None:
        if not (args.run or args.sweep):
            parser.error("--score applies to --run / --sweep output")
        from repro.barometer.formula import list_use_cases

        if args.score not in list_use_cases():
            parser.error(f"unknown use case {args.score!r}; "
                         f"known: {', '.join(list_use_cases())}")

    if args.repetitions is None:
        # --verify-targets defaults to the benchmarks' three-seed aggregation.
        args.repetitions = 3 if args.verify_targets else 1

    if args.run:
        return cmd_run(args)
    if args.sweep:
        return cmd_sweep(args)
    if args.cascade is not None:
        return cmd_cascade(args)
    if args.verify_targets:
        return cmd_verify_targets(args)
    if args.manifest:
        return cmd_manifest(args)
    return cmd_list(args)


if __name__ == "__main__":
    sys.exit(main())
