#!/usr/bin/env python3
"""Population-scale VCA quality barometer (repro.barometer).

Samples a household population from declarative ISP-tier distributions,
runs every (household, VCA, use case) cell through the campaign service,
scores each cell with the IQB-style use-case formulas, and renders the
population CDF of the quality index plus the per-ISP-tier scorecard
("can this tier sustain a five-party call").

Modes:

* ``--tiers`` (default) prints the shipped ISP-tier distribution and the
  use-case formulas (weights + good/bad thresholds).
* ``--sample N`` samples N households and prints the grid -- no simulation;
  the same seed reproduces the same grid byte-identically anywhere.
* ``--sweep`` runs the population grid (``--households``, ``--vcas``,
  ``--use-cases``, ``--duration``) through the campaign pool and prints
  the CDF + scorecard (the ``barometer_sweep`` experiment).
* ``--verify`` scores only the committed barometer targets
  (quality_index:* entries of SCENARIO_TARGETS) and exits non-zero if a
  margin is non-positive.

``--store DIR`` makes --sweep / --verify incremental via the
content-addressed result store: a warm store re-scores the whole
population without a single simulation, so editing a formula or a
scorecard threshold replays yesterday's campaign for free.  The campaign
fault-tolerance controls (--unit-timeout/--max-retries/--quarantine), the
multi-host fan-out (--hosts N, requires --store) and resume (re-run the
same command against the same --store) work exactly as in
examples/scenario_explorer.py.

Run with:  python examples/barometer.py --tiers
           python examples/barometer.py --sample 20 --seed 7
           python examples/barometer.py --sweep --households 200 \\
               --duration 10 --store .repro-results --progress
           python examples/barometer.py --verify --duration 10 \\
               --store .repro-results --json BAROMETER_MARGINS.json
"""

import argparse
import json
import sys


def _resolve_store(args):
    from repro.results import ResultStore

    return ResultStore(args.store) if args.store else None


def _resolve_policy(args):
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


def cmd_tiers(args) -> int:
    from repro.barometer.formula import USE_CASES
    from repro.barometer.population import DEFAULT_TIERS

    total = sum(tier.share for tier in DEFAULT_TIERS)
    print(f"{len(DEFAULT_TIERS)} ISP tiers (population shares):\n")
    for tier in DEFAULT_TIERS:
        kind, params = tier.profile
        extras = []
        if tier.loss is not None:
            extras.append(f"loss p={tier.loss.get('prob', 1.0):g}")
        if tier.jitter is not None:
            extras.append(f"jitter p={tier.jitter.get('prob', 1.0):g}")
        print(f"  {tier.name:16s} {tier.share / total:5.1%}  {kind}/{tier.direction}"
              + (f" + {', '.join(extras)}" if extras else ""))
        print(f"      {tier.description}")
    print(f"\n{len(USE_CASES)} use-case formulas:\n")
    for name in sorted(USE_CASES):
        formula = USE_CASES[name]
        print(f"  {name} ({formula.participants}p {formula.view_mode}): "
              f"{formula.description}")
        for req in formula.requirements:
            direction = "lower" if req.lower_is_better else "higher"
            print(f"      w={req.weight:g} {req.metric:20s} good={req.good:g} "
                  f"bad={req.bad:g} ({direction} is better)")
    return 0


def cmd_sample(args) -> int:
    from repro.barometer.population import sample_households

    households = sample_households(args.sample, seed=args.seed)
    counts: dict[str, int] = {}
    for household in households:
        counts[household.tier] = counts.get(household.tier, 0) + 1
        loss = f" loss={household.loss[1]}" if household.loss else ""
        jitter = f" jitter={household.jitter[1]}" if household.jitter else ""
        workload = f" vs:{household.workload[0]}" if household.workload else ""
        kind, params = household.profile
        print(f"  {household.uid} {household.tier:16s} {kind}/{household.direction} "
              f"{params}{loss}{jitter}{workload}")
    print(f"\nsampled {len(households)} households (seed {args.seed}): "
          + ", ".join(f"{tier}={count}" for tier, count in sorted(counts.items())))
    if args.json:
        payload = [household.as_dict() for household in households]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args) -> int:
    from repro.barometer.campaign import run_barometer_sweep
    from repro.barometer.population import tier_names
    from repro.barometer.report import render_population_cdf, render_tier_scorecard

    workers = args.workers
    if isinstance(workers, str) and workers != "auto":
        workers = int(workers)
    store = _resolve_store(args)
    table = run_barometer_sweep(
        n_households=args.households,
        vcas=tuple(args.vcas),
        use_cases=tuple(args.use_cases) if args.use_cases else None,
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
    print(render_population_cdf(table))
    print()
    print(render_tier_scorecard(table, sustain_index=args.sustain,
                                tier_order=tier_names()))
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
            "households": [household.as_dict() for household in table.households],
            "campaign": getattr(table, "campaign_stats", None),
        }
        failures = getattr(table, "failure_report", None)
        if failures:
            payload["quarantined"] = failures.as_dict()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if getattr(table, "failure_report", None):
        print("PARTIAL: some cells were quarantined (see above)")
        return 1
    return 0


def cmd_verify(args) -> int:
    from repro.calibrate.targets import SCENARIO_TARGETS
    from repro.calibrate.verify import verify_scenarios

    targets = [
        target for target in SCENARIO_TARGETS
        if target.metric.startswith("quality_index:")
    ]
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
        targets=targets,
    )
    print(f"committed barometer targets "
          f"(duration={args.duration if args.duration is not None else 'spec default'}, "
          f"{args.repetitions} seeds):")
    for row in report["results"]:
        status = "ok  " if row["satisfied"] else "FAIL"
        print(f"  [{status}] {row['name']:38s} value={row['value']:8.4f} "
              f"{row['op']} {row['threshold']:<8g} margin={row['margin']:+.4f}")
    if store is not None:
        print(f"store: {store.hits} hits, {store.misses} misses, {store.puts} writes "
              f"({store.root})")
    if args.json:
        print(f"wrote {args.json}")
    if not report["satisfied"]:
        print("FAILED: at least one barometer target margin is non-positive")
        return 1
    print("all barometer targets satisfied")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--tiers", action="store_true",
                      help="print the ISP-tier distribution and use-case formulas (default)")
    mode.add_argument("--sample", type=int, metavar="N",
                      help="sample N households and print the grid (no simulation)")
    mode.add_argument("--sweep", action="store_true",
                      help="run the population grid via the campaign pool")
    mode.add_argument("--verify", action="store_true",
                      help="score the committed barometer targets (exit 1 on violation)")
    parser.add_argument("--households", type=int, default=200, metavar="N",
                        help="population size for --sweep (default: 200)")
    parser.add_argument("--vcas", nargs="+", default=["zoom", "meet"], metavar="VCA",
                        help="VCAs per household (default: zoom meet)")
    parser.add_argument("--use-cases", nargs="+", default=None, metavar="CASE",
                        help="use cases per (household, VCA) (default: all shipped)")
    parser.add_argument("--duration", type=float, default=None,
                        help="call duration per cell in seconds (default: 60)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="repetitions per cell (default: 1; 3 for --verify)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the household sample AND the simulations")
    parser.add_argument("--sustain", type=float, default=None, metavar="INDEX",
                        help="scorecard sustain threshold (default: 0.6)")
    parser.add_argument("--workers", default=None,
                        help="pool size for --sweep: int, 'auto', or omit")
    parser.add_argument("--hosts", type=int, default=None, metavar="N",
                        help="fan --sweep / --verify out over N lease-coordinated "
                             "host processes sharing --store")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store directory (incremental re-runs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read the store (fresh results still stored)")
    parser.add_argument("--unit-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-unit wall-clock timeout for pooled sweeps")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retries per unit after a crash/timeout/error (default: 2)")
    parser.add_argument("--quarantine", action="store_true",
                        help="quarantine units that exhaust their retries instead of aborting")
    parser.add_argument("--progress", action="store_true",
                        help="print a progress/ETA line while the sweep runs")
    parser.add_argument("--json", default=None, help="also write results to this JSON file")
    args = parser.parse_args()

    if args.hosts is not None:
        if not args.store:
            parser.error("--hosts requires --store DIR")
        if args.workers is not None:
            parser.error("--hosts and --workers are mutually exclusive")
        if args.no_cache:
            parser.error("--hosts requires the store cache (drop --no-cache)")
    if args.use_cases:
        from repro.barometer.formula import list_use_cases

        known = list_use_cases()
        for case in args.use_cases:
            if case not in known:
                parser.error(f"unknown use case {case!r}; known: {', '.join(known)}")
    if args.repetitions is None:
        args.repetitions = 3 if args.verify else 1
    if args.sustain is None:
        from repro.barometer.report import SUSTAIN_INDEX

        args.sustain = SUSTAIN_INDEX

    if args.sample is not None:
        return cmd_sample(args)
    if args.sweep:
        return cmd_sweep(args)
    if args.verify:
        return cmd_verify(args)
    return cmd_tiers(args)


if __name__ == "__main__":
    sys.exit(main())
