#!/usr/bin/env python3
"""Joint calibration of the competition model (repro.calibrate).

Two modes:

* ``--verify`` (default) evaluates the *committed* constants against every
  recorded figure target (fig8 uplink pairs, fig10 Teams-vs-Zoom downlink,
  fig12 TCP pairs, fig14 Zoom-vs-Netflix) and writes ``CALIBRATION.json``
  with each target's value and margin.  This is what CI's competition-smoke job runs.

* ``--sweep`` runs the candidate grid as one campaign, scores every
  candidate against all targets at once, and writes the winning constants
  plus margins to ``CALIBRATION.json``.  Candidates that fix one
  figure while breaking another are rejected by construction -- the failure
  mode that kept the fig10 bug alive (raising Zoom's loss threshold alone
  flips fig14).

Both modes run the Section 5 figure units (one per candidate, cell and
repetition) through the campaign runner, so ``--workers`` applies to both.

Run with:  python examples/calibrate_competition.py --verify --workers 2
           python examples/calibrate_competition.py --sweep --workers auto \\
               --repetitions 2 --duration 60
"""

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true", help="score the committed constants (default)")
    mode.add_argument("--sweep", action="store_true", help="sweep the candidate grid")
    parser.add_argument("--duration", type=float, default=60.0, help="competitor window in seconds (default 60)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (repetition i uses seed+i)")
    parser.add_argument("--repetitions", type=int, default=2, help="repetitions per candidate (sweep mode)")
    parser.add_argument(
        "--workers",
        default=None,
        help="process-pool size for either mode: an integer, 'auto', or omit for serial",
    )
    parser.add_argument("--output", default="CALIBRATION.json", help="report path (default CALIBRATION.json)")
    args = parser.parse_args()

    from repro.calibrate.sweep import run_calibration_sweep, verify_committed

    workers = args.workers
    if isinstance(workers, str) and workers != "auto":
        workers = int(workers)

    if args.sweep:
        report = run_calibration_sweep(
            repetitions=args.repetitions,
            competitor_duration_s=args.duration,
            seed=args.seed,
            workers=workers,
            output_path=args.output,
        )
        winner = report["winner"]
        print(f"swept {report['settings']['grid_size']} candidates "
              f"x {report['settings']['repetitions']} repetitions")
        print(f"winner overrides: {winner['overrides']}")
        print(f"winner worst-case margin: {winner['worst_margin']:.3f}")
    else:
        report = verify_committed(
            competitor_duration_s=args.duration,
            seed=args.seed,
            output_path=args.output,
            workers=workers,
        )
        print("committed constants, per-target margins (positive = satisfied):")
        for name, margin in report["margins"].items():
            print(f"   {name:38s} {margin:+.3f}")

    print(f"report written to {args.output}")
    if not report["satisfied"]:
        print("FAILED: at least one figure target is violated", file=sys.stderr)
        return 1
    print("all figure targets satisfied jointly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
