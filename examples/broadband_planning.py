#!/usr/bin/env python3
"""How much speed does a video call need?  The broadband-policy question.

The question that motivated the paper ("what level of connectivity do
households need for common video conferencing?") is answered here by sweeping
uplink capacities for all three VCAs and reporting utilization and freezes --
a compressed version of Section 3 that a policy analyst could run and extend
(e.g. to model a multi-user household by adding more calls).

The sweep is expressed as a campaign grid, so it can be fanned out over
worker processes with ``--workers N`` (the merged numbers are identical to a
serial run -- each grid cell is an independent seeded simulation).

Run with:  python examples/broadband_planning.py [--workers N]
"""

import argparse

from repro.core.campaign import Condition, run_campaign
from repro.core.results import format_table
from repro.netem.scenarios import ScenarioSpec, run_scenario

CAPACITIES_MBPS = (0.5, 1.0, 2.0, 3.0)
VCAS = ("meet", "teams", "zoom")


def measure_uplink_requirement(
    vca: str, capacity_mbps: float, duration_s: float = 90.0, seed: int = 7
) -> dict[str, float]:
    """One grid cell: median uplink bitrate and freeze ratio at one capacity."""
    spec = ScenarioSpec(
        name=f"planning/{vca}-{capacity_mbps}up",
        description="two-party call behind a shaped uplink",
        vca=vca,
        direction="up",
        profile=("constant", {"mbps": capacity_mbps}),
        duration_s=duration_s,
    )
    metrics = run_scenario(spec, seed=seed).metrics()
    return {"median_up_mbps": metrics["median_up_mbps"], "freeze_ratio": metrics["freeze_ratio"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the campaign grid (default: serial)")
    args = parser.parse_args()

    grid = [(vca, capacity) for vca in VCAS for capacity in CAPACITIES_MBPS]
    conditions = [
        Condition(
            name=f"{vca}@{capacity}up",
            fn=measure_uplink_requirement,
            params={"vca": vca, "capacity_mbps": capacity},
            repetitions=1,
            seed=7,
        )
        for vca, capacity in grid
    ]
    results = run_campaign(conditions, workers=args.workers)

    rows = []
    for (vca, capacity), result in zip(grid, results):
        up = result.summary("median_up_mbps").median
        freeze = result.summary("freeze_ratio").mean
        rows.append((vca, capacity, round(up, 2), f"{up / capacity:.0%}", round(freeze, 3)))
    print(format_table(
        "Uplink requirement sweep (2-party call, shaped uplink)",
        ("vca", "uplink_mbps", "median_up_mbps", "utilization", "freeze_ratio"),
        rows,
    ))
    print()
    print("Reading: all three applications keep working below 1 Mbps of uplink,")
    print("but they use most of what they are given -- two simultaneous calls on a")
    print("3 Mbps uplink (the FCC broadband floor) leave little headroom, which is")
    print("the paper's policy takeaway.")


if __name__ == "__main__":
    main()
