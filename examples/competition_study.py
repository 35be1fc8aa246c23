#!/usr/bin/env python3
"""Competition study: a Zoom call against a large file download.

Reproduces the Section 5.2 scenario a home user actually experiences: a video
call is in progress when someone starts a bulk TCP download behind the same
bottleneck.  The script reports both applications' throughput and the call's
share of the link.

Run with:  python examples/competition_study.py
"""

from repro.experiments.competition import workload_scenario_spec
from repro.netem.scenarios import WORKLOAD_CLIENT, run_scenario


def main() -> None:
    capacity_mbps = 2.0
    for vca in ("zoom", "teams"):
        spec = workload_scenario_spec(
            vca, "tcp_bulk", {"flows": 1, "direction": "down"}, capacity_mbps,
            competitor_duration_s=120.0,
        )
        run = run_scenario(spec, seed=3, collect_stats=False)
        window = run.workload_window()
        vca_down = run.capture.aggregate("C1", "rx").mean_mbps(*window)
        tcp_down = run.capture.aggregate(WORKLOAD_CLIENT, "rx").mean_mbps(*window)
        print(f"{vca:6s} vs TCP download on a {capacity_mbps} Mbps downlink:")
        print(f"   {vca:6s}: {vca_down:.2f} Mbps   TCP: {tcp_down:.2f} Mbps   "
              f"call share: {run.share('down'):.0%}")
    print()
    print("Zoom holds on to its bandwidth while Teams yields most of the link to")
    print("the download -- the fairness asymmetry Figures 12 and 13 report.")


if __name__ == "__main__":
    main()
