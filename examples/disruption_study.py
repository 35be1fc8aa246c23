#!/usr/bin/env python3
"""Disruption study: how quickly does each VCA recover from an outage?

Reproduces the core of Section 4 for one severity level: a call is
established, the uplink collapses to 0.25 Mbps for 30 seconds, and the
time-to-recovery metric is computed per application.  The six calls run
on one worker process per core (``workers="auto"``); the numbers are the
same as a serial run's.

Run with:  python examples/disruption_study.py
"""

from repro.core.results import format_table
from repro.experiments.disruption import run_ttr_sweep


def main() -> None:
    result = run_ttr_sweep(
        direction="up",
        levels_mbps=(0.25,),
        duration_s=210.0,
        repetitions=2,
        workers="auto",
    )
    rows = [(vca, 0.25, round(series.y[0], 1)) for vca, series in result.items()]
    print(format_table(
        "Time to recovery after a 30 s uplink drop to 0.25 Mbps",
        ("vca", "drop_to_mbps", "ttr_seconds"),
        rows,
    ))
    print()
    print("All three applications need tens of seconds to return to their")
    print("pre-disruption sending rate -- the Section 4 takeaway that short")
    print("outages have long tails for interactive video.")


if __name__ == "__main__":
    main()
