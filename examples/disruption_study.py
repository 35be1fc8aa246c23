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
    fastest = min(rows, key=lambda row: row[2])
    slowest = max(rows, key=lambda row: row[2])
    print()
    print(
        f"Once the link is restored, {fastest[0]} is back at 95% of its pre-disruption "
        f"sending rate after {fastest[2]} s and {slowest[0]} after {slowest[2]} s."
    )


if __name__ == "__main__":
    main()
