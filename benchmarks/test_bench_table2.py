"""Benchmark regenerating Table 2 (unconstrained utilization)."""

from conftest import BENCH_DURATION_S, BENCH_REPETITIONS

from repro.experiments.static import run_unconstrained_utilization


def test_bench_table2():
    table = run_unconstrained_utilization(
        duration_s=BENCH_DURATION_S,
        repetitions=BENCH_REPETITIONS,
    )
    print("\n" + table.to_text())
    rates = {row[0]: (row[1], row[2]) for row in table.rows}
    # Shape checks from Table 2: Teams is the heaviest, Zoom's downstream
    # exceeds its upstream (relay-side FEC).
    assert rates["teams"][0] > rates["meet"][0]
    assert rates["teams"][0] > rates["zoom"][0]
    assert rates["zoom"][1] > rates["zoom"][0]
