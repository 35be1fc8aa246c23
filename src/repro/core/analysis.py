"""Aggregation of repeated experiments.

The paper repeats every condition several times (five repetitions for the
static sweeps, four for disruptions, three for competition) and reports the
median or mean together with a 90 % confidence interval band.  This module
provides those aggregations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunSummary", "confidence_interval", "aggregate_runs", "exact_mean", "exact_percentile", "summarize_series"]

#: Inputs up to this length are one block of numpy's pairwise summation;
#: longer ones are split in halves.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class RunSummary:
    """Summary statistics of one metric across repeated runs."""

    mean: float
    median: float
    ci_low: float
    ci_high: float
    n: int


def confidence_interval(values: Sequence[float], confidence: float = 0.90) -> tuple[float, float]:
    """Percentile-based confidence interval (the paper plots 90 % bands).

    With the small sample sizes the paper uses (3-5 repetitions) a
    percentile interval of the observed values is the honest choice; it
    degenerates gracefully to the single observed value for n=1.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return (0.0, 0.0)
    alpha = (1.0 - confidence) / 2.0
    low = float(np.quantile(data, alpha))
    high = float(np.quantile(data, 1.0 - alpha))
    return (low, high)


def aggregate_runs(values: Iterable[float], confidence: float = 0.90) -> RunSummary:
    """Aggregate one metric across repeated runs; NaN (a gap) without runs."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return RunSummary(mean=math.nan, median=math.nan, ci_low=math.nan, ci_high=math.nan, n=0)
    low, high = confidence_interval(data, confidence)
    return RunSummary(
        mean=float(np.mean(data)),
        median=float(np.median(data)),
        ci_low=low,
        ci_high=high,
        n=int(data.size),
    )


def exact_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` of a sequence of floats, bit for bit.

    Means are summed in Python, in numpy's order, to skip the array round
    trip.  ``np.mean`` adds the pairwise sum of the values to the
    reduction's identity ``0.0`` and divides by the count.  The pairwise sum
    of fewer than eight values is one loop from ``0.0``.  Up to 128 values
    it keeps eight interleaved accumulators seeded with the first eight
    values, adds them as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``
    and then the values left over after the last full group of eight.
    Longer inputs are split at half their length, rounded down to a multiple
    of eight, and the sums of the two parts added.  This is not ``sum()``,
    which compensates its rounding from Python 3.12, and it does not start
    at ``values[0]``, so a lone ``-0.0`` averages to ``0.0`` as in numpy.
    An empty sequence gives NaN, as ``np.mean`` does, without its warning.
    """
    count = len(values)
    if count < 8:
        if count == 0:
            return math.nan
        total = 0.0
        for value in values:
            total += value
        return total / count
    return (0.0 + _pairwise_sum(values, 0, count)) / count


def _pairwise_sum(values: Sequence[float], start: int, count: int) -> float:
    """numpy's pairwise sum of ``values[start:start + count]``, ``count >= 8``."""
    if count > _PAIRWISE_BLOCK:
        half = count // 2
        half -= half % 8
        return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, count - half)
    r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
    stop = start + count - count % 8
    for index in range(start + 8, stop, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[index : index + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[stop : start + count]:
        total += value
    return total


def exact_percentile(values: Sequence[float], q: float) -> float:
    """``float(np.percentile(values, q))`` of non-empty floats, bit for bit.

    numpy's default ``"linear"`` method without the array: the virtual index
    ``(n - 1) * (q / 100)`` into the sorted values, the values ``a`` and
    ``b`` at its floor and the next index, or both at the last index once
    the virtual index reaches it, and numpy's two-sided interpolation by the
    fraction ``g``: ``a + (b - a) * g`` below 0.5, ``b - (b - a) * (1 - g)``
    from 0.5 on.  Any NaN gives NaN.  numpy's partial sort leaves the order
    of equal values open, so when both ``0.0`` and ``-0.0`` occur a zero
    result may differ in sign; no other input differs.
    """
    count = len(values)
    if any(value != value for value in values):
        return math.nan
    ordered = sorted(values)
    virtual = (count - 1) * (q / 100)
    if virtual >= count - 1:
        below = above = ordered[-1]
        # numpy indexes the last value as -1 and takes ``virtual - (-1)``.
        fraction = virtual + 1
    else:
        index = math.floor(virtual)
        below, above = ordered[index], ordered[index + 1]
        fraction = virtual - index
    step = above - below
    if fraction >= 0.5:
        return above - step * (1 - fraction)
    return below + step * fraction


def summarize_series(
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
    bin_width_s: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Average several (times, values) traces onto a common time grid.

    Used for the time-series figures (4a, 5a, 9, 11, 13, 14a) where the paper
    plots the average trace over repetitions.
    """
    if not runs:
        return np.array([]), np.array([])
    end = max(times[-1] if len(times) else 0.0 for times, _ in runs)
    grid = np.arange(0.0, end + bin_width_s, bin_width_s)
    stacked = []
    for times, values in runs:
        if len(times) == 0:
            continue
        stacked.append(np.interp(grid, times, values, left=0.0, right=0.0))
    if not stacked:
        return grid, np.zeros_like(grid)
    return grid, np.mean(np.vstack(stacked), axis=0)
