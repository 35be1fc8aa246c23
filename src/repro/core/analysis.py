"""Aggregation of repeated experiments.

The paper repeats every condition several times (five repetitions for the
static sweeps, four for disruptions, three for competition) and reports the
median or mean together with a 90 % confidence interval band.  This module
provides those aggregations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunSummary", "confidence_interval", "aggregate_runs", "summarize_series"]


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
    """Aggregate one metric measured across repeated runs."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return RunSummary(mean=0.0, median=0.0, ci_low=0.0, ci_high=0.0, n=0)
    low, high = confidence_interval(data, confidence)
    return RunSummary(
        mean=float(np.mean(data)),
        median=float(np.median(data)),
        ci_low=low,
        ci_high=high,
        n=int(data.size),
    )


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
