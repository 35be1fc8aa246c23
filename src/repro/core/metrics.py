"""The paper's metrics.

Every quantitative claim in the paper reduces to a handful of metrics
computed from bitrate time series and per-second application statistics:

* **median bitrate** under a static shaping level (Figure 1),
* **utilization** -- bitrate divided by configured capacity (Section 3.1),
* **time to recovery (TTR)** after a transient disruption: the time from the
  end of the disruption until the five-second rolling median of the bitrate
  reaches the pre-disruption (nominal) median (Section 4),
* **link share** between an incumbent and a competing flow on a shared
  bottleneck (Section 5), and
* **Jain's fairness index** as a secondary fairness summary.

All functions operate on plain numpy arrays so they are equally usable on
emulated captures and on real pcap-derived series.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "bitrate_timeseries",
    "median_bitrate_mbps",
    "utilization",
    "rolling_median",
    "time_to_recovery",
    "link_share",
    "rate_share",
    "jains_fairness",
    "tx_loss_rate",
]


def bitrate_timeseries(times: np.ndarray, mbps: np.ndarray, start: float, end: float) -> np.ndarray:
    """Slice a bitrate series to a window (helper for the metrics below)."""
    times = np.asarray(times, dtype=float)
    mbps = np.asarray(mbps, dtype=float)
    mask = (times >= start) & (times < end)
    return mbps[mask]


def median_bitrate_mbps(
    times: np.ndarray, mbps: np.ndarray, start: float = 0.0, end: float = float("inf")
) -> float:
    """Median of the per-second bitrates over a window (Figure 1's y-axis)."""
    window = bitrate_timeseries(times, mbps, start, end)
    if window.size == 0:
        return 0.0
    return float(np.median(window))


def utilization(median_mbps: float, capacity_mbps: float) -> float:
    """Fraction of the configured capacity actually used."""
    if capacity_mbps <= 0:
        return 0.0
    return median_mbps / capacity_mbps


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Centered-start rolling median with a trailing window of ``window`` samples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values
    result = np.empty_like(values)
    for index in range(values.size):
        lo = max(index - window + 1, 0)
        result[index] = np.median(values[lo : index + 1])
    return result


def time_to_recovery(
    times: np.ndarray,
    mbps: np.ndarray,
    disruption_start: float,
    disruption_end: float,
    window_s: int = 5,
    recovery_fraction: float = 0.95,
    max_ttr_s: Optional[float] = None,
) -> float:
    """Time-to-recovery metric of Section 4.

    The nominal bitrate is the median bitrate before the disruption starts;
    recovery is declared when the ``window_s``-second rolling median of the
    post-disruption bitrate first reaches ``recovery_fraction`` of nominal.
    Returns the recovery delay in seconds, or ``max_ttr_s`` (if given) /
    the remaining trace length when the flow never recovers.
    """
    times = np.asarray(times, dtype=float)
    mbps = np.asarray(mbps, dtype=float)
    nominal = median_bitrate_mbps(times, mbps, 5.0, disruption_start)
    if nominal <= 0:
        return 0.0

    after_mask = times >= disruption_end
    after_times = times[after_mask]
    after_rates = mbps[after_mask]
    if after_times.size == 0:
        return float(max_ttr_s) if max_ttr_s is not None else 0.0

    rolled = rolling_median(after_rates, window=window_s)
    recovered = np.nonzero(rolled >= recovery_fraction * nominal)[0]
    if recovered.size == 0:
        if max_ttr_s is not None:
            return float(max_ttr_s)
        return float(after_times[-1] - disruption_end)
    return float(after_times[recovered[0]] - disruption_end)


def link_share(
    incumbent_mbps: np.ndarray,
    competitor_mbps: np.ndarray,
) -> float:
    """Fraction of the jointly used bandwidth taken by the incumbent flow.

    The paper reports the share of the *link*; using the sum of the two flows
    as the denominator is equivalent whenever the link is saturated and keeps
    the metric meaningful when it is not.
    """
    return rate_share(float(np.sum(incumbent_mbps)), float(np.sum(competitor_mbps)))


def rate_share(incumbent_mbps: float, competitor_mbps: float) -> float:
    """:func:`link_share` of two mean rates (``0.0`` when both are idle)."""
    total = incumbent_mbps + competitor_mbps
    if total <= 0:
        return 0.0
    return incumbent_mbps / total


def tx_loss_rate(sent_bytes: float, received_bytes: float) -> float:
    """Fraction of transmitted bytes that never reached the receiver.

    The pcap-style tx-side loss measurement: capture the same flow at the
    sender (e.g. the relay server's egress) and at the receiver and compare
    byte totals over a window.  This is the metric the paper's rx-side
    figures cannot see -- e.g. Zoom's SVC relay holding its competition
    floor *through* sustained downlink loss looks healthy received-rate-wise
    while its tx-side loss is enormous (the PR 3 modeling caveat).

    Clamped to ``[0, 1]``; zero when nothing was sent.
    """
    sent = float(sent_bytes)
    if sent <= 0.0:
        return 0.0
    lost = sent - float(received_bytes)
    return min(max(lost / sent, 0.0), 1.0)


def jains_fairness(rates: Sequence[float]) -> float:
    """Jain's fairness index over per-flow throughputs (1.0 = perfectly fair)."""
    values = np.asarray([r for r in rates if r >= 0], dtype=float)
    if values.size == 0 or np.all(values == 0):
        return 0.0
    # Normalise by the maximum so tiny rates do not underflow when squared.
    values = values / values.max()
    return float((values.sum() ** 2) / (values.size * np.sum(values**2)))
