"""Per-second application statistics, in the style of the WebRTC stats API.

The paper obtains Meet's and Teams-Chrome's application performance metrics
from the W3C WebRTC stats API exposed by Google Chrome: per-second samples of
the sent and received stream's frame rate, quantization parameter, frame
geometry, freeze durations and Full Intra Request counts (Section 3.2).

:class:`WebRTCStatsCollector` reproduces that interface against the emulated
clients: once per second it snapshots a metrics dictionary supplied by a
provider callable (the VCA client) and stores it with a timestamp.  The
analysis layer treats the resulting sample list exactly like the scraped
getStats() dumps the authors post-processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.analysis import exact_mean
from repro.net.simulator import PeriodicTask, Simulator

__all__ = ["StatsSample", "WebRTCStatsCollector"]


@dataclass(frozen=True)
class StatsSample:
    """One per-second statistics snapshot."""

    timestamp: float
    metrics: dict[str, float]

    def get(self, key: str, default: float = 0.0) -> float:
        return float(self.metrics.get(key, default))


class WebRTCStatsCollector:
    """Samples a client's statistics once per second (the getStats() poller)."""

    def __init__(
        self,
        sim: Simulator,
        provider: Callable[[], dict[str, float]],
        interval_s: float = 1.0,
    ) -> None:
        self.sim = sim
        self.provider = provider
        self.interval_s = interval_s
        self.samples: list[StatsSample] = []
        self._task: Optional[PeriodicTask] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin per-second sampling."""
        if self._task is not None:
            return
        self._task = self.sim.every(self.interval_s, self._sample)

    def stop(self) -> None:
        """Stop sampling (the call ended)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _sample(self) -> None:
        metrics = dict(self.provider())
        self.samples.append(StatsSample(timestamp=self.sim.now, metrics=metrics))

    # -------------------------------------------------------------- queries
    def series(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (timestamps, values) for one metric across all samples."""
        times = np.array([s.timestamp for s in self.samples], dtype=float)
        values = np.array([s.get(key) for s in self.samples], dtype=float)
        return times, values

    def mean(self, key: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean of a metric over a time window (``np.mean``, bit for bit)."""
        values = [s.get(key) for s in self.samples if start <= s.timestamp <= end]
        return exact_mean(values) if values else 0.0

    def median(self, key: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Median of a metric over a time window."""
        values = [s.get(key) for s in self.samples if start <= s.timestamp <= end]
        return float(np.median(values)) if values else 0.0

    def last(self, key: str, default: float = 0.0) -> float:
        """Most recent value of a metric."""
        if not self.samples:
            return default
        return self.samples[-1].get(key, default)
