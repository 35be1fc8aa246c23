"""Receive-side video quality accounting.

The only receive-side quality metrics the paper uses are derived from frame
arrival times at the decoder:

* **freeze ratio** (Figure 3a): a freeze occurs when the gap between
  consecutively displayed frames exceeds ``max(3 * delta, delta + 150 ms)``,
  where ``delta`` is the average frame duration; the freeze ratio is the
  total frozen time divided by the call duration;
* **received frame rate** (Figure 2b/2e): frames displayed per second.

:class:`FreezeTracker` implements the freeze rule verbatim, and also exposes
per-second received-FPS sampling for the WebRTC-stats collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FreezeTracker", "FreezeEvent"]


@dataclass(frozen=True)
class FreezeEvent:
    """One detected freeze: when it started and how long the gap was."""

    start: float
    duration: float


@dataclass(slots=True)
class FreezeTracker:
    """Detects freezes from frame display times using the paper's rule."""

    #: Additive component of the freeze threshold (the paper uses 150 ms).
    threshold_extra_s: float = 0.150
    #: Multiplicative component of the freeze threshold (the paper uses 3x).
    threshold_multiplier: float = 3.0

    _last_frame_at: float | None = field(default=None, repr=False)
    _mean_interval: float | None = field(default=None, repr=False)
    frames_displayed: int = 0
    total_freeze_s: float = 0.0
    freezes: list[FreezeEvent] = field(default_factory=list)

    def on_frame(self, now: float) -> bool:
        """Record a displayed frame; returns True if the gap was a freeze."""
        froze = False
        if self._last_frame_at is not None:
            gap = now - self._last_frame_at
            delta = self._mean_interval if self._mean_interval is not None else gap
            # max(scaled, padded), inline: like max(), the second wins only
            # when strictly greater.
            threshold = self.threshold_multiplier * delta
            padded = delta + self.threshold_extra_s
            if padded > threshold:
                threshold = padded
            if gap > threshold:
                froze = True
                # The frozen time is the portion of the gap beyond one normal
                # frame interval.
                frozen_for = gap - delta
                self.total_freeze_s += frozen_for
                self.freezes.append(FreezeEvent(start=self._last_frame_at, duration=frozen_for))
            # Exponentially weighted mean of the frame interval; freezes are
            # excluded so a burst of freezes does not inflate the baseline.
            if not froze:
                if self._mean_interval is None:
                    self._mean_interval = gap
                else:
                    self._mean_interval = 0.95 * self._mean_interval + 0.05 * gap
        self._last_frame_at = now
        self.frames_displayed += 1
        return froze

    @property
    def freeze_count(self) -> int:
        """Number of distinct freezes detected so far."""
        return len(self.freezes)

    def freeze_ratio(self, call_duration_s: float) -> float:
        """Total frozen time normalised by the call duration (Figure 3a)."""
        if call_duration_s <= 0:
            return 0.0
        return min(self.total_freeze_s / call_duration_s, 1.0)
