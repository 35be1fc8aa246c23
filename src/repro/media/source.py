"""The talking-head video source.

The paper feeds every client a pre-recorded 1280x720 talking-head video via
ffmpeg rather than the live webcam, "to both replicate a real video call and
ensure consistency across experiments" (a static webcam image would compress
to almost nothing).  :class:`TalkingHeadSource` is the synthetic equivalent:
a deterministic (seeded) per-frame *complexity* process whose mean is 1.0,
with slow autoregressive drift (the speaker swaying, lighting changes) and
occasional short motion bursts (gestures), so encoded frame sizes fluctuate
the way a real talking-head encode does without ever collapsing to the
static-image degenerate case the footnote of Section 2.2 warns about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.media.codec import Resolution

__all__ = ["TalkingHeadSource"]


@dataclass
class _MotionBurst:
    until: float
    magnitude: float


class TalkingHeadSource:
    """Deterministic frame-complexity process for a talking-head scene."""

    def __init__(
        self,
        seed: int = 0,
        resolution: Resolution = Resolution(1280, 720),
        base_fps: float = 30.0,
        drift: float = 0.05,
        burst_rate_hz: float = 0.08,
        burst_magnitude: float = 0.35,
        burst_duration_s: float = 1.5,
    ) -> None:
        self.resolution = resolution
        self.base_fps = base_fps
        self._rng = np.random.default_rng(seed)
        self._drift = drift
        self._burst_rate_hz = burst_rate_hz
        self._burst_magnitude = burst_magnitude
        self._burst_duration_s = burst_duration_s
        self._state = 1.0
        self._burst: _MotionBurst | None = None
        self._last_time = 0.0

    def complexity(self, now: float) -> float:
        """Scene complexity multiplier for a frame captured at ``now``.

        Values hover around 1.0; a gesture burst temporarily raises the
        multiplier by up to ``burst_magnitude``.
        """
        # The clamps are written out with min's and max's rule (keep the
        # first argument unless the second is strictly beyond it): this runs
        # once per encoded frame, and np.clip or the builtins cost more than
        # the AR update itself.  The innovation is ``normal(0, drift * scale)``
        # written out: numpy computes that as ``0.0 + sd * z`` from one
        # ``standard_normal()`` draw, so this gives the same doubles without
        # the call's argument checks.
        dt = now - self._last_time
        if 0.0 > dt:
            dt = 0.0
        self._last_time = now

        # AR(1) drift toward 1.0 with small innovations.
        scale = dt * self.base_fps
        if 1.0 < scale:
            scale = 1.0
        state = 1.0 + 0.95 * (self._state - 1.0) + self._drift * scale * self._rng.standard_normal()
        if 0.7 > state:
            state = 0.7
        if 1.4 < state:
            state = 1.4
        self._state = state

        # Poisson-arriving gesture bursts.
        if self._burst is None or now > self._burst.until:
            self._burst = None
            if dt > 0 and self._rng.random() < self._burst_rate_hz * dt:
                self._burst = _MotionBurst(
                    until=now + self._burst_duration_s,
                    magnitude=self._burst_magnitude * self._rng.uniform(0.5, 1.0),
                )

        burst = self._burst.magnitude if self._burst is not None else 0.0
        return self._state + burst
