"""Shared loss-based bandwidth estimation state machine.

Every controller in this package (and every server-side per-receiver
estimator) needs to translate the receiver's loss fraction into a bandwidth
estimate.  Before this module existed each controller did it ad hoc, and they
all shared the same trap: a *dead zone* between the increase threshold
(typically 2 % loss) and the backoff threshold (typically 10 %) in which the
estimate froze forever.  Under sustained competition the loss fraction sits
in exactly that band, so an estimate that ratcheted down during a transient
never recovered -- the root cause of the Figure 10 failure where Teams kept
~72 % of a 0.5 Mbps downlink against Zoom.

:class:`LossBasedBwe` follows the structure of WebRTC's ``LossBasedBweV2``:
three explicit states --

* ``increasing`` -- loss below the increase threshold, multiplicative growth;
* ``decreasing`` -- loss above the backoff threshold, multiplicative decrease
  proportional to the loss, floored at a fraction of the delivered rate (the
  estimate never drops below what the network is demonstrably carrying);
* ``held`` -- loss inside the dead band.  Instead of freezing forever the
  estimator dwells for ``held_hold_s`` and then enters a *bounded recovery
  window*: cautious multiplicative growth capped at
  ``recovery_cap_multiplier`` times the post-backoff anchor.  Full-speed
  growth (and an uncapped estimate) resume only once the loss falls below
  the increase threshold again.

The bounded window is what kills the dead zone without simply raising the
backoff threshold -- PR 1 showed that raising Zoom's ``loss_increase_threshold``
fixes the Teams pair but flips the Zoom-vs-Netflix result (fig14), which is
why the constants on top of this machine are jointly calibrated by
:mod:`repro.calibrate` against all competition figures at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cc.base import FeedbackReport

__all__ = ["LossBweConfig", "LossBasedBwe"]


@dataclass
class LossBweConfig:
    """Tunable constants of the shared loss-based estimator."""

    #: Loss fraction below which the estimate grows at full speed.
    increase_threshold: float = 0.02
    #: Loss fraction above which the estimate decreases.
    decrease_threshold: float = 0.10
    #: Multiplicative decrease strength: ``estimate *= 1 - factor * loss``.
    decrease_factor: float = 0.3
    #: Multiplicative growth per second while in the increasing state.
    increase_factor_per_s: float = 1.08
    #: Floor applied on a decrease as a multiple of the delivered rate; the
    #: estimate never drops below this even under very heavy loss (0 disables
    #: the floor).  This is the anchoring that stops the ratchet-to-minimum
    #: death spiral of the old per-controller loss handling.
    receive_rate_floor_multiplier: float = 0.9
    #: Dwell time inside the dead band before bounded recovery begins.
    held_hold_s: float = 3.0
    #: Cautious growth rate during a bounded recovery window.
    held_increase_factor_per_s: float = 1.04
    #: Upper bound of one recovery window, as a multiple of the post-backoff
    #: anchor estimate.  Growth inside the dead band never exceeds this; the
    #: cap clears when loss falls below the increase threshold.
    recovery_cap_multiplier: float = 2.0
    #: EWMA coefficient applied to the per-report loss fraction before it is
    #: compared against the thresholds (0 reacts to each raw report).  RTCP
    #: windows are short (250 ms) and drop-tail loss is bursty -- a full
    #: queue can read as 60 % loss in one window and 0 % in the next -- so
    #: threshold decisions on raw windows chop the estimate on noise.
    #: WebRTC's loss-based estimator averages observations the same way.
    loss_smoothing: float = 0.0
    #: Hard bounds on the estimate.
    min_bitrate_bps: float = 100_000.0
    max_bitrate_bps: float = 6_000_000.0


class LossBasedBwe:
    """Held / increasing / decreasing loss-based bandwidth estimator."""

    #: Valid values of :attr:`state`.
    STATES = ("increasing", "held", "decreasing")

    def __init__(self, config: LossBweConfig | None = None, start_bitrate_bps: float | None = None) -> None:
        self.config = config or LossBweConfig()
        start = start_bitrate_bps if start_bitrate_bps is not None else self.config.max_bitrate_bps
        self._estimate_bps = self._clamp(float(start))
        self.state = "increasing"
        #: Time of the most recent decrease (bounded recovery dwells from here).
        self._last_decrease_at: Optional[float] = None
        #: Post-backoff anchor; ``recovery_cap_multiplier`` times this bounds
        #: growth inside the dead band.  ``None`` means uncapped.
        self._recovery_anchor_bps: Optional[float] = None
        #: Smoothed loss fraction (``None`` until the first observation).
        self._smoothed_loss: Optional[float] = None

    # ----------------------------------------------------------------- API
    @property
    def estimate_bps(self) -> float:
        """Current loss-based bandwidth estimate in bits per second."""
        return self._estimate_bps

    def on_report(self, report: FeedbackReport, now: float) -> float:
        """Consume one feedback report and return the updated estimate."""
        return self.update(
            loss_fraction=report.loss_fraction,
            receive_rate_bps=report.receive_rate_bps,
            interval_s=report.effective_interval(),
            now=now,
        )

    def update(
        self,
        loss_fraction: float,
        receive_rate_bps: float,
        interval_s: float,
        now: float,
    ) -> float:
        cfg = self.config
        if cfg.loss_smoothing > 0.0:
            if self._smoothed_loss is None:
                self._smoothed_loss = loss_fraction
            else:
                self._smoothed_loss += cfg.loss_smoothing * (loss_fraction - self._smoothed_loss)
            loss_fraction = self._smoothed_loss
        if loss_fraction >= cfg.decrease_threshold:
            self.state = "decreasing"
            decreased = self._estimate_bps * (1.0 - cfg.decrease_factor * loss_fraction)
            if cfg.receive_rate_floor_multiplier > 0.0 and receive_rate_bps > 0.0:
                decreased = max(decreased, cfg.receive_rate_floor_multiplier * receive_rate_bps)
            self._estimate_bps = self._clamp(decreased)
            self._last_decrease_at = now
            self._recovery_anchor_bps = self._estimate_bps
        elif loss_fraction <= cfg.increase_threshold:
            self.state = "increasing"
            self._recovery_anchor_bps = None
            self._estimate_bps = self._clamp(
                self._estimate_bps * cfg.increase_factor_per_s ** interval_s
            )
        else:
            self.state = "held"
            dwell_over = (
                self._last_decrease_at is None
                or now - self._last_decrease_at >= cfg.held_hold_s
            )
            if dwell_over:
                grown = self._estimate_bps * cfg.held_increase_factor_per_s ** interval_s
                if self._recovery_anchor_bps is not None:
                    cap = self._recovery_anchor_bps * cfg.recovery_cap_multiplier
                    grown = min(grown, max(cap, self._estimate_bps))
                self._estimate_bps = self._clamp(grown)
        return self._estimate_bps

    def reset(self, bitrate_bps: float) -> None:
        """Reset to a known estimate (used when a client re-joins a call)."""
        self._estimate_bps = self._clamp(float(bitrate_bps))
        self.state = "increasing"
        self._last_decrease_at = None
        self._recovery_anchor_bps = None
        self._smoothed_loss = None

    def set_bounds(self, min_bitrate_bps: float, max_bitrate_bps: float) -> None:
        """Track the owning controller's (mutable) bitrate bounds.

        ``apply_uplink_cap`` and speaker-mode pinning rewrite a controller's
        ceiling in place; the estimator must follow or it would keep clamping
        to a stale bound.
        """
        self.config.min_bitrate_bps = min_bitrate_bps
        self.config.max_bitrate_bps = max_bitrate_bps
        self._estimate_bps = self._clamp(self._estimate_bps)

    # ------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return min(max(value, self.config.min_bitrate_bps), self.config.max_bitrate_bps)
