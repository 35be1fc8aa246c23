"""Common interfaces for media-rate congestion controllers.

Every VCA sender (and every server-side per-receiver estimator) owns a
:class:`RateController`.  The receiver side of an RTP session periodically
summarises what it observed -- receive rate, loss fraction, an estimate of
queueing delay above the path baseline, and round-trip time -- into a
:class:`FeedbackReport` which travels back to the sender as an RTCP packet.
The controller turns the stream of reports into a target media bitrate that
the encoder then realises.

The interface is deliberately identical for all VCA models so experiments can
swap controllers (this is the hook the ablation benchmarks use).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = ["FeedbackReport", "RateControllerConfig", "RateController"]


@dataclass(slots=True)
class FeedbackReport:
    """Receiver-side observations for one feedback interval.

    Attributes
    ----------
    timestamp:
        Simulation time at which the report was generated (receiver clock).
    interval_s:
        Length of the observation window.
    receive_rate_bps:
        Media goodput observed during the window (all media packets,
        including FEC), in bits per second.
    loss_fraction:
        Fraction of expected RTP packets that never arrived in the window.
    queueing_delay_s:
        Estimated standing queueing delay: the smoothed one-way delay minus
        the minimum one-way delay observed on the path.  This is the signal
        delay-based controllers (GCC) react to.
    delay_gradient_s:
        Change in smoothed one-way delay since the previous report; positive
        values indicate a growing queue.
    rtt_s:
        Round-trip time estimate available to the sender when the report is
        consumed.
    packets_expected / packets_received:
        Raw counts backing ``loss_fraction``.
    """

    timestamp: float
    interval_s: float
    receive_rate_bps: float
    loss_fraction: float
    queueing_delay_s: float
    delay_gradient_s: float = 0.0
    rtt_s: float = 0.05
    packets_expected: int = 0
    packets_received: int = 0

    #: Fallback observation window used when a report carries no interval
    #: (e.g. the very first report of a stream): the nominal RTCP cadence.
    DEFAULT_INTERVAL_S = 0.25

    def effective_interval(self, default_s: float | None = None) -> float:
        """The observation window, falling back to the nominal RTCP cadence.

        Every controller needs this guard (a zero-length window would stall
        multiplicative ramps); it lives here so the fallback is defined once.
        """
        if self.interval_s > 0:
            return self.interval_s
        return default_s if default_s is not None else self.DEFAULT_INTERVAL_S


@dataclass
class RateControllerConfig:
    """Bounds shared by all media-rate controllers."""

    #: Lowest bitrate the controller will ever request (VCAs keep sending a
    #: minimal stream even under severe constraint).
    min_bitrate_bps: float = 100_000.0
    #: The nominal (unconstrained) operating point of the VCA.
    max_bitrate_bps: float = 1_500_000.0
    #: Bitrate used before any feedback arrives.
    start_bitrate_bps: float = 600_000.0


class RateController(abc.ABC):
    """Abstract sender-side media-rate controller."""

    def __init__(self, config: RateControllerConfig) -> None:
        self.config = config
        self._target_bps = float(config.start_bitrate_bps)

    # ------------------------------------------------------------------ API
    @property
    def target_bitrate_bps(self) -> float:
        """Current media target bitrate in bits per second."""
        return self._target_bps

    @abc.abstractmethod
    def on_feedback(self, report: FeedbackReport, now: float) -> float:
        """Consume a feedback report and return the new target bitrate."""

    def fec_overhead_ratio(self, now: float) -> float:
        """Fraction of *additional* FEC traffic to send on top of media.

        Most controllers send no proactive FEC; the Zoom-style FBRA
        controller overrides this to implement redundancy-based probing.
        """
        return 0.0

    # ------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return min(max(value, self.config.min_bitrate_bps), self.config.max_bitrate_bps)

    def reset(self, bitrate_bps: float | None = None) -> None:
        """Reset to the start bitrate (used when a client re-joins a call)."""
        self._target_bps = float(
            bitrate_bps if bitrate_bps is not None else self.config.start_bitrate_bps
        )
