"""The jointly calibrated constants of the competition model.

:class:`CompetitionConstants` collects every constant that the calibration
sweep may vary: the parameters of the per-receiver downlink estimators the
media servers build (:meth:`~repro.vca.sfu.node.SfuNode.add_participant`)
and the loss-BWE parameters of the Teams sender controller.  The relay
estimators and controllers read :func:`active_constants` at *construction*
time, so a calibration unit activates its candidate
(:func:`set_active_constants`) before building the scenario and every
simulation object it builds picks it up -- no plumbing through a dozen
constructors.

``COMMITTED_CONSTANTS`` is the winning set of the most recent sweep (see
``CALIBRATION.json`` at the repository root for its per-figure margins);
``tests/test_calibration.py`` asserts that it satisfies every figure target
at once, so a change here that fixes one figure cannot silently break
another.

This module must stay a leaf (imports from :mod:`repro.cc` only): the
media server imports it at module load, so importing the experiment layer
from here would create a cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cc.gcc import GCCConfig

__all__ = [
    "CompetitionConstants",
    "COMMITTED_CONSTANTS",
    "active_constants",
    "set_active_constants",
]


@dataclass(frozen=True)
class CompetitionConstants:
    """Sweepable constants, jointly constrained by Figures 8/10/12/14.

    The ``zoom_relay_*`` fields parameterise the per-receiver downlink
    estimator of Zoom's SVC relay.  Zoom's layer selection follows the
    *loss-based* estimate (its server FEC masks loss and it barely reacts to
    standing queueing delay), so these fields shape how hard Zoom pushes into
    a contended downlink and how quickly it recovers after backing off --
    the core of its measured aggressiveness (Figures 8-10, 12-14).

    The ``meet_relay_*`` fields parameterise Meet's SFU estimator, which is
    delay-led (standard GCC); only its loss-recovery leg is swept.

    The ``teams_bwe_*`` fields shape the loss-based estimate that floors the
    Teams sender's backoff base (the anchoring fix: a starved receive rate
    must not collapse the target multiplicatively).
    """

    # --- Zoom SVC relay per-receiver downlink estimator -----------------
    #: Loss fraction above which the relay's estimate decreases.  High:
    #: the relay's FEC reconstructs through heavy loss, which is what lets
    #: Zoom keep filling a drop-tail queue that starves delay-sensitive
    #: competitors (Figure 10b).
    zoom_relay_loss_decrease_threshold: float = 0.30
    #: Loss fraction below which the relay's estimate grows at full speed.
    zoom_relay_loss_increase_threshold: float = 0.10
    #: EWMA smoothing of the relay's loss input.  Drop-tail loss over 250 ms
    #: RTCP windows is bursty (a full queue reads as 60 % in one window and
    #: 0 % in the next); without smoothing the estimate is chopped on noise
    #: spikes and never sustains pressure on the queue.
    zoom_relay_loss_smoothing: float = 0.15
    #: Multiplicative decrease strength (``estimate *= 1 - f * loss``).
    zoom_relay_loss_decrease_factor: float = 0.3
    #: Full-speed growth per second below the increase threshold.
    zoom_relay_increase_factor_per_s: float = 1.10
    #: Floor on a decrease as a multiple of the delivered rate.
    zoom_relay_receive_floor_multiplier: float = 0.9
    #: Dwell inside the dead band before bounded recovery begins.
    zoom_relay_held_hold_s: float = 1.5
    #: Cautious growth per second during a bounded recovery window.
    zoom_relay_held_increase_factor_per_s: float = 1.06
    #: Bound of one recovery window relative to the post-backoff estimate.
    zoom_relay_recovery_cap_multiplier: float = 3.0
    #: Hard ceiling of the relay estimate (bounds the probing range).
    zoom_relay_max_bitrate_bps: float = 6_000_000.0
    #: Hard floor of the relay estimate: Zoom sheds *layers* under loss, it
    #: does not collapse its rate -- the relay keeps shipping base+mid with
    #: regenerated FEC and lets FEC recovery ride out the loss (the Zoom
    #: patent the paper cites).  This floor is what keeps Zoom queue-filling
    #: against an inelastic competitor (Teams' sender never drops below its
    #: 0.4 Mbps video floor, so *some* standing loss is unavoidable and an
    #: estimator that respected it would starve itself -- the fig10 trap).
    #: In two-party calls the committed value covers the full SVC ladder, so
    #: loss alone never thins a two-party downlink; multiparty thinning still
    #: applies through the per-receiver budget split.
    zoom_relay_min_bitrate_bps: float = 1_200_000.0
    #: Sustained-loss shedding: once a receiver's aggregate downlink loss has
    #: stayed at/above this fraction for ``zoom_relay_shed_after_s`` seconds,
    #: the relay paces its layer budget to ``zoom_relay_shed_headroom`` times
    #: the *delivered* rate instead of the estimator floor.  This bounds the
    #: tx-side loss flood at the 0.5 Mbps competition floor (the relay was
    #: shipping the full ladder into a ~77 % loss pipe) while the threshold
    #: sits above the bursty drop-tail loss Zoom must ride out to defend its
    #: queue share in Figure 10 -- ordinary competition loss never trips it.
    zoom_relay_shed_loss_threshold: float = 0.40
    #: Seconds of continuously high loss before shedding engages.
    zoom_relay_shed_after_s: float = 6.0
    #: Layer budget as a multiple of the delivered rate while shedding.
    zoom_relay_shed_headroom: float = 3.0
    #: EWMA factor smoothing the per-window loss the shed thresholds read
    #: (engage at the threshold, release below half of it): raw windows are
    #: bursty enough that one clean window would flap the shed state.
    zoom_relay_shed_loss_smoothing: float = 0.30

    # --- Meet SFU per-receiver downlink estimator -----------------------
    meet_relay_held_hold_s: float = 3.0
    meet_relay_held_increase_factor_per_s: float = 1.04
    meet_relay_recovery_cap_multiplier: float = 2.0

    # --- Teams sender loss-BWE (backoff anchoring) ----------------------
    teams_bwe_loss_decrease_threshold: float = 0.10
    teams_bwe_held_hold_s: float = 3.0
    teams_bwe_held_increase_factor_per_s: float = 1.04
    teams_bwe_recovery_cap_multiplier: float = 1.5

    # ------------------------------------------------------------ helpers
    def replace(self, **overrides: float) -> "CompetitionConstants":
        """A copy with the given fields overridden (sweep candidates)."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    def zoom_relay_estimator_config(self) -> GCCConfig:
        """Config of the per-receiver estimator of Zoom's SVC relay.

        The delay path is effectively disabled (huge thresholds) -- Zoom's
        relay rides out standing queueing delay -- and the loss path carries
        the constants above.  The receive-rate cap still bounds the *delay*
        estimate; the loss estimate is anchored by its own receive floor.
        """
        return GCCConfig(
            min_bitrate_bps=self.zoom_relay_min_bitrate_bps,
            max_bitrate_bps=self.zoom_relay_max_bitrate_bps,
            start_bitrate_bps=600_000.0,
            increase_factor_per_s=1.08,
            overuse_threshold_s=0.25,
            gradient_threshold_s=0.10,
            backoff_factor=0.85,
            cap_to_receive_rate=True,
            receive_rate_cap_multiplier=3.0,
            receive_rate_cap_floor_bps=260_000.0,
            loss_backoff_threshold=self.zoom_relay_loss_decrease_threshold,
            loss_increase_threshold=self.zoom_relay_loss_increase_threshold,
            loss_decrease_factor=self.zoom_relay_loss_decrease_factor,
            loss_increase_factor_per_s=self.zoom_relay_increase_factor_per_s,
            loss_receive_floor_multiplier=self.zoom_relay_receive_floor_multiplier,
            loss_held_hold_s=self.zoom_relay_held_hold_s,
            loss_held_increase_factor_per_s=self.zoom_relay_held_increase_factor_per_s,
            loss_recovery_cap_multiplier=self.zoom_relay_recovery_cap_multiplier,
            loss_smoothing=self.zoom_relay_loss_smoothing,
        )

    def meet_relay_estimator_config(self) -> GCCConfig:
        """Config of the per-receiver estimator of Meet's SFU (delay-led)."""
        return GCCConfig(
            min_bitrate_bps=100_000.0,
            max_bitrate_bps=6_000_000.0,
            start_bitrate_bps=600_000.0,
            increase_factor_per_s=1.15,
            overuse_threshold_s=0.060,
            gradient_threshold_s=0.015,
            cap_to_receive_rate=True,
            receive_rate_cap_multiplier=3.0,
            receive_rate_cap_floor_bps=260_000.0,
            loss_held_hold_s=self.meet_relay_held_hold_s,
            loss_held_increase_factor_per_s=self.meet_relay_held_increase_factor_per_s,
            loss_recovery_cap_multiplier=self.meet_relay_recovery_cap_multiplier,
        )

    def teams_bwe_overrides(self) -> dict[str, float]:
        """Loss-BWE field overrides for :class:`~repro.cc.teams.TeamsCCConfig`."""
        return {
            "bwe_loss_decrease_threshold": self.teams_bwe_loss_decrease_threshold,
            "bwe_held_hold_s": self.teams_bwe_held_hold_s,
            "bwe_held_increase_factor_per_s": self.teams_bwe_held_increase_factor_per_s,
            "bwe_recovery_cap_multiplier": self.teams_bwe_recovery_cap_multiplier,
        }


#: The committed, jointly validated constant set (see CALIBRATION.json).
COMMITTED_CONSTANTS = CompetitionConstants()

#: The constants simulation objects read at construction time.  Module-level
#: on purpose: a calibration unit activates its candidate for its own call and
#: the whole scenario built meanwhile (servers, controllers) inherits it.
_ACTIVE: CompetitionConstants = COMMITTED_CONSTANTS


def active_constants() -> CompetitionConstants:
    """The constant set newly built simulation objects should use."""
    return _ACTIVE


def set_active_constants(constants: CompetitionConstants | None) -> CompetitionConstants:
    """Activate a candidate constant set (``None`` restores the committed one).

    Returns the previously active set so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = constants if constants is not None else COMMITTED_CONSTANTS
    return previous
