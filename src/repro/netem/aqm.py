"""CoDel-style active queue management for :class:`~repro.net.link.Link`.

The paper's router is a small drop-tail buffer, which is what produces the
bufferbloat signatures in the competition experiments.  Modern CPE
increasingly runs CoDel/fq_codel, and whether a VCA's delay-based estimator
behaves under AQM is exactly the kind of beyond-paper question the scenario
library asks.  :class:`CoDelQueue` implements the CoDel control law
(Nichols & Jacobson, target sojourn + interval, drop spacing shrinking with
``interval / sqrt(count)``).

Integration note
----------------

The fast-path link computes a packet's whole schedule at arrival, so the
AQM decision is made *at enqueue* against the packet's deterministic
standing-queue delay (``queued_bytes * 8 / rate`` -- the sojourn it is about
to experience), not at dequeue as in kernel CoDel.  The backlog estimate is
known analytically at arrival, and a link with ``aqm=None`` is
byte-identical to the pre-netem engine.  The control law itself (first_above_time arming, the
dropping state, count decay on re-entry) follows the reference
implementation.
"""

from __future__ import annotations

from math import sqrt

__all__ = ["CoDelQueue"]


class CoDelQueue:
    """The CoDel drop-decision state machine.

    Parameters
    ----------
    target_s:
        Acceptable standing-queue delay (reference default 5 ms).
    interval_s:
        Sliding window in which the sojourn must exceed ``target_s`` before
        dropping starts (reference default 100 ms, ~a worst-case RTT).
    """

    __slots__ = (
        "target_s",
        "interval_s",
        "dropping",
        "drop_count",
        "_first_above_time",
        "_drop_next",
    )

    def __init__(self, target_s: float = 0.005, interval_s: float = 0.100) -> None:
        if target_s <= 0.0 or interval_s <= 0.0:
            raise ValueError("CoDel target and interval must be positive")
        self.target_s = float(target_s)
        self.interval_s = float(interval_s)
        self.reset()

    def reset(self) -> None:
        """Forget all control state (new run)."""
        self.dropping = False
        self.drop_count = 0
        self._first_above_time = 0.0
        self._drop_next = -float("inf")

    # ------------------------------------------------------------- decision
    def should_drop(self, now: float, sojourn_s: float) -> bool:
        """Decide the fate of a packet about to join the queue.

        ``sojourn_s`` is the delay the packet would experience from the
        current backlog.  Returns True when CoDel says to drop it.
        """
        if sojourn_s < self.target_s:
            # Below target: leave the dropping state and disarm.
            self._first_above_time = 0.0
            self.dropping = False
            return False

        if not self.dropping:
            if self._first_above_time == 0.0:
                # First packet above target: arm the interval timer.
                self._first_above_time = now + self.interval_s
                return False
            if now < self._first_above_time:
                return False
            # Sojourn stayed above target for a whole interval: start
            # dropping.  Resume near the previous drop rate only if the last
            # dropping episode ended recently (the reference recency window
            # of 16 intervals); after a quiet period start over at count 1.
            self.dropping = True
            recent = now - self._drop_next < 16.0 * self.interval_s
            if recent and self.drop_count > 2:
                self.drop_count -= 2
            else:
                self.drop_count = 1
            self._drop_next = now + self.interval_s / sqrt(self.drop_count)
            return True

        if now >= self._drop_next:
            self.drop_count += 1
            self._drop_next += self.interval_s / sqrt(self.drop_count)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dropping" if self.dropping else "idle"
        return (
            f"CoDelQueue(target={self.target_s * 1e3:.0f}ms, "
            f"interval={self.interval_s * 1e3:.0f}ms, {state}, count={self.drop_count})"
        )
