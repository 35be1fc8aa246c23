"""Time-varying bandwidth control -- the emulated ``tc`` command sequence.

The paper applies three kinds of shaping:

* **static shaping** for the capacity sweeps of Section 3
  (``{0.3, 0.4, ..., 1.5, 2, 5, 10}`` Mbps),
* **transient disruptions** for Section 4 (one minute into the call the
  capacity drops to ``{0.25, 0.5, 0.75, 1.0}`` Mbps for 30 seconds and then
  returns to 1 Gbps), and
* an unconstrained 1 Gbps profile.

:class:`BandwidthProfile` describes a piecewise-constant capacity over time;
:class:`LinkShaper` applies a profile to a :class:`~repro.net.link.Link` by
scheduling ``set_rate`` calls on the simulator, exactly the way the authors'
scripts invoked ``tc`` at pre-planned times.

Beyond the paper's handful of steps, profiles may be *dense*: a
trace-driven or synthetic capacity process (:mod:`repro.netem.traces`) has
hundreds of steps per minute.  ``rate_at`` binary-searches the schedule, and
:class:`LinkShaper` switches to *chained* scheduling for dense profiles --
one pending event that re-arms itself per step -- instead of pre-loading the
whole schedule into the heap.  Sparse profiles keep the original eager
scheduling so existing experiments stay byte-identical at seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.net.link import Link
from repro.net.simulator import Simulator

__all__ = ["BandwidthProfile", "LinkShaper", "UNCONSTRAINED_BPS", "DENSE_STEP_THRESHOLD"]

#: Profiles with more steps than this are applied via chained scheduling.
DENSE_STEP_THRESHOLD = 64

#: The paper's unconstrained access link: 1 Gbps symmetric fibre.
UNCONSTRAINED_BPS = 1_000_000_000.0


@dataclass(frozen=True)
class BandwidthProfile:
    """A piecewise-constant capacity schedule.

    ``steps`` is a sequence of ``(start_time_s, rate_bps)`` pairs sorted by
    start time.  The capacity before the first step is ``initial_bps``.
    """

    initial_bps: float = UNCONSTRAINED_BPS
    steps: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.initial_bps <= 0:
            raise ValueError("initial capacity must be positive")
        previous = -1.0
        for start, rate in self.steps:
            if rate <= 0:
                raise ValueError("capacities must be positive")
            if start < 0:
                raise ValueError("step times must be non-negative")
            if start <= previous:
                raise ValueError("step times must be strictly increasing")
            previous = start

    # ------------------------------------------------------------ factories
    @classmethod
    def constant(cls, rate_bps: float) -> "BandwidthProfile":
        """A static shaping level held for the whole experiment."""
        return cls(initial_bps=rate_bps)

    @classmethod
    def unconstrained(cls) -> "BandwidthProfile":
        """The 1 Gbps baseline profile."""
        return cls(initial_bps=UNCONSTRAINED_BPS)

    @classmethod
    def disruption(
        cls,
        drop_to_bps: float,
        drop_at_s: float = 60.0,
        duration_s: float = 30.0,
        baseline_bps: float = UNCONSTRAINED_BPS,
    ) -> "BandwidthProfile":
        """The Section 4 transient-disruption profile.

        The capacity starts at ``baseline_bps``, drops to ``drop_to_bps`` at
        ``drop_at_s`` and is restored ``duration_s`` seconds later.
        """
        return cls(
            initial_bps=baseline_bps,
            steps=((drop_at_s, drop_to_bps), (drop_at_s + duration_s, baseline_bps)),
        )

    @classmethod
    def from_segments(cls, segments: Iterable[tuple[float, float]]) -> "BandwidthProfile":
        """Build a profile from ``(start_time, rate_bps)`` segments.

        The first segment must start at time zero and provides the initial
        capacity.
        """
        items: Sequence[tuple[float, float]] = tuple(segments)
        if not items:
            raise ValueError("at least one segment is required")
        first_start, first_rate = items[0]
        if first_start != 0.0:
            raise ValueError("the first segment must start at time 0")
        return cls(initial_bps=first_rate, steps=tuple(items[1:]))

    @classmethod
    def from_samples(
        cls, bin_s: float, rates_bps: Sequence[float]
    ) -> "BandwidthProfile":
        """Build a dense profile from per-bin capacity samples.

        Sample ``k`` holds from ``k * bin_s``; consecutive equal samples are
        coalesced into one step so the schedule only carries actual changes.
        """
        if bin_s <= 0.0:
            raise ValueError("sample bin width must be positive")
        if not rates_bps:
            raise ValueError("at least one capacity sample is required")
        segments: list[tuple[float, float]] = []
        previous: float | None = None
        for index, rate in enumerate(rates_bps):
            if rate != previous:
                segments.append((index * bin_s, float(rate)))
                previous = float(rate)
        return cls.from_segments(segments)

    # ------------------------------------------------------------- queries
    @cached_property
    def _step_starts(self) -> list[float]:
        """Step start times, cached for binary search (dense profiles)."""
        return [start for start, _ in self.steps]

    def rate_at(self, time_s: float) -> float:
        """Capacity in effect at simulation time ``time_s``."""
        index = bisect_right(self._step_starts, time_s)
        if index == 0:
            return self.initial_bps
        return self.steps[index - 1][1]


class LinkShaper:
    """Applies a :class:`BandwidthProfile` to a link.

    The shaper is the emulation of the experiment scripts calling ``tc`` on
    the router at scheduled times: it sets the link's initial rate
    immediately and schedules the future rate changes.

    How the steps reach the simulator heap depends on the profile's size:

    * up to :data:`DENSE_STEP_THRESHOLD` steps -- one pre-scheduled event
      per step (event sequence numbers are allocated at apply time, which is
      what seeded experiments with sparse profiles depend on),
    * above it -- *chained*: a single pending event that applies the next
      step and re-arms itself, keeping heap occupancy O(1) for trace-driven
      schedules with thousands of steps.
    """

    def __init__(self, sim: Simulator, link: Link, profile: BandwidthProfile) -> None:
        self.sim = sim
        self.link = link
        self.profile = profile
        self._applied = False
        self._steps: tuple[tuple[float, float], ...] = ()
        self._index = 0

    def apply(self) -> None:
        """Set the initial rate and schedule all future changes."""
        if self._applied:
            raise RuntimeError("profile already applied to this link")
        self._applied = True
        self.link.set_rate(self.profile.rate_at(self.sim.now))
        steps = self.profile.steps
        if len(steps) <= DENSE_STEP_THRESHOLD:
            for start, rate in steps:
                self.sim.schedule_at(start, lambda r=rate: self.link.set_rate(r))
            return
        self._steps = steps
        # Steps at or before now are already covered by rate_at(now).
        index = 0
        now = self.sim.now
        while index < len(steps) and steps[index][0] <= now:
            index += 1
        self._index = index
        self._arm()

    def _arm(self) -> None:
        if self._index < len(self._steps):
            self.sim.call_at(self._steps[self._index][0], self._apply_next)

    def _apply_next(self) -> None:
        _, rate = self._steps[self._index]
        self._index += 1
        self.link.set_rate(rate)
        self._arm()
