"""Stochastic per-link impairment policies: loss processes and delay jitter.

The paper's testbed used wired links, so :class:`~repro.net.link.Link` only
ever needed a single i.i.d. ``loss_rate`` float.  Real access networks lose
packets in *bursts* (Wi-Fi collisions, LTE handovers, DSL errored seconds)
and add time-correlated delay variation; both are what actually stress a
VCA's FEC and jitter-buffer design.  This module provides those processes as
small policy objects a link consults per packet:

* :class:`IidLoss` -- the degenerate case.  A link constructed with an
  ``IidLoss`` policy collapses it to the original ``loss_rate`` float, so
  the run is byte-identical to the pre-netem engine at the same seed.
* :class:`GilbertElliottLoss` -- the classic two-state burst-loss model.
* :class:`DelayJitter` -- truncated-Gaussian delay variation with optional
  AR(1) autocorrelation (``rho > 0`` models the slowly varying queueing of
  an unmodelled cross-traffic path rather than white noise).

Seeding
-------

Every stochastic policy accepts an optional ``seed``.  With a seed the
policy owns a private ``numpy`` generator, so its draws do not interleave
with the simulator RNG: an impaired run does not depend on how many draws
other consumers take from the shared RNG.  Without a seed the policy draws
from the RNG the link passes in (the simulator's), matching the old
``loss_rate`` behaviour.

A private generator is read in blocks: ``random(n)`` and
``standard_normal(n)`` fill an array with the same doubles, in the same
order, as ``n`` scalar calls.  A scalar call costs 0.5-0.9 us on CPython
3.11, while a 256-value block with ``tolist()`` costs 20-40 ns per value.
The policy hands out the block's values one by one and refills when it
runs dry, so every sampled sequence is the scalar sequence bit for bit.
A policy without a seed draws one scalar per value from the generator it
is given, because other consumers share that generator and their draws
must interleave exactly as before.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["IidLoss", "GilbertElliottLoss", "DelayJitter"]

#: Values drawn per refill of a private stream's buffer.  Even, so a
#: Gilbert-Elliott packet's two draws always come from one block.
_BLOCK = 256


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


class IidLoss:
    """Independent per-packet loss -- the old ``loss_rate`` float as a policy.

    :class:`~repro.net.link.Link` special-cases this class: it unwraps
    :attr:`iid_rate` into its ``loss_rate`` fast path, so the RNG draw
    sequence (one ``rng.random()`` per delivered packet, none when the rate
    is zero) is exactly the pre-netem behaviour.
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("i.i.d. loss rate must be in [0, 1)")
        self.rate = float(rate)

    @property
    def iid_rate(self) -> float:
        """The equivalent ``Link.loss_rate`` value (the unwrap hook)."""
        return self.rate

    @property
    def expected_loss_rate(self) -> float:
        return self.rate

    def reset(self) -> None:  # pragma: no cover - stateless
        pass

    def sample(self, rng: np.random.Generator) -> bool:
        """True if the packet should be lost (one draw, like the float path)."""
        return self.rate > 0.0 and rng.random() < self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IidLoss(rate={self.rate})"


class GilbertElliottLoss:
    """Two-state (good/bad) Markov burst-loss model.

    Parameters
    ----------
    p_good_to_bad, p_bad_to_good:
        Per-packet state transition probabilities.  The mean burst length is
        ``1 / p_bad_to_good`` packets and the stationary bad-state share is
        ``p_good_to_bad / (p_good_to_bad + p_bad_to_good)``.
    loss_good, loss_bad:
        Loss probability inside each state (classic Gilbert model:
        ``loss_good=0``, ``loss_bad=1``).
    seed:
        Optional private-RNG seed (see module docstring).

    Every packet consumes exactly two draws (loss, then transition) so the
    draw count is independent of the outcome -- runs stay reproducible even
    when the policy shares the simulator RNG with other consumers.
    """

    __slots__ = (
        "p_good_to_bad",
        "p_bad_to_good",
        "loss_good",
        "loss_bad",
        "_bad",
        "_rng",
        "_seed",
        "_buffer",
    )

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        self.p_good_to_bad = _check_probability("p_good_to_bad", p_good_to_bad)
        self.p_bad_to_good = _check_probability("p_bad_to_good", p_bad_to_good)
        self.loss_good = _check_probability("loss_good", loss_good)
        self.loss_bad = _check_probability("loss_bad", loss_bad)
        self._bad = False
        self._seed = seed
        self._rng = None if seed is None else np.random.default_rng(seed)
        #: Unread values of the private stream, next value last.
        self._buffer: list[float] = []

    @classmethod
    def from_mean_loss(
        cls,
        mean_loss: float,
        mean_burst_packets: float = 8.0,
        seed: Optional[int] = None,
    ) -> "GilbertElliottLoss":
        """Build a Gilbert model (``loss_bad=1``) with a target mean loss rate.

        ``mean_burst_packets`` sets the expected loss-burst length; the
        good->bad probability is solved so the stationary loss rate equals
        ``mean_loss``, which makes a bursty policy directly comparable to
        ``IidLoss(mean_loss)`` at equal offered loss.
        """
        if not 0.0 <= mean_loss < 1.0:
            raise ValueError("mean loss must be in [0, 1)")
        if mean_burst_packets < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        p_bad_to_good = 1.0 / mean_burst_packets
        p_good_to_bad = mean_loss * p_bad_to_good / (1.0 - mean_loss)
        if p_good_to_bad > 1.0:
            # Silently clamping would deliver a lower stationary loss than
            # requested and break the equal-mean comparability contract.
            raise ValueError(
                f"mean loss {mean_loss} is unreachable with mean burst length "
                f"{mean_burst_packets} (requires p_good_to_bad > 1); use longer bursts"
            )
        return cls(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_good=0.0,
            loss_bad=1.0,
            seed=seed,
        )

    @property
    def expected_loss_rate(self) -> float:
        """Stationary loss rate of the chain."""
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator <= 0.0:
            return self.loss_good
        bad_share = self.p_good_to_bad / denominator
        return bad_share * self.loss_bad + (1.0 - bad_share) * self.loss_good

    def reset(self) -> None:
        """Return to the good state and restart the private RNG stream."""
        self._bad = False
        self._buffer = []
        if self._seed is not None:
            self._rng = np.random.default_rng(self._seed)

    def sample(self, rng: np.random.Generator) -> bool:
        if self._rng is None:
            loss_draw = rng.random()
            transition_draw = rng.random()
        else:
            buffer = self._buffer
            if not buffer:
                buffer = self._buffer = self._rng.random(_BLOCK).tolist()
                buffer.reverse()
            loss_draw = buffer.pop()
            transition_draw = buffer.pop()
        lost = loss_draw < (self.loss_bad if self._bad else self.loss_good)
        if self._bad:
            if transition_draw < self.p_bad_to_good:
                self._bad = False
        elif transition_draw < self.p_good_to_bad:
            self._bad = True
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottLoss(p_gb={self.p_good_to_bad:.4f}, "
            f"p_bg={self.p_bad_to_good:.4f}, mean={self.expected_loss_rate:.4f})"
        )


class DelayJitter:
    """Non-negative extra propagation delay with optional autocorrelation.

    Each delivered packet gets ``max(0, j_k)`` seconds of extra delay where
    ``j_k`` follows an AR(1) process around ``mean_s``::

        j_{k+1} = mean + rho * (j_k - mean) + std * sqrt(1 - rho^2) * N(0, 1)

    ``rho=0`` is i.i.d. truncated-Gaussian jitter; ``rho`` close to one
    models the slowly wandering delay of a congested unmodelled hop.  The
    link clamps delivery times to be monotonic per link, so jitter never
    reorders packets (matching ``netem delay ... distribution`` without
    ``reorder``).
    """

    __slots__ = ("mean_s", "std_s", "rho", "_innovation_std", "_value", "_rng", "_seed", "_buffer")

    def __init__(
        self,
        mean_s: float,
        std_s: float,
        rho: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if mean_s < 0.0 or std_s < 0.0:
            raise ValueError("jitter mean and std must be non-negative")
        if not 0.0 <= rho < 1.0:
            raise ValueError("jitter autocorrelation must be in [0, 1)")
        self.mean_s = float(mean_s)
        self.std_s = float(std_s)
        self.rho = float(rho)
        #: ``std * sqrt(1 - rho^2)``, the AR(1) innovation scale, computed
        #: once rather than per sampled packet.
        self._innovation_std = self.std_s * math.sqrt(1.0 - self.rho**2)
        self._value = self.mean_s
        self._seed = seed
        self._rng = None if seed is None else np.random.default_rng(seed)
        #: Unread values of the private stream, next value last.
        self._buffer: list[float] = []

    def reset(self) -> None:
        self._value = self.mean_s
        self._buffer = []
        if self._seed is not None:
            self._rng = np.random.default_rng(self._seed)

    def sample(self, rng: np.random.Generator) -> float:
        if self._rng is None:
            noise = rng.standard_normal()
        else:
            buffer = self._buffer
            if not buffer:
                buffer = self._buffer = self._rng.standard_normal(_BLOCK).tolist()
                buffer.reverse()
            noise = buffer.pop()
        if self.rho > 0.0:
            self._value = (
                self.mean_s
                + self.rho * (self._value - self.mean_s)
                + self._innovation_std * noise
            )
            return max(self._value, 0.0)
        return max(self.mean_s + self.std_s * noise, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DelayJitter(mean={self.mean_s * 1e3:.1f}ms, std={self.std_s * 1e3:.1f}ms, rho={self.rho})"
