"""Trace-driven and synthetic variable-rate capacity processes.

Two sources of time-varying link capacity:

* **Mahimahi packet-delivery-opportunity traces** (the de-facto exchange
  format for cellular captures): a text file with one integer millisecond
  timestamp per line, each the opportunity to deliver one MTU-sized packet.
  :func:`parse_mahimahi` bins the opportunities into a piecewise-constant
  rate process.

* **Seeded synthetic generators** for four access technologies, shaped by
  the measurement literature (Kumar et al., arXiv:2210.09651 profiles VCAs
  over exactly these backhauls):

  - ``lte``  -- mean-reverting log-rate walk with occasional deep fades,
  - ``wifi`` -- two-state (clear / contended) Markov channel,
  - ``dsl``  -- near-constant sync rate with rare resync outages,
  - ``leo``  -- LEO satellite: smooth elevation-driven capacity swing with a
    handover dip on a ~15 s grid (the Starlink reconfiguration interval).

Both render to a :class:`RateTrace`, which converts to a dense
:class:`~repro.net.shaper.BandwidthProfile` (consecutive equal-rate bins are
coalesced) that :class:`~repro.net.shaper.LinkShaper` applies efficiently
via chained scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.net.shaper import BandwidthProfile

__all__ = [
    "RateTrace",
    "parse_mahimahi",
    "load_mahimahi",
    "synthesize",
    "SYNTHETIC_KINDS",
    "MIN_TRACE_RATE_BPS",
]

#: Floor applied to empty trace bins: a profile rate must stay positive, so a
#: bin with zero delivery opportunities becomes a near-outage, not an error.
MIN_TRACE_RATE_BPS = 1_000.0

#: MTU the Mahimahi format assumes per delivery opportunity.
MAHIMAHI_MTU_BYTES = 1500


@dataclass(frozen=True)
class RateTrace:
    """A capacity process sampled on a fixed grid of ``bin_s``-second bins."""

    bin_s: float
    rates_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.bin_s <= 0.0:
            raise ValueError("trace bin width must be positive")
        if not self.rates_bps:
            raise ValueError("a trace needs at least one bin")
        if any(rate <= 0.0 for rate in self.rates_bps):
            raise ValueError("trace rates must be positive (use MIN_TRACE_RATE_BPS for outages)")

    @property
    def duration_s(self) -> float:
        return self.bin_s * len(self.rates_bps)

    @property
    def mean_bps(self) -> float:
        return float(np.mean(self.rates_bps))

    def scaled_to_mean(self, mean_bps: float) -> "RateTrace":
        """Rescale the whole process to a target mean capacity."""
        if mean_bps <= 0.0:
            raise ValueError("target mean must be positive")
        factor = mean_bps / self.mean_bps
        return RateTrace(
            bin_s=self.bin_s,
            rates_bps=tuple(max(rate * factor, MIN_TRACE_RATE_BPS) for rate in self.rates_bps),
        )

    def to_profile(self, duration_s: Optional[float] = None) -> BandwidthProfile:
        """Render as a dense piecewise-constant bandwidth profile.

        When ``duration_s`` exceeds the trace length the trace loops
        (Mahimahi semantics); consecutive equal-rate bins are coalesced so
        the profile only carries actual rate changes.
        """
        rates = self.rates_bps
        n_bins = len(rates)
        if duration_s is None:
            total_bins = n_bins
        else:
            if duration_s <= 0.0:
                raise ValueError("profile duration must be positive")
            total_bins = int(np.ceil(duration_s / self.bin_s))
        samples = [rates[index % n_bins] for index in range(total_bins)]
        return BandwidthProfile.from_samples(self.bin_s, samples)


# ---------------------------------------------------------------- mahimahi
def parse_mahimahi(
    lines: Iterable[Union[str, int]],
    bin_s: float = 0.2,
    mtu_bytes: int = MAHIMAHI_MTU_BYTES,
) -> RateTrace:
    """Parse a Mahimahi delivery-opportunity trace into a :class:`RateTrace`.

    Each line is an integer timestamp in milliseconds at which one
    ``mtu_bytes`` packet could be delivered; blank lines and ``#`` comments
    are ignored.  Opportunities are counted per ``bin_s`` bin and converted
    to bits per second.
    """
    if bin_s <= 0.0:
        raise ValueError("bin width must be positive")
    timestamps_ms: list[int] = []
    for line in lines:
        if isinstance(line, str):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
        timestamp = int(line)
        if timestamp < 0:
            raise ValueError("Mahimahi timestamps must be non-negative")
        timestamps_ms.append(timestamp)
    if not timestamps_ms:
        raise ValueError("empty Mahimahi trace")
    timestamps_ms.sort()
    n_bins = int(timestamps_ms[-1] / (bin_s * 1000.0)) + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    for timestamp in timestamps_ms:
        counts[int(timestamp / (bin_s * 1000.0))] += 1
    rates = counts * (mtu_bytes * 8) / bin_s
    return RateTrace(bin_s=bin_s, rates_bps=tuple(max(float(r), MIN_TRACE_RATE_BPS) for r in rates))


#: ``(resolved path, bin_s) -> (st_size, st_mtime_ns, trace)`` of every
#: Mahimahi file loaded in this process.
_MAHIMAHI_CACHE: dict[tuple[str, float], tuple[int, int, RateTrace]] = {}


def load_mahimahi(path: Union[str, Path], bin_s: float = 0.2) -> RateTrace:
    """Load a Mahimahi trace file from disk.

    Each file is parsed once per process: a campaign loads the same trace
    for every cell.  The frozen :class:`RateTrace` is cached under the
    resolved path and ``bin_s``, and parsed again when the file's size or
    modification time changes.
    """
    resolved = Path(path).resolve()
    stat = resolved.stat()
    key = (str(resolved), bin_s)
    cached = _MAHIMAHI_CACHE.get(key)
    if cached is not None and cached[:2] == (stat.st_size, stat.st_mtime_ns):
        return cached[2]
    with open(resolved, "r", encoding="utf-8") as handle:
        trace = parse_mahimahi(handle, bin_s=bin_s)
    _MAHIMAHI_CACHE[key] = (stat.st_size, stat.st_mtime_ns, trace)
    return trace


# ------------------------------------------------------------- synthesizers
def _lte(rng: np.random.Generator, duration_s: float, mean_mbps: float, bin_s: float) -> RateTrace:
    """Mean-reverting log-rate walk with occasional deep fades (cellular)."""
    n_bins = max(int(np.ceil(duration_s / bin_s)), 1)
    log_mean = np.log(mean_mbps * 1e6)
    theta, sigma = 0.25, 0.35  # reversion strength / per-bin volatility
    rates = np.empty(n_bins)
    log_rate = log_mean + rng.standard_normal() * sigma
    fade_bins_left = 0
    for index in range(n_bins):
        log_rate += theta * (log_mean - log_rate) + sigma * rng.standard_normal()
        rate = np.exp(log_rate)
        if fade_bins_left > 0:
            rate *= 0.12  # deep fade: handover / cell-edge dip
            fade_bins_left -= 1
        elif rng.random() < 0.02 * bin_s / 0.5:
            fade_bins_left = int(rng.integers(1, max(int(2.0 / bin_s), 2)))
        rates[index] = max(rate, MIN_TRACE_RATE_BPS)
    return RateTrace(bin_s=bin_s, rates_bps=tuple(rates))


def _wifi(rng: np.random.Generator, duration_s: float, mean_mbps: float, bin_s: float) -> RateTrace:
    """Two-state Markov channel: clear vs contended (co-channel traffic)."""
    n_bins = max(int(np.ceil(duration_s / bin_s)), 1)
    # Dwell ~8 s clear / ~3 s contended; rates chosen so the long-run mean
    # matches mean_mbps.
    p_enter = bin_s / 8.0
    p_leave = bin_s / 3.0
    contended_share = p_enter / (p_enter + p_leave)
    contended_factor = 0.22
    clear_rate = mean_mbps * 1e6 / ((1 - contended_share) + contended_share * contended_factor)
    contended = False
    rates = np.empty(n_bins)
    for index in range(n_bins):
        if contended:
            if rng.random() < p_leave:
                contended = False
        elif rng.random() < p_enter:
            contended = True
        base = clear_rate * (contended_factor if contended else 1.0)
        rates[index] = max(base * (1.0 + 0.10 * rng.standard_normal()), MIN_TRACE_RATE_BPS)
    return RateTrace(bin_s=bin_s, rates_bps=tuple(rates))


def _dsl(rng: np.random.Generator, duration_s: float, mean_mbps: float, bin_s: float) -> RateTrace:
    """Stable sync rate with rare multi-second resync outages."""
    n_bins = max(int(np.ceil(duration_s / bin_s)), 1)
    rates = np.full(n_bins, mean_mbps * 1e6)
    rates *= 1.0 + 0.01 * rng.standard_normal(n_bins)
    index = 0
    while index < n_bins:
        if rng.random() < 0.004 * bin_s / 0.5:  # ~one resync per 2 minutes
            outage = int(max(2.0 / bin_s, 1))
            rates[index : index + outage] = MIN_TRACE_RATE_BPS * 10
            index += outage
        index += 1
    return RateTrace(bin_s=bin_s, rates_bps=tuple(np.maximum(rates, MIN_TRACE_RATE_BPS)))


def _leo(rng: np.random.Generator, duration_s: float, mean_mbps: float, bin_s: float) -> RateTrace:
    """LEO satellite: elevation-driven swing + handover dips every ~15 s."""
    n_bins = max(int(np.ceil(duration_s / bin_s)), 1)
    times = np.arange(n_bins) * bin_s
    phase = rng.uniform(0.0, 2.0 * np.pi)
    # Capacity swings with satellite elevation over a ~3-minute pass.
    swing = 1.0 + 0.35 * np.sin(2.0 * np.pi * times / 180.0 + phase)
    rates = mean_mbps * 1e6 * swing * (1.0 + 0.08 * rng.standard_normal(n_bins))
    handover_interval = 15.0
    offset = float(rng.uniform(0.0, handover_interval))
    for dip_start in np.arange(offset, duration_s, handover_interval):
        lo = int(dip_start / bin_s)
        hi = lo + max(int(0.8 / bin_s), 1)
        rates[lo:hi] *= 0.25
    return RateTrace(bin_s=bin_s, rates_bps=tuple(np.maximum(rates, MIN_TRACE_RATE_BPS)))


SYNTHETIC_KINDS = {
    "lte": _lte,
    "wifi": _wifi,
    "dsl": _dsl,
    "leo": _leo,
}


def synthesize(
    kind: str,
    seed: int,
    duration_s: float,
    mean_mbps: float = 6.0,
    bin_s: float = 0.5,
) -> RateTrace:
    """Generate a seeded synthetic capacity trace for one access technology."""
    if kind not in SYNTHETIC_KINDS:
        raise KeyError(f"unknown trace kind {kind!r}; known: {sorted(SYNTHETIC_KINDS)}")
    if duration_s <= 0.0:
        raise ValueError("trace duration must be positive")
    if mean_mbps <= 0.0:
        raise ValueError("trace mean capacity must be positive")
    rng = np.random.default_rng(seed)
    return SYNTHETIC_KINDS[kind](rng, duration_s, mean_mbps, bin_s)
