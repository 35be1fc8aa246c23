"""Adaptive-bitrate (ABR) streaming player.

Netflix and YouTube traffic (Section 5.3) is chunked video download with
rate adaptation: the player keeps a playback buffer, requests segments at a
quality chosen from a bitrate ladder, and goes idle (OFF periods) once the
buffer is full.  :class:`AbrPlayer` implements a standard throughput +
buffer-occupancy heuristic; the transport used to fetch each chunk is
supplied by a subclass (parallel TCP for Netflix, QUIC for YouTube), so the
player itself stays transport-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.net.simulator import Simulator

__all__ = ["AbrConfig", "AbrPlayer"]


@dataclass
class AbrConfig:
    """Player parameters."""

    #: Available bitrates in bits per second (a Netflix/YouTube-like ladder).
    ladder_bps: tuple[float, ...] = (
        235_000.0,
        375_000.0,
        560_000.0,
        750_000.0,
        1_050_000.0,
        1_750_000.0,
        2_350_000.0,
        3_000_000.0,
    )
    #: Segment (chunk) duration in seconds of playback.
    chunk_duration_s: float = 4.0
    #: Buffer level above which the player stops requesting (OFF period).
    max_buffer_s: float = 25.0
    #: Buffer level below which the player always picks the lowest quality.
    panic_buffer_s: float = 8.0
    #: Safety factor applied to the throughput estimate when picking quality.
    throughput_safety: float = 0.8


class AbrPlayer(abc.ABC):
    """Buffer- and throughput-driven ABR download loop."""

    def __init__(self, sim: Simulator, config: Optional[AbrConfig] = None) -> None:
        self.sim = sim
        self.config = config or AbrConfig()
        self.buffer_s = 0.0
        self.playing = False
        self._running = False
        self._throughput_estimate_bps = self.config.ladder_bps[0]
        self._chunk_started_at = 0.0
        self._current_quality = 0
        #: History of (time, quality index, chunk bitrate) for analysis.
        self.chunk_log: list[tuple[float, int, float]] = []
        self.rebuffer_events = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin streaming."""
        if self._running:
            return
        self._running = True
        self.playing = True
        self._drain_task = self.sim.every(1.0, self._drain_buffer)
        self._request_next_chunk()

    def stop(self) -> None:
        """Stop streaming (the competing application's two minutes are over)."""
        self._running = False
        self.playing = False
        self._drain_task.stop()

    # ----------------------------------------------------------- scheduling
    def _drain_buffer(self) -> None:
        if not self.playing:
            return
        if self.buffer_s > 0:
            self.buffer_s = max(self.buffer_s - 1.0, 0.0)
        elif self._running:
            self.rebuffer_events += 1

    def _request_next_chunk(self) -> None:
        if not self._running:
            return
        if self.buffer_s >= self.config.max_buffer_s:
            # OFF period: check again shortly.
            self.sim.schedule(1.0, self._request_next_chunk)
            return
        quality = self._pick_quality()
        self._current_quality = quality
        bitrate = self.config.ladder_bps[quality]
        chunk_bytes = int(bitrate * self.config.chunk_duration_s / 8)
        self._chunk_started_at = self.sim.now
        self.chunk_log.append((self.sim.now, quality, bitrate))
        self._download_chunk(chunk_bytes, self._on_chunk_complete)

    def _on_chunk_complete(self) -> None:
        elapsed = max(self.sim.now - self._chunk_started_at, 1e-3)
        bitrate = self.config.ladder_bps[self._current_quality]
        observed = bitrate * self.config.chunk_duration_s / elapsed
        self._throughput_estimate_bps = (
            0.7 * self._throughput_estimate_bps + 0.3 * observed
        )
        self.buffer_s += self.config.chunk_duration_s
        if self._running:
            self._request_next_chunk()

    def _pick_quality(self) -> int:
        """Highest ladder rung sustainable at the (discounted) throughput estimate."""
        if self.buffer_s < self.config.panic_buffer_s:
            budget = self._throughput_estimate_bps * self.config.throughput_safety
        else:
            budget = self._throughput_estimate_bps
        quality = 0
        for index, rate in enumerate(self.config.ladder_bps):
            if rate <= budget:
                quality = index
        return quality

    # ------------------------------------------------------------ transport
    @abc.abstractmethod
    def _download_chunk(self, chunk_bytes: int, on_complete) -> None:
        """Fetch ``chunk_bytes`` over the concrete transport, then call back."""

    # ---------------------------------------------------------------- stats
    @property
    def current_bitrate_bps(self) -> float:
        """Bitrate of the most recently requested chunk."""
        return self.config.ladder_bps[self._current_quality]
