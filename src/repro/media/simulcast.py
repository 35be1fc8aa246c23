"""Simulcast encoding (Google Meet).

In simulcast the sender encodes the *same* captured video several times at
different resolutions and sends every copy to the SFU; the SFU then forwards,
per receiver, the single copy that fits that receiver's downlink.  The paper
identifies exactly this architecture in Meet (Section 3.1): two extra copies
at 320x180 and 640x360, upstream utilization noticeably higher than
downstream, a downlink utilization floor of ~0.19 Mbps when the server is
stuck on the lowest copy, and sub-ten-second downlink disruption recovery
because the server only has to switch copies (Section 4.2).

:class:`SimulcastEncoder` owns one :class:`~repro.media.encoder.AdaptiveEncoder`
per layer and divides the congestion-controlled uplink budget between them:
the low-resolution copy is always kept alive (it is what makes the fast
downlink adaptation possible), the top copy receives the remaining budget and
is dropped altogether when the budget cannot sustain it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.media.codec import CodecModel, Resolution
from repro.media.encoder import (
    AdaptiveEncoder,
    EncodedFrame,
    EncoderPolicy,
    EncoderSettings,
    earliest_active_due,
)
from repro.media.source import TalkingHeadSource

__all__ = ["SimulcastLayer", "SimulcastEncoder"]


@dataclass(frozen=True)
class SimulcastLayer:
    """Static description of one simulcast copy."""

    name: str
    resolution: Resolution
    fps: float
    #: Lowest useful bitrate of this copy; below it the copy is switched off
    #: (except for the lowest copy, which is always kept).
    min_bitrate_bps: float
    #: Bitrate of the copy when unconstrained.
    max_bitrate_bps: float


#: The copies the paper observed Meet sending: a 320x180 thumbnail copy plus
#: the 640x360 primary copy (the client's 1366x768 screen never warrants a
#: full 720p remote tile in a two-party call).
DEFAULT_MEET_LAYERS: tuple[SimulcastLayer, ...] = (
    SimulcastLayer("low", Resolution(320, 180), fps=24.0, min_bitrate_bps=80_000.0, max_bitrate_bps=140_000.0),
    SimulcastLayer("high", Resolution(640, 360), fps=30.0, min_bitrate_bps=300_000.0, max_bitrate_bps=740_000.0),
)


class _FixedLayerPolicy(EncoderPolicy):
    """Per-layer policy: fixed geometry, QP absorbs the rate adaptation."""

    def __init__(self, layer: SimulcastLayer) -> None:
        self.layer = layer
        self.nominal_bitrate_bps = layer.max_bitrate_bps

    def select(self, target_bps: float, codec: CodecModel) -> EncoderSettings:
        # Allow up to twice the nominal copy rate: the allocator only asks for
        # more than nominal when this copy is the sole survivor of a tight
        # uplink budget (see SimulcastEncoder.set_target_bitrate).
        target = min(max(target_bps, 1.0), self.layer.max_bitrate_bps * 2.0)
        fps = self.layer.fps
        if target < 0.6 * self.layer.min_bitrate_bps and self.layer.name != "high":
            # The low copy halves its frame rate when it is the only copy left
            # and the budget is very tight (Meet's behaviour at 0.4 Mbps up).
            fps = max(self.layer.fps / 2.0, 12.0)
        qp = codec.qp_for_bitrate(self.layer.resolution, fps, target)
        return EncoderSettings(resolution=self.layer.resolution, fps=fps, qp=qp)


class SimulcastEncoder:
    """Encodes several copies of the source and splits the uplink budget."""

    def __init__(
        self,
        codec: CodecModel,
        layers: tuple[SimulcastLayer, ...] = DEFAULT_MEET_LAYERS,
        source: Optional[TalkingHeadSource] = None,
        keyframe_interval_s: float = 10.0,
    ) -> None:
        if not layers:
            raise ValueError("at least one simulcast layer is required")
        self.codec = codec
        self.layers = tuple(sorted(layers, key=lambda l: l.max_bitrate_bps))
        self.source = source or TalkingHeadSource()
        # All copies share one RTP flow, so they share one frame-id space.
        frame_ids = itertools.count(1)
        self._encoders: dict[str, AdaptiveEncoder] = {
            layer.name: AdaptiveEncoder(
                codec,
                _FixedLayerPolicy(layer),
                source=self.source,
                keyframe_interval_s=keyframe_interval_s,
                layer=layer.name,
                frame_ids=frame_ids,
            )
            for layer in self.layers
        }
        self._allocations: dict[str, float] = {}
        self._next_frame_at: dict[str, float] = {layer.name: 0.0 for layer in self.layers}
        #: Per-layer cap requested by the SFU (e.g. when every receiver is
        #: constrained the server caps the top copy); ``None`` means no cap.
        self._layer_caps: dict[str, float] = {}
        #: See :attr:`repro.media.encoder.AdaptiveEncoder.on_timing_change`.
        self.on_timing_change: Optional[Callable[[], None]] = None
        self.set_target_bitrate(sum(l.max_bitrate_bps for l in self.layers))

    # ----------------------------------------------------------------- API
    @property
    def nominal_bitrate_bps(self) -> float:
        """Total uplink video bitrate when unconstrained."""
        return sum(layer.max_bitrate_bps for layer in self.layers)

    @property
    def settings(self) -> EncoderSettings:
        """Settings of the highest currently active copy (for sender stats)."""
        for layer in reversed(self.layers):
            if self._allocations.get(layer.name, 0.0) > 0.0:
                return self._encoders[layer.name].settings
        return self._encoders[self.layers[0].name].settings

    def active_layers(self) -> dict[str, float]:
        """Mapping of active layer name to its allocated bitrate."""
        return {name: rate for name, rate in self._allocations.items() if rate > 0.0}

    def set_layer_cap(self, name: str, cap_bps: Optional[float]) -> None:
        """Apply (or clear) an SFU-requested bitrate cap on one copy."""
        if cap_bps is None:
            self._layer_caps.pop(name, None)
        else:
            self._layer_caps[name] = cap_bps
        self.set_target_bitrate(self._last_target)

    def set_target_bitrate(self, target_bps: float) -> None:
        """Split the congestion-controlled budget across the copies.

        WebRTC's simulcast allocator is reproduced here: when the budget
        covers every copy, all copies run at their nominal rates; when it
        does not, *higher* copies are preferred (the thumbnail copy is the
        first to be switched off), and when only the thumbnail copy survives
        it may be encoded at a higher-than-nominal rate so the remaining
        budget is not wasted -- this is what keeps Meet's uplink utilization
        above 85 % at 0.3-0.5 Mbps shaping (Figure 1a).
        """
        self._last_target = max(target_bps, 0.0)
        target = self._last_target
        allocations: dict[str, float] = {layer.name: 0.0 for layer in self.layers}

        lowest = self.layers[0]
        higher = list(self.layers[1:])
        higher_min = sum(layer.min_bitrate_bps for layer in higher)

        if higher and target >= lowest.max_bitrate_bps + higher_min:
            # Enough for everything: thumbnail at nominal, the rest to the
            # higher copies in priority order.
            allocations[lowest.name] = lowest.max_bitrate_bps
            remaining = target - lowest.max_bitrate_bps
            for layer in higher:
                cap = self._layer_caps.get(layer.name, layer.max_bitrate_bps)
                ceiling = min(layer.max_bitrate_bps, cap)
                alloc = min(remaining, ceiling)
                if alloc < layer.min_bitrate_bps:
                    alloc = 0.0
                allocations[layer.name] = alloc
                remaining = max(remaining - alloc, 0.0)
        elif higher and target >= higher[0].min_bitrate_bps:
            # Tight budget: drop the thumbnail copy and spend everything on
            # the primary copy.
            primary = higher[0]
            cap = self._layer_caps.get(primary.name, primary.max_bitrate_bps)
            allocations[primary.name] = min(target, min(primary.max_bitrate_bps, cap))
        else:
            # Severely constrained: only the thumbnail copy survives, encoded
            # at up to roughly twice its nominal rate if the budget allows.
            boost_ceiling = lowest.max_bitrate_bps * 1.9
            allocations[lowest.name] = max(min(target, boost_ceiling), 60_000.0)

        self._allocations = allocations
        for layer in self.layers:
            encoder = self._encoders[layer.name]
            encoder.set_target_bitrate(allocations.get(layer.name, 0.0))
        if self.on_timing_change is not None:
            # A reallocation can (re)activate a copy whose stale due time is
            # in the past, making a frame due at the very next grid point.
            self.on_timing_change()

    def next_due_time(self) -> float:
        """Earliest unquantised due time among the currently active copies."""
        return earliest_active_due(self.layers, self._allocations, self._next_frame_at)

    def reseed_frame_ids(self, start: int) -> None:
        """Restart the shared frame-id allocator of all copies at ``start``.

        See :meth:`repro.media.encoder.AdaptiveEncoder.reseed_frame_ids`;
        the copies share one RTP flow, so they keep sharing one counter.
        """
        frame_ids = itertools.count(start)
        for encoder in self._encoders.values():
            encoder._frame_ids = frame_ids

    def request_keyframe(self, layer: Optional[str] = None) -> None:
        """Request a keyframe on one copy (or all copies)."""
        if layer is not None and layer in self._encoders:
            self._encoders[layer].request_keyframe()
            return
        for encoder in self._encoders.values():
            encoder.request_keyframe()

    def frames_due(self, now: float) -> list[EncodedFrame]:
        """Encode the frames whose capture time has arrived, for every active copy."""
        frames: list[EncodedFrame] = []
        for layer in self.layers:
            if self._allocations.get(layer.name, 0.0) <= 0.0:
                continue
            if now + 1e-9 < self._next_frame_at[layer.name]:
                continue
            encoder = self._encoders[layer.name]
            frame = encoder.encode_frame(now)
            frames.append(frame)
            self._next_frame_at[layer.name] = now + encoder.frame_interval_s
        return frames
