"""Scalable video coding (Zoom).

Zoom encodes a single hierarchical stream: a base layer plus enhancement
layers that progressively add resolution / frame-rate / fidelity (the Zoom
engineering blog cited by the paper, reference [34]).  Two consequences the
paper measures follow directly from this architecture:

* the *relay server* can adapt each receiver's downstream instantly by
  forwarding fewer layers, so Zoom tracks available downlink capacity closely
  during disruptions and recovers quickly (Section 4.2), and
* the sender can match essentially any target bitrate (layer subsetting plus
  per-layer QP), so Zoom's utilization hugs the shaped capacity in Figure 1.

:class:`SVCEncoder` models the hierarchy as cumulative layers; the congestion
controller's target selects how many layers are active and how much rate the
top active layer gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.media.codec import CodecModel, Resolution
from repro.media.encoder import EncodedFrame, EncoderSettings, earliest_active_due
from repro.media.source import TalkingHeadSource

__all__ = ["SVCLayer", "SVCEncoder"]

import itertools


@dataclass(frozen=True)
class SVCLayer:
    """One layer of the SVC hierarchy.

    ``cumulative_bitrate_bps`` is the total stream bitrate when this layer and
    every layer below it are active and fully provisioned.
    """

    name: str
    resolution: Resolution
    fps: float
    cumulative_bitrate_bps: float


#: Default Zoom-like hierarchy: a small base layer that survives severe
#: constraint, a 360p enhancement and a 720p top layer whose cumulative rate
#: matches Zoom's measured ~0.74 Mbps nominal video rate.
DEFAULT_ZOOM_LAYERS: tuple[SVCLayer, ...] = (
    SVCLayer("base", Resolution(320, 180), fps=15.0, cumulative_bitrate_bps=110_000.0),
    SVCLayer("mid", Resolution(640, 360), fps=30.0, cumulative_bitrate_bps=350_000.0),
    SVCLayer("top", Resolution(1280, 720), fps=30.0, cumulative_bitrate_bps=740_000.0),
)


class SVCEncoder:
    """Hierarchical (layered) encoder with continuous rate matching."""

    def __init__(
        self,
        codec: CodecModel,
        layers: tuple[SVCLayer, ...] = DEFAULT_ZOOM_LAYERS,
        source: Optional[TalkingHeadSource] = None,
        keyframe_interval_s: float = 10.0,
    ) -> None:
        if not layers:
            raise ValueError("at least one SVC layer is required")
        self.codec = codec
        self.layers = tuple(sorted(layers, key=lambda l: l.cumulative_bitrate_bps))
        self.source = source or TalkingHeadSource()
        self.keyframe_interval_s = keyframe_interval_s
        self._target_bps = self.layers[-1].cumulative_bitrate_bps
        self._allocations: dict[str, float] = {}
        self._next_frame_at: dict[str, float] = {layer.name: 0.0 for layer in self.layers}
        self._last_emit_at: dict[str, float] = {}
        #: Per-layer ``(allocated rate, EncoderSettings)`` of the last frame:
        #: the QP only moves when the layer's allocation does, so the
        #: settings are rebuilt on a retarget rather than on every frame.
        self._layer_settings: dict[str, tuple[float, EncoderSettings]] = {}
        self._keyframe_pending = True
        self._last_keyframe_at = -1e9
        #: Per-instance frame-id allocator (see AdaptiveEncoder.frame_ids).
        self._frame_ids = itertools.count(10_000_000)
        #: See :attr:`repro.media.encoder.AdaptiveEncoder.on_timing_change`.
        self.on_timing_change: Optional[Callable[[], None]] = None
        self.set_target_bitrate(self._target_bps)

    # ----------------------------------------------------------------- API
    @property
    def nominal_bitrate_bps(self) -> float:
        """Total video bitrate when every layer is fully provisioned."""
        return self.layers[-1].cumulative_bitrate_bps

    @property
    def settings(self) -> EncoderSettings:
        """Operating point of the highest active layer (for sender stats)."""
        top = self._top_active_layer()
        rate = sum(self._allocations.values())
        qp = self.codec.qp_for_bitrate(top.resolution, top.fps, max(rate, 1.0))
        return EncoderSettings(resolution=top.resolution, fps=top.fps, qp=qp)

    def active_layers(self) -> dict[str, float]:
        """Mapping of active layer name to its allocated (incremental) bitrate."""
        return {name: rate for name, rate in self._allocations.items() if rate > 0.0}

    def layer_plan(self, target_bps: float) -> dict[str, float]:
        """Split ``target_bps`` into per-layer incremental rates.

        Layers activate in order; the highest active layer absorbs whatever
        budget remains above the cumulative rate of the layers below it.
        """
        allocations: dict[str, float] = {}
        target = max(target_bps, 0.0)
        previous_cumulative = 0.0
        for index, layer in enumerate(self.layers):
            increment = layer.cumulative_bitrate_bps - previous_cumulative
            if index == 0:
                # Base layer always stays on, possibly below its nominal rate.
                allocations[layer.name] = min(max(target, 60_000.0), increment)
            elif target >= previous_cumulative + 0.5 * increment:
                allocations[layer.name] = min(target - previous_cumulative, increment)
            else:
                allocations[layer.name] = 0.0
            previous_cumulative = layer.cumulative_bitrate_bps
        return allocations

    def set_target_bitrate(self, target_bps: float) -> None:
        """Re-plan the layer allocation for a new congestion-control target."""
        self._target_bps = max(target_bps, 0.0)
        self._allocations = self.layer_plan(self._target_bps)
        if self.on_timing_change is not None:
            self.on_timing_change()

    def next_due_time(self) -> float:
        """Earliest unquantised due time among the currently active layers."""
        return earliest_active_due(self.layers, self._allocations, self._next_frame_at)

    def reseed_frame_ids(self, start: int) -> None:
        """Restart the frame-id allocator at ``start`` (see AdaptiveEncoder)."""
        self._frame_ids = itertools.count(start)

    def request_keyframe(self, layer: Optional[str] = None) -> None:
        """Request that the next frames form a new decoder refresh point."""
        self._keyframe_pending = True

    def frames_due(self, now: float) -> list[EncodedFrame]:
        """Encode due frames for every active layer."""
        allocations = self._allocations
        next_frame_at = self._next_frame_at
        due_layers = [
            layer
            for layer in self.layers
            if allocations.get(layer.name, 0.0) > 0.0 and now + 1e-9 >= next_frame_at[layer.name]
        ]
        if not due_layers:
            return []
        keyframe = self._keyframe_pending or (
            now - self._last_keyframe_at >= self.keyframe_interval_s
        )
        frames: list[EncodedFrame] = []
        # The complexity process advances only at capture instants: drawing
        # it on no-op calls would make the RNG stream depend on how often the
        # sender *asks* (30 Hz polling vs analytic emission events), breaking
        # the pipelines' byte-identity whenever only a sub-30 fps layer is
        # active.
        complexity = self.source.complexity(now)
        last_emit_at = self._last_emit_at
        layer_settings = self._layer_settings
        frame_ids = self._frame_ids
        # The clamps below are written out with ``max``'s rule (keep the
        # first argument unless the second is greater): this runs once per
        # encoded frame.
        for layer in due_layers:
            name = layer.name
            rate = allocations[name]
            interval = 1.0 / layer.fps
            last_emit = last_emit_at.get(name)
            elapsed = now - last_emit if last_emit is not None else interval
            # Scale the frame to the time it actually covers so the realised
            # layer bitrate matches its allocation despite the sender's
            # polling-grid quantisation of emission times.
            covered = interval * 0.5
            if not covered > elapsed:
                covered = elapsed
            frame_bits = rate * covered * complexity
            if keyframe:
                frame_bits *= self.codec.keyframe_multiplier
            cached = layer_settings.get(name)
            if cached is None or cached[0] != rate:
                qp = self.codec.qp_for_bitrate(layer.resolution, layer.fps, max(rate, 1.0))
                cached = layer_settings[name] = (
                    rate,
                    EncoderSettings(resolution=layer.resolution, fps=layer.fps, qp=qp),
                )
            size_bytes = int(frame_bits / 8)
            if 150 > size_bytes:
                size_bytes = 150
            # Positional, in field order: keyword binding costs more.
            frames.append(
                EncodedFrame(next(frame_ids), now, size_bytes, cached[1], keyframe, name)
            )
            last_emit_at[name] = now
            due = next_frame_at[name] + interval
            floor = now - interval
            if floor > due:
                due = floor
            next_frame_at[name] = due
        if keyframe:
            self._keyframe_pending = False
            self._last_keyframe_at = now
        return frames

    # ------------------------------------------------------------- helpers
    def _top_active_layer(self) -> SVCLayer:
        top = self.layers[0]
        for layer in self.layers:
            if self._allocations.get(layer.name, 0.0) > 0.0:
                top = layer
        return top
