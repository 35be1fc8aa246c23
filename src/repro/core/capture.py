"""Passive packet capture and per-flow bitrate time series.

The paper's primary data source is traffic captured at the clients (the
emulated ``tcpdump``).  :class:`PacketCapture` attaches to a
:class:`~repro.net.node.Host` as a tap and bins transmitted / received bytes
per flow into fixed-width intervals; :class:`FlowSeries` then exposes the
bitrate time series and summary statistics every experiment in the paper is
computed from (median bitrate, average utilization, time-resolved traces for
the disruption and competition figures).

The per-packet path is the hottest non-engine code in a run, so
:class:`FlowSeries` accumulates into a flat array indexed by bin number
(one integer add per packet, no dict hashing) and the queries
(:meth:`FlowSeries.timeseries`, :meth:`FlowSeries.total_bytes`) are
vectorised numpy slices over that array.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.simulator import Simulator

__all__ = ["PacketCapture", "FlowSeries"]


class FlowSeries:
    """Binned byte counts for one (flow, direction) pair.

    Bytes are accumulated into ``_bins``, a flat array indexed by bin number
    (one integer add per packet, grown on demand); the queries
    (:meth:`timeseries`, :meth:`total_bytes`) are vectorised numpy slices
    over it.  ``bins`` exposes the legacy sparse-dict view for callers that
    want ``{bin_index: bytes}``.
    """

    __slots__ = ("flow_id", "direction", "bin_width_s", "_bins")

    def __init__(self, flow_id: str, direction: str, bin_width_s: float) -> None:
        self.flow_id = flow_id
        self.direction = direction
        self.bin_width_s = bin_width_s
        self._bins: list[int] = []

    @property
    def bins(self) -> Mapping[int, int]:
        """Sparse read-only ``{bin_index: byte_count}`` view of the accumulator.

        The view is built on access; writes raise instead of vanishing into a
        throwaway dict (accumulate through :meth:`add` / :meth:`merge`).
        """
        return MappingProxyType({index: size for index, size in enumerate(self._bins) if size})

    def add(self, time_s: float, size_bytes: int) -> None:
        index = int(time_s / self.bin_width_s)
        bins = self._bins
        try:
            bins[index] += size_bytes
        except IndexError:
            bins.extend([0] * (index + 1 - len(bins)))
            bins[index] += size_bytes

    def merge(self, other: "FlowSeries") -> None:
        """Add another series' byte counts into this one (same bin width)."""
        theirs = other._bins
        mine = self._bins
        if len(mine) < len(theirs):
            mine.extend([0] * (len(theirs) - len(mine)))
        for index, size in enumerate(theirs):
            if size:
                mine[index] += size

    def timeseries(self, start: float = 0.0, end: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (bin start times, bitrate in Mbps) over ``[start, end]``."""
        bins = self._bins
        if not bins:
            return np.array([]), np.array([])
        last_bin = len(bins) - 1
        end_bin = last_bin if end is None else int(end / self.bin_width_s)
        start_bin = int(start / self.bin_width_s)
        indices = np.arange(start_bin, end_bin + 1)
        times = indices * self.bin_width_s
        counts = np.zeros(indices.size, dtype=np.float64)
        lo = max(start_bin, 0)
        hi = min(end_bin, last_bin)
        if hi >= lo:
            counts[lo - start_bin : hi - start_bin + 1] = bins[lo : hi + 1]
        mbps = counts * 8 / self.bin_width_s / 1e6
        return times, mbps

    def total_bytes(self, start: float = 0.0, end: float = float("inf")) -> int:
        bins = self._bins
        if not bins:
            return 0
        starts = np.arange(len(bins)) * self.bin_width_s
        mask = (starts >= start) & (starts < end)
        return int(np.asarray(bins, dtype=np.int64)[mask].sum())

    def mean_mbps(self, start: float, end: float) -> float:
        """Average bitrate over a window (Mbps)."""
        duration = max(end - start, self.bin_width_s)
        return self.total_bytes(start, end) * 8 / duration / 1e6

    def median_mbps(self, start: float, end: float) -> float:
        """Median of the per-bin bitrates over a window (Mbps)."""
        _, series = self.timeseries(start, end)
        if series.size == 0:
            return 0.0
        return float(np.median(series))


class PacketCapture:
    """Taps one or more hosts and maintains per-flow bitrate series.

    Parameters
    ----------
    sim:
        The simulator (used only for timestamps).
    bin_width_s:
        Width of the aggregation bins; one second matches the paper's plots.
    kinds:
        Restrict capture to specific packet kinds (default: everything).
    """

    def __init__(
        self,
        sim: Simulator,
        bin_width_s: float = 1.0,
        kinds: Optional[Iterable[PacketKind]] = None,
    ) -> None:
        self.sim = sim
        self.bin_width_s = bin_width_s
        #: Allowed kinds as a frozenset of ints (PacketKind is an IntEnum),
        #: so the per-packet check is an int-hash membership test.
        self.kinds = frozenset(kinds) if kinds is not None else None
        self._series: dict[tuple[str, str, str], FlowSeries] = {}
        #: The same series per host as ``{direction: {flow_id: series}}``,
        #: which the per-packet tap reads without building a tuple key.
        self._by_host: dict[str, dict[str, dict[str, FlowSeries]]] = {}
        self._hosts: list[str] = []

    # -------------------------------------------------------------- wiring
    def attach(self, host: Host) -> None:
        """Start capturing at a host (both directions)."""
        self._hosts.append(host.name)
        by_direction = self._by_host.setdefault(host.name, {"tx": {}, "rx": {}})
        # functools.partial dispatches at C level; a lambda would add a
        # Python frame to every captured packet.
        host.taps.append(partial(self._record, host.name, by_direction))

    def _record(
        self,
        host_name: str,
        by_direction: dict[str, dict[str, FlowSeries]],
        direction: str,
        packet: Packet,
    ) -> None:
        if self.kinds is not None and packet.kind not in self.kinds:
            return
        flows = by_direction[direction]
        flow_id = packet.flow_id
        series = flows.get(flow_id)
        if series is None:
            series = flows[flow_id] = FlowSeries(flow_id, direction, self.bin_width_s)
            self._series[(host_name, direction, flow_id)] = series
        # Inlined FlowSeries.add: this is the per-packet hot path.
        index = int(self.sim._now / self.bin_width_s)
        bins = series._bins
        try:
            bins[index] += packet.size_bytes
        except IndexError:
            bins.extend([0] * (index + 1 - len(bins)))
            bins[index] += packet.size_bytes

    # ------------------------------------------------------------- queries
    def flow(self, host: str, direction: str, flow_id: str) -> FlowSeries:
        """The series for one flow at one host ('tx' or 'rx'); empty if unseen."""
        return self._series.get((host, direction, flow_id), FlowSeries(flow_id, direction, self.bin_width_s))

    def flows_at(self, host: str, direction: str) -> list[FlowSeries]:
        """All flow series captured at a host in one direction."""
        return [s for (h, d, _), s in self._series.items() if h == host and d == direction]

    def aggregate(
        self,
        host: str,
        direction: str,
        flow_prefix: str = "",
    ) -> FlowSeries:
        """Sum all flows at a host/direction whose id starts with ``flow_prefix``.

        This is how the paper computes a client's total upstream or
        downstream utilization regardless of how many RTP/RTCP/FEC streams
        the application multiplexes.
        """
        combined = FlowSeries(flow_id=f"{flow_prefix}*", direction=direction, bin_width_s=self.bin_width_s)
        for (h, d, flow_id), series in self._series.items():
            if h != host or d != direction or not flow_id.startswith(flow_prefix):
                continue
            combined.merge(series)
        return combined
