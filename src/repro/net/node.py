"""End hosts of the emulated testbed.

A :class:`Host` corresponds to one of the paper's machines: the VCA clients
C1 and C2, the competing-flow machines F1 and F2, or a media/iPerf server.
Hosts do two things:

* **send** packets into the network through their egress (the first hop the
  topology wired up for them), and
* **receive** packets and dispatch them to the application flow they belong
  to (looked up by ``flow_id``), the same way the kernel demultiplexes
  sockets on the real machines.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Sequence

from repro.net.packet import Packet
from repro.net.simulator import Simulator

__all__ = ["Host"]


class Host:
    """An endpoint machine in the emulated testbed.

    Besides the per-packet :meth:`send` / :meth:`receive` pair, hosts carry a
    batched path (:meth:`send_batch` / :meth:`receive_batch`) used by the
    event-driven media pipeline: a packetized frame burst traverses the stack
    as one Python call per hop instead of one call per packet.  Both paths
    produce identical timestamps, counters and tap invocations; the batch
    variants only amortize interpreter dispatch.

    Media-plane contract of the batched path: a forwarded train has a single
    destination and a single flow, and every flow's batch handler given a
    one-packet train behaves exactly like its single-packet handler.
    """

    __slots__ = (
        "sim",
        "name",
        "_egress",
        "_egress_batch",
        "_egress_trains",
        "_flow_handlers",
        "_flow_batch_handlers",
        "_default_handler",
        "_default_batch_handler",
        "bytes_sent",
        "bytes_received",
        "packets_sent",
        "packets_received",
        "taps",
    )

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._egress: Optional[Callable[[Packet], None]] = None
        self._egress_batch: Optional[Callable[[Sequence[Packet]], None]] = None
        self._egress_trains: Optional[Callable[[Collection[list]], None]] = None
        self._flow_handlers: dict[str, Callable[[Packet], None]] = {}
        self._flow_batch_handlers: dict[str, Callable[[Sequence[Packet]], None]] = {}
        self._default_handler: Optional[Callable[[Packet], None]] = None
        self._default_batch_handler: Optional[Callable[[Sequence[Packet]], None]] = None
        #: Per-host counters mirroring ``ifconfig``-style statistics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.packets_received = 0
        #: Optional packet capture taps (the emulated ``tcpdump``).  Each tap
        #: is called with ("tx"|"rx", packet).
        self.taps: list[Callable[[str, Packet], None]] = []

    # ------------------------------------------------------------ wiring
    def set_egress(
        self,
        egress: Callable[[Packet], None],
        batch: Optional[Callable[[Sequence[Packet]], None]] = None,
        trains: Optional[Callable[[Collection[list]], None]] = None,
    ) -> None:
        """Attach the first-hop send function (done by the topology builder).

        ``batch``, when provided, accepts a whole packet train in one call
        (``Link.send_batch`` / ``DelayPipe.send_batch``); without it,
        :meth:`send_batch` falls back to per-packet egress.  ``trains``, when
        provided, accepts every train of one forwarded burst in one call
        (``SourceRoutedEgress.send_trains``); without it,
        :meth:`send_forwarded_trains` sends the trains one at a time.
        """
        self._egress = egress
        self._egress_batch = batch
        self._egress_trains = trains

    def register_flow(
        self,
        flow_id: str,
        handler: Callable[[Packet], None],
        batch_handler: Optional[Callable[[Sequence[Packet]], None]] = None,
    ) -> None:
        """Register the receive handler for a flow terminating at this host."""
        if flow_id in self._flow_handlers:
            raise ValueError(f"flow {flow_id!r} already registered on {self.name}")
        self._flow_handlers[flow_id] = handler
        if batch_handler is not None:
            self._flow_batch_handlers[flow_id] = batch_handler

    def set_default_handler(
        self,
        handler: Callable[[Packet], None],
        batch_handler: Optional[Callable[[Sequence[Packet]], None]] = None,
    ) -> None:
        """Handler for packets whose flow has no dedicated handler."""
        self._default_handler = handler
        self._default_batch_handler = batch_handler

    # --------------------------------------------------------- data path
    def send(self, packet: Packet) -> None:
        """Hand a packet to the network.

        ``created_at`` is only stamped if the packet does not already carry a
        timestamp: a media server forwarding a packet keeps the original
        capture timestamp so receivers observe *end-to-end* one-way delay,
        exactly what the real clients' RTCP feedback reflects.
        """
        if self._egress is None:
            raise RuntimeError(f"host {self.name!r} has no egress configured")
        packet.src = self.name
        if packet.created_at == 0.0:
            packet.created_at = self.sim._now
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        if self.taps:
            for tap in self.taps:
                tap("tx", packet)
        self._egress(packet)

    def send_batch(self, packets: Sequence[Packet]) -> None:
        """Hand a train of packets to the network in one transaction.

        Stamping, counters and taps are identical to calling :meth:`send`
        once per packet; the egress hop is entered once for the whole train
        when the first hop supports batches.
        """
        if not packets:
            return
        if self._egress is None:
            raise RuntimeError(f"host {self.name!r} has no egress configured")
        name = self.name
        now = self.sim._now
        taps = self.taps
        size_total = 0
        for packet in packets:
            packet.src = name
            if packet.created_at == 0.0:
                packet.created_at = now
            size_total += packet.size_bytes
            if taps:
                for tap in taps:
                    tap("tx", packet)
        self.bytes_sent += size_total
        self.packets_sent += len(packets)
        egress_batch = self._egress_batch
        if egress_batch is not None:
            egress_batch(packets)
        else:
            egress = self._egress
            for packet in packets:
                egress(packet)

    def send_forwarded_batch(self, packets: Sequence[Packet], size_total: int) -> None:
        """Send a train of already-stamped forwarded copies.

        The media server constructs every copy with this host as ``src`` and
        a propagated ``created_at``, and it has the train's byte total from
        its own accounting, so the per-packet stamping pass of
        :meth:`send_batch` is redundant; taps still see every packet.
        """
        if not packets:
            return
        egress_batch = self._egress_batch
        if egress_batch is None and self._egress is None:
            raise RuntimeError(f"host {self.name!r} has no egress configured")
        if self.taps:
            taps = self.taps
            for packet in packets:
                for tap in taps:
                    tap("tx", packet)
        self.bytes_sent += size_total
        self.packets_sent += len(packets)
        if egress_batch is not None:
            egress_batch(packets)
        else:
            egress = self._egress
            for packet in packets:
                egress(packet)

    def send_forwarded_trains(self, outbound: Collection[list]) -> None:
        """Send one forwarded burst: several non-empty trains, one per destination.

        Each entry of ``outbound`` is ``[size_total, packets]`` as the media
        server accumulates it.  Taps and counters see the trains in order,
        exactly as one :meth:`send_forwarded_batch` call per train would;
        an egress that takes whole bursts then receives them in one call.
        Taps only record, so running them all before the egress is
        indistinguishable from interleaving them with per-train sends.
        """
        send_trains = self._egress_trains
        if send_trains is None:
            for size_total, packets in outbound:
                self.send_forwarded_batch(packets, size_total)
            return
        taps = self.taps
        bytes_sent = 0
        packets_sent = 0
        for size_total, packets in outbound:
            if taps:
                for packet in packets:
                    for tap in taps:
                        tap("tx", packet)
            bytes_sent += size_total
            packets_sent += len(packets)
        self.bytes_sent += bytes_sent
        self.packets_sent += packets_sent
        send_trains(outbound)

    def receive(self, packet: Packet) -> None:
        """Deliver a packet arriving from the network to its flow handler."""
        self.bytes_received += packet.size_bytes
        self.packets_received += 1
        if self.taps:
            for tap in self.taps:
                tap("rx", packet)
        handler = self._flow_handlers.get(packet.flow_id, self._default_handler)
        if handler is not None:
            handler(packet)

    def receive_batch(self, packets: Sequence[Packet]) -> None:
        """Deliver a train of packets arriving together from the network.

        Trains produced by the media pipeline are single-flow; one pass sums
        the byte counters and checks flow homogeneity, then the train is
        handed to the flow's batch handler in a single call.  Mixed-flow
        trains fall back to runs of consecutive identical flow ids so handler
        semantics match per-packet delivery exactly.  A one-packet train
        (most forwarded audio) goes straight to the flow's single-packet
        handler with exactly :meth:`receive`'s counters and taps, inlined
        because it is the most frequent delivery of a multi-party call.
        """
        n = len(packets)
        if n == 1:
            packet = packets[0]
            self.bytes_received += packet.size_bytes
            self.packets_received += 1
            if self.taps:
                for tap in self.taps:
                    tap("rx", packet)
            handler = self._flow_handlers.get(packet.flow_id, self._default_handler)
            if handler is not None:
                handler(packet)
            return
        if not n:
            return
        flow_id = packets[0].flow_id
        size_total = 0
        uniform = True
        for packet in packets:
            size_total += packet.size_bytes
            if packet.flow_id != flow_id:
                uniform = False
        if self.taps:
            taps = self.taps
            for packet in packets:
                for tap in taps:
                    tap("rx", packet)
        self.bytes_received += size_total
        self.packets_received += len(packets)
        if uniform:
            self._dispatch_run(flow_id, packets)
            return
        start = 0
        while start < n:
            flow_id = packets[start].flow_id
            end = start + 1
            while end < n and packets[end].flow_id == flow_id:
                end += 1
            self._dispatch_run(flow_id, packets[start:end])
            start = end

    def _dispatch_run(self, flow_id: str, run: Sequence[Packet]) -> None:
        handlers = self._flow_handlers
        if flow_id in handlers:
            batch_handler = self._flow_batch_handlers.get(flow_id)
            if batch_handler is not None:
                batch_handler(run)
            else:
                handler = handlers[flow_id]
                for packet in run:
                    handler(packet)
        elif self._default_batch_handler is not None:
            self._default_batch_handler(run)
        elif self._default_handler is not None:
            handler = self._default_handler
            for packet in run:
                handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r})"
