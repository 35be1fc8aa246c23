"""Packet forwarding elements: the emulated home router, switch and WAN core.

The paper's findings are entirely driven by the *shaped access link*; every
other hop in their testbed (the campus network, the VCA provider's data
centre) is effectively unconstrained.  The :class:`Router` therefore supports
two kinds of forwarding entries:

* a **link route**, which hands the packet to a :class:`~repro.net.link.Link`
  (used for the shaped access / bottleneck links where queueing matters), and
* a **delay route**, which delivers the packet to the next node after a fixed
  propagation delay without serialization or queueing (used for the
  unconstrained WAN path, keeping the event count low so large parameter
  sweeps stay fast).

Delay routes are implemented by :class:`DelayPipe`: because the delay is
fixed, deliveries are FIFO, so the pipe keeps a pending deque and at most one
event in the simulator's heap (re-armed when it fires) instead of scheduling
one closure-carrying event per packet.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Iterable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator

__all__ = ["Router", "ForwardingEntry", "DelayPipe", "DelayBus", "SourceRoutedEgress"]


class DelayPipe:
    """Fixed-delay, infinite-capacity FIFO delivery to a receiver callable.

    The emulated unconstrained WAN/LAN hop: packets come out ``delay_s``
    after they went in, in order.  A single in-heap event serves the whole
    pipe; every firing delivers all packets whose time has been reached and
    re-arms for the next pending one.  With ``delay_s == 0`` the pipe
    degenerates to a direct call.

    A packet train entering through :meth:`send_batch` stays one transit
    record end to end: since every packet of the train shares the same
    delivery time, the whole train is handed to ``receiver_batch`` (when the
    downstream hop supports batches) in a single call.
    """

    __slots__ = ("sim", "delay_s", "receiver", "receiver_batch", "_transit", "_pending")

    def __init__(
        self,
        sim: Simulator,
        receiver: Callable[[Packet], None],
        delay_s: float = 0.0,
        receiver_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        self.sim = sim
        self.receiver = receiver
        self.receiver_batch = receiver_batch
        self.delay_s = float(delay_s)
        #: Pending deliveries: ``(deliver_at, Packet | list[Packet])``.
        self._transit: deque[tuple[float, object]] = deque()
        self._pending = False

    def send(self, packet: Packet) -> None:
        """Accept a packet for delivery ``delay_s`` seconds from now."""
        if self.delay_s <= 0.0:
            self.receiver(packet)
            return
        sim = self.sim
        deliver_at = sim._now + self.delay_s
        self._transit.append((deliver_at, packet))
        if not self._pending:
            self._pending = True
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (deliver_at, seq, self._deliver_due))

    def send_batch(self, packets: list) -> None:
        """Accept a packet train for delivery as one transit record."""
        if not packets:
            return
        if packets.__class__ is not list:
            # Transit records distinguish trains from single packets by
            # ``is list``; normalise tuples and other sequences.
            packets = list(packets)
        if self.delay_s <= 0.0:
            if self.receiver_batch is not None:
                self.receiver_batch(packets)
            else:
                receiver = self.receiver
                for packet in packets:
                    receiver(packet)
            return
        sim = self.sim
        deliver_at = sim._now + self.delay_s
        self._transit.append((deliver_at, packets))
        if not self._pending:
            self._pending = True
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (deliver_at, seq, self._deliver_due))

    def _deliver_item(self, item) -> None:
        if item.__class__ is list:
            if self.receiver_batch is not None:
                self.receiver_batch(item)
            else:
                receiver = self.receiver
                for packet in item:
                    receiver(packet)
        else:
            self.receiver(item)

    def _deliver_due(self) -> None:
        sim = self.sim
        now = sim._now
        transit = self._transit
        receiver = self.receiver
        item = transit.popleft()[1]
        if item.__class__ is list:
            self._deliver_item(item)
        else:
            receiver(item)
        while transit and transit[0][0] <= now:
            item = transit.popleft()[1]
            if item.__class__ is list:
                self._deliver_item(item)
            else:
                receiver(item)
        if transit:
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (transit[0][0], seq, self._deliver_due))
        else:
            self._pending = False


class DelayBus:
    """One-event FIFO delivering ``(callable, item)`` records after a shared delay.

    Several same-delay destinations multiplexed over one transit deque and at
    most one in-heap event.  This is the delivery engine of
    :class:`SourceRoutedEgress`: a media server fanning a frame out to every
    receiver pays one heap event per emission instant instead of one per
    destination pipe, because all its destination paths share the same
    data-centre + WAN delay.
    """

    __slots__ = ("sim", "delay_s", "_transit", "_pending")

    def __init__(self, sim: Simulator, delay_s: float) -> None:
        if delay_s <= 0.0:
            raise ValueError("DelayBus requires a positive delay")
        self.sim = sim
        self.delay_s = float(delay_s)
        #: Pending deliveries: ``(deliver_at, deliver_fn, item)``.
        self._transit: deque[tuple[float, Callable, object]] = deque()
        self._pending = False

    def push(self, deliver_fn: Callable, item) -> None:
        """Schedule ``deliver_fn(item)`` ``delay_s`` seconds from now."""
        sim = self.sim
        deliver_at = sim._now + self.delay_s
        self._transit.append((deliver_at, deliver_fn, item))
        if not self._pending:
            self._pending = True
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (deliver_at, seq, self._deliver_due))

    def _deliver_due(self) -> None:
        sim = self.sim
        now = sim._now
        transit = self._transit
        record = transit.popleft()
        record[1](record[2])
        while transit and transit[0][0] <= now:
            record = transit.popleft()
            record[1](record[2])
        if transit:
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (transit[0][0], seq, self._deliver_due))
        else:
            self._pending = False


class SourceRoutedEgress:
    """Host egress that resolves the destination at send time.

    The hop-by-hop path of the access topology (egress pipe -> core router ->
    destination pipe) is semantically a fixed total delay for every
    delay-only destination.  This egress looks the destination up once at
    send time and delivers over a single-event :class:`DelayBus` with the
    summed path delay -- identical arrival times and per-flow ordering, half
    the heap events and none of the per-hop dispatch.  Destinations that are
    not registered (e.g. behind a shaped link or another router) fall back to
    the original hop-by-hop path.

    A media server's whole fan-out burst enters through :meth:`send_trains`
    and rides a single bus record, delivered train by train in send order.
    """

    __slots__ = ("bus", "_routes", "_routes_batch", "_fallback", "_fallback_batch")

    def __init__(
        self,
        sim: Simulator,
        delay_s: float,
        fallback: Callable[[Packet], None],
        fallback_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        self.bus = DelayBus(sim, delay_s)
        self._routes: dict[str, Callable[[Packet], None]] = {}
        self._routes_batch: dict[str, Callable[[list], None]] = {}
        self._fallback = fallback
        self._fallback_batch = fallback_batch

    def add_route(
        self,
        dst: str,
        receiver: Callable[[Packet], None],
        receiver_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        """Register a destination deliverable at the bus's total path delay."""
        self._routes[dst] = receiver
        if receiver_batch is None:
            def receiver_batch(packets, _receiver=receiver):  # type: ignore[misc]
                for packet in packets:
                    _receiver(packet)

        self._routes_batch[dst] = receiver_batch

    def send(self, packet: Packet) -> None:
        receiver = self._routes.get(packet.dst)
        if receiver is None:
            self._fallback(packet)
        else:
            self.bus.push(receiver, packet)

    def send_batch(self, packets: list) -> None:
        if not packets:
            return
        dst = packets[0].dst
        for packet in packets:
            if packet.dst != dst:
                # Mixed-destination train (not produced by the media path).
                for item in packets:
                    self.send(item)
                return
        receiver_batch = self._routes_batch.get(dst)
        if receiver_batch is None:
            if self._fallback_batch is not None:
                self._fallback_batch(packets)
            else:
                fallback = self._fallback
                for packet in packets:
                    fallback(packet)
            return
        if packets.__class__ is not list:
            packets = list(packets)
        self.bus.push(receiver_batch, packets)

    def send_trains(self, outbound: Iterable[list]) -> None:
        """Send a fan-out burst: ``[size_total, train]`` entries, one destination each.

        Every bus-routed train joins one ``(receiver_batch, train)`` record,
        pushed when the first such train is seen -- the point where a
        per-train :meth:`send_batch` would have pushed (and armed the bus) --
        so heap sequence numbers and delivery order are unchanged.  Trains to
        unregistered destinations take :meth:`send_batch`'s fallback in place.
        """
        routes = self._routes_batch
        record: Optional[list] = None
        for _size, packets in outbound:
            receiver_batch = routes.get(packets[0].dst)
            if receiver_batch is None:
                self.send_batch(packets)
            elif record is None:
                record = [(receiver_batch, packets)]
                self.bus.push(_deliver_trains, record)
            else:
                record.append((receiver_batch, packets))


def _deliver_trains(record: list) -> None:
    """Deliver a :meth:`SourceRoutedEgress.send_trains` bus record, train by train."""
    for receiver_batch, packets in record:
        receiver_batch(packets)


class ForwardingEntry:
    """One routing-table entry: either a link hop or a pure-delay hop."""

    __slots__ = ("link", "next_hop", "delay_s", "_pipe")

    def __init__(
        self,
        link: Optional[Link] = None,
        next_hop: Optional[Callable[[Packet], None]] = None,
        delay_s: float = 0.0,
        sim: Optional[Simulator] = None,
        next_hop_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        self.link = link
        self.next_hop = next_hop
        self.delay_s = delay_s
        self._pipe: Optional[DelayPipe] = None
        if link is None and next_hop is not None and delay_s > 0 and sim is not None:
            self._pipe = DelayPipe(sim, next_hop, delay_s, receiver_batch=next_hop_batch)

    def forward(self, sim: Simulator, packet: Packet) -> None:
        if self.link is not None:
            self.link.send(packet)
            return
        pipe = self._pipe
        if pipe is not None:
            pipe.send(packet)
            return
        assert self.next_hop is not None
        if self.delay_s > 0:
            # Entry built without a simulator reference: fall back to a
            # one-off event (rare; only hand-constructed entries hit this).
            sim.schedule(self.delay_s, lambda p=packet: self.next_hop(p))  # type: ignore[misc]
        else:
            self.next_hop(packet)


class Router:
    """A forwarding element with a destination-keyed routing table.

    The routing table is kept twice: ``_routes`` holds the descriptive
    :class:`ForwardingEntry` objects, and ``_dispatch`` maps each destination
    straight to the callable that moves the packet (``link.send``,
    ``pipe.send`` or the receiver itself), so the per-packet path is a dict
    lookup plus one call with no intermediate dispatch frames.
    """

    __slots__ = (
        "sim",
        "name",
        "_routes",
        "_dispatch",
        "_dispatch_batch",
        "_default",
        "_default_dispatch",
        "_default_dispatch_batch",
        "packets_forwarded",
    )

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._routes: dict[str, ForwardingEntry] = {}
        self._dispatch: dict[str, Callable[[Packet], None]] = {}
        self._dispatch_batch: dict[str, Callable[[list], None]] = {}
        self._default: Optional[ForwardingEntry] = None
        self._default_dispatch: Optional[Callable[[Packet], None]] = None
        self._default_dispatch_batch: Optional[Callable[[list], None]] = None
        self.packets_forwarded = 0

    # ----------------------------------------------------------- config
    @staticmethod
    def _entry_dispatch(entry: ForwardingEntry) -> Callable[[Packet], None]:
        if entry.link is not None:
            return entry.link.send
        if entry._pipe is not None:
            return entry._pipe.send
        assert entry.next_hop is not None
        return entry.next_hop

    @staticmethod
    def _entry_dispatch_batch(
        entry: ForwardingEntry, receiver_batch: Optional[Callable[[list], None]] = None
    ) -> Optional[Callable[[list], None]]:
        if entry.link is not None:
            return entry.link.send_batch
        if entry._pipe is not None:
            return entry._pipe.send_batch
        return receiver_batch

    def add_link_route(self, dst: str, link: Link) -> None:
        """Route packets destined to ``dst`` onto ``link``."""
        entry = ForwardingEntry(link=link)
        self._routes[dst] = entry
        self._dispatch[dst] = self._entry_dispatch(entry)
        self._dispatch_batch[dst] = link.send_batch

    def add_delay_route(
        self,
        dst: str,
        receiver: Callable[[Packet], None],
        delay_s: float = 0.0,
        receiver_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        """Route packets destined to ``dst`` straight to ``receiver`` after a delay."""
        entry = ForwardingEntry(
            next_hop=receiver, delay_s=delay_s, sim=self.sim, next_hop_batch=receiver_batch
        )
        self._routes[dst] = entry
        self._dispatch[dst] = self._entry_dispatch(entry)
        batch = self._entry_dispatch_batch(entry, receiver_batch)
        if batch is not None:
            self._dispatch_batch[dst] = batch

    def set_default_link(self, link: Link) -> None:
        """Default route over a link (e.g. 'everything else goes upstream')."""
        self._default = ForwardingEntry(link=link)
        self._default_dispatch = self._entry_dispatch(self._default)
        self._default_dispatch_batch = link.send_batch

    def set_default_delay_route(
        self,
        receiver: Callable[[Packet], None],
        delay_s: float = 0.0,
        receiver_batch: Optional[Callable[[list], None]] = None,
    ) -> None:
        """Default route delivered after a fixed delay."""
        self._default = ForwardingEntry(
            next_hop=receiver, delay_s=delay_s, sim=self.sim, next_hop_batch=receiver_batch
        )
        self._default_dispatch = self._entry_dispatch(self._default)
        self._default_dispatch_batch = self._entry_dispatch_batch(self._default, receiver_batch)

    # --------------------------------------------------------- data path
    def receive(self, packet: Packet) -> None:
        """Forward a packet according to the routing table."""
        handler = self._dispatch.get(packet.dst, self._default_dispatch)
        if handler is None:
            raise RuntimeError(
                f"router {self.name!r} has no route for destination {packet.dst!r}"
            )
        self.packets_forwarded += 1
        handler(packet)

    def receive_batch(self, packets: list) -> None:
        """Forward a packet train (single destination per train) in one call.

        Trains produced by the media pipeline are single-destination by
        construction; a mixed train is split into per-destination runs so
        behaviour matches per-packet forwarding exactly.
        """
        if not packets:
            return
        dst = packets[0].dst
        for packet in packets[1:]:
            if packet.dst != dst:
                # Mixed train (not produced by the media path): fall back.
                for item in packets:
                    self.receive(item)
                return
        self.packets_forwarded += len(packets)
        handler = self._dispatch_batch.get(dst)
        if handler is not None:
            handler(packets)
            return
        single = self._dispatch.get(dst)
        if single is None:
            if self._default_dispatch_batch is not None:
                self._default_dispatch_batch(packets)
                return
            single = self._default_dispatch
            if single is None:
                raise RuntimeError(
                    f"router {self.name!r} has no route for destination {dst!r}"
                )
        for packet in packets:
            single(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router({self.name!r}, routes={sorted(self._routes)})"
