"""Shaped link model: the emulated equivalent of ``tc`` on the access link.

A :class:`Link` is unidirectional.  It models

* **serialization** at the link's current rate (the rate may be changed at
  any time by a :class:`~repro.net.shaper.LinkShaper`, which is how the
  paper's static shaping levels and 30-second transient drops are applied),
* a **drop-tail queue** bounded in bytes (the router's buffer), optionally
  policed by a CoDel-style AQM (:mod:`repro.netem.aqm`),
* fixed **propagation delay**, optionally perturbed by a per-packet jitter
  policy (:mod:`repro.netem.impairments`), and
* optional **random loss**: the original i.i.d. ``loss_rate`` float or a
  pluggable loss policy (e.g. Gilbert-Elliott burst loss).

All impairment hooks default to ``None``; a link without them is
byte-identical to the pre-netem engine at the same seed, and an
``IidLoss`` policy is unwrapped into the ``loss_rate`` float so the
degenerate case shares that guarantee.

Per-link counters (:class:`LinkStats`) record everything the analysis layer
needs: delivered/dropped packets and bytes, and a time series of queue
occupancy samples used to diagnose bufferbloat-style behaviour in the
competition experiments.

Scheduling
----------

Arrivals are FIFO and the propagation delay is fixed, so the whole life of a
packet on the link is computable at arrival time::

    start      = max(arrival, done of predecessor)   # service start
    done       = start + size_bits / current_rate    # serialization complete
    deliver_at = done + delay_s                      # at the sink

The link therefore keeps a pending deque of ``[arrival, start, done,
deliver_at, packet]`` records and **one** heap event per link -- the
delivery of the head record -- instead of one serialization plus one
propagation event per packet; every callback is a bound method, so no
closures are allocated on the data path.  Rate changes from the shaper
re-run the cascade over the records whose service has not started yet (the
packet in service keeps the rate it started with) and re-arm the delivery
event.  Queue occupancy is maintained lazily: a record occupies the queue
from arrival until its service start passes the clock.

Random loss is decided when the delivery event fires, one draw per
delivered packet in delivery order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.simulator import Simulator

__all__ = ["Link", "LinkStats", "DEFAULT_QUEUE_BYTES", "UNSET"]

#: Sentinel for :meth:`Link.configure_impairments`: "keep the current policy"
#: (as opposed to ``None``, which clears it).
UNSET = object()

#: Default queue size.  Roughly 64 KB, i.e. ~1 second of buffering at
#: 0.5 Mbps and ~50 ms at 10 Mbps -- consistent with the small CPE buffers of
#: the paper's Turris Omnia router.
DEFAULT_QUEUE_BYTES = 64_000

# Record field indices of the pending entries.
_ARRIVAL, _START, _DONE, _DELIVER, _PACKET = range(5)


@dataclass(slots=True)
class LinkStats:
    """Aggregate counters maintained by a :class:`Link`."""

    packets_sent: int = 0
    packets_dropped: int = 0
    packets_lost_random: int = 0
    #: Subset of ``packets_dropped`` decided by the AQM policy (not queue
    #: overflow); zero on drop-tail links.
    packets_dropped_aqm: int = 0
    bytes_sent: int = 0
    bytes_dropped: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets dropped at the queue."""
        offered = self.packets_sent + self.packets_dropped
        if offered == 0:
            return 0.0
        return self.packets_dropped / offered

    @property
    def tx_loss_rate(self) -> float:
        """Fraction of offered packets that never reached the sink.

        Counts both queue/AQM drops and random/impairment losses -- the
        tx-side loss a sender's traffic experienced on this link.
        """
        offered = self.packets_sent + self.packets_dropped
        if offered == 0:
            return 0.0
        return (self.packets_dropped + self.packets_lost_random) / offered


class Link:
    """A unidirectional, rate-limited, lossy link with a drop-tail queue.

    Parameters
    ----------
    sim:
        The shared simulator.
    name:
        Human-readable identifier, e.g. ``"c1-uplink"``.
    rate_bps:
        Initial capacity in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    queue_bytes:
        Buffer size of the drop-tail queue.
    loss_rate:
        Independent random loss probability applied to packets that survive
        the queue (models residual last-mile loss; zero by default because
        the paper's testbed used wired links).
    """

    __slots__ = (
        "sim",
        "name",
        "_rate_bps",
        "delay_s",
        "queue_bytes",
        "loss_rate",
        "stats",
        "_queued_bytes",
        "_sink",
        "on_drop",
        "_pending",
        "_waiting",
        "_delivery_seq",
        "loss_model",
        "jitter_model",
        "aqm",
        "_jitter_horizon",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay_s: float = 0.005,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        loss_rate: float = 0.0,
        loss_model=None,
        jitter_model=None,
        aqm=None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if delay_s < 0:
            raise ValueError("link delay must be non-negative")
        self.sim = sim
        self.name = name
        self._rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.queue_bytes = int(queue_bytes)
        self.loss_rate = float(loss_rate)
        self.stats = LinkStats()
        #: Impairment policies (see :mod:`repro.netem`); all off by default.
        if loss_model is not None and loss_rate > 0.0:
            # At construction the two loss configurations are ambiguous;
            # reconfiguration later replaces whatever is installed.
            raise ValueError("pass either loss_rate or a loss_model, not both")
        self.loss_model = None
        self.jitter_model = None
        self.aqm = None
        #: Monotonic floor on jittered delivery times (no reordering).
        self._jitter_horizon = 0.0
        self.configure_impairments(
            loss_model=loss_model if loss_model is not None else UNSET,
            jitter_model=jitter_model if jitter_model is not None else UNSET,
            aqm=aqm if aqm is not None else UNSET,
        )

        self._queued_bytes = 0
        self._sink: Optional[Callable[[Packet], None]] = None
        #: Per-packet ``[arrival, start, done, deliver_at, packet]``.
        self._pending: deque[list] = deque()
        #: ``(service_start, size)`` of records still in the queue.
        self._waiting: deque[tuple[float, int]] = deque()
        #: Sequence number of the armed delivery event (None when idle).
        self._delivery_seq: Optional[int] = None
        #: Called with a dropped packet; congestion controllers of locally
        #: originated traffic (e.g. a sender's own uplink) may subscribe to
        #: model immediate local loss detection, but by default losses are
        #: only observed end-to-end.
        self.on_drop: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------ API
    def configure_impairments(self, loss_model=UNSET, jitter_model=UNSET, aqm=UNSET) -> None:
        """Install, replace, or clear the link's impairment policies.

        Each argument left unset keeps the current policy; passing ``None``
        clears it, passing a policy replaces it.  A ``loss_model`` replaces
        the link's *whole* loss configuration (including any previously set
        ``loss_rate``): an :class:`~repro.netem.impairments.IidLoss` unwraps
        into the ``loss_rate`` float fast path, so the degenerate policy is
        byte-identical to the pre-netem engine at the same seed, any other
        model zeroes the float, and ``None`` clears both.
        """
        if loss_model is not UNSET:
            if loss_model is None:
                self.loss_model = None
                self.loss_rate = 0.0
            else:
                iid_rate = getattr(loss_model, "iid_rate", None)
                if iid_rate is not None:
                    # Degenerate case: one rng.random() draw per delivered
                    # packet (none at rate zero), exactly the float behaviour.
                    self.loss_rate = float(iid_rate)
                    self.loss_model = None
                else:
                    self.loss_rate = 0.0
                    self.loss_model = loss_model
        if jitter_model is not UNSET:
            self.jitter_model = jitter_model
        if aqm is not UNSET:
            self.aqm = aqm

    @property
    def rate_bps(self) -> float:
        """Current capacity in bits per second."""
        return self._rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the link capacity (the emulated ``tc class change``).

        The serialization cascade of every not-yet-started packet is
        recomputed at the new rate (the packet in service keeps the rate it
        started with) and the delivery event is re-armed.
        """
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if float(rate_bps) == self._rate_bps:
            return
        self._rate_bps = float(rate_bps)
        if not self._pending:
            return
        sim = self.sim
        now = sim._now
        rate = self._rate_bps
        delay = self.delay_s
        prev_done: Optional[float] = None
        waiting: deque[tuple[float, int]] = deque()
        changed = False
        for record in self._pending:
            if record[_START] <= now and not changed:
                # Already in (or past) service: keep its schedule.
                prev_done = record[_DONE]
                continue
            start = record[_ARRIVAL] if prev_done is None or prev_done < record[_ARRIVAL] else prev_done
            size = record[_PACKET].size_bytes
            record[_START] = start
            record[_DONE] = done = start + size * 8 / rate
            record[_DELIVER] = done + delay
            prev_done = done
            changed = True
            if start > now:
                waiting.append((start, size))
        if not changed:
            return
        # Queue-occupancy bookkeeping follows the recomputed service starts.
        self._waiting = waiting
        self._queued_bytes = sum(size for _, size in waiting)
        if self._delivery_seq is not None:
            sim.cancel_seq(self._delivery_seq)
        sim._seq = seq = sim._seq + 1
        self._delivery_seq = seq
        heappush(sim._queue, (self._pending[0][_DELIVER], seq, self._deliver_due))

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Attach the downstream consumer (next link hop or receiving host)."""
        self._sink = sink

    # ------------------------------------------------------------ occupancy
    def _advance(self, now: float) -> None:
        """Release queue occupancy of records whose service has started."""
        waiting = self._waiting
        queued = self._queued_bytes
        while waiting and waiting[0][0] <= now:
            queued -= waiting.popleft()[1]
        self._queued_bytes = queued

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the queue (excludes the packet in service)."""
        self._advance(self.sim._now)
        return self._queued_bytes

    def queueing_delay_estimate(self) -> float:
        """Expected delay a newly arriving packet would see from the backlog."""
        return (self.queued_bytes * 8) / self._rate_bps

    # ------------------------------------------------------------ data path
    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to the link.

        The packet is dropped if the queue has no room (drop-tail); otherwise
        it is enqueued and will be serialized at the link's current rate.
        """
        if self._sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sim = self.sim
        now = sim._now
        size = packet.size_bytes
        aqm = self.aqm
        waiting = self._waiting
        queued = self._queued_bytes
        while waiting and waiting[0][0] <= now:
            queued -= waiting.popleft()[1]
        if aqm is not None and aqm.should_drop(now, (queued * 8) / self._rate_bps):
            self._queued_bytes = queued
            self._drop(packet, size, aqm=True)
            return
        if queued + size > self.queue_bytes:
            self._queued_bytes = queued
            self._drop(packet, size)
            return
        pending = self._pending
        if pending:
            prev_done = pending[-1][_DONE]
            start = prev_done if prev_done > now else now
        else:
            start = now
        done = start + size * 8 / self._rate_bps
        deliver_at = done + self.delay_s
        pending.append([now, start, done, deliver_at, packet])
        if start > now:
            waiting.append((start, size))
            queued += size
        self._queued_bytes = queued
        if self._delivery_seq is None:
            sim._seq = seq = sim._seq + 1
            self._delivery_seq = seq
            heappush(sim._queue, (deliver_at, seq, self._deliver_due))

    def send_batch(self, packets) -> None:
        """Offer a whole packet train to the link in one transaction.

        The serialization cascade of the train is computed in a single pass
        (one queue-occupancy advance, at most one delivery-event arm) and is
        identical to calling :meth:`send` once per packet in order.
        """
        if self._sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sim = self.sim
        now = sim._now
        waiting = self._waiting
        queued = self._queued_bytes
        while waiting and waiting[0][0] <= now:
            queued -= waiting.popleft()[1]
        pending = self._pending
        prev_done = pending[-1][_DONE] if pending else None
        rate = self._rate_bps
        delay = self.delay_s
        queue_limit = self.queue_bytes
        aqm = self.aqm
        first_deliver: Optional[float] = None
        for packet in packets:
            size = packet.size_bytes
            if aqm is not None and aqm.should_drop(now, (queued * 8) / rate):
                self._drop(packet, size, aqm=True)
                continue
            if queued + size > queue_limit:
                self._drop(packet, size)
                continue
            start = prev_done if prev_done is not None and prev_done > now else now
            done = start + size * 8 / rate
            deliver_at = done + delay
            pending.append([now, start, done, deliver_at, packet])
            if start > now:
                waiting.append((start, size))
                queued += size
            prev_done = done
            if first_deliver is None:
                first_deliver = deliver_at
        self._queued_bytes = queued
        if first_deliver is not None and self._delivery_seq is None:
            sim._seq = seq = sim._seq + 1
            self._delivery_seq = seq
            heappush(sim._queue, (pending[0][_DELIVER], seq, self._deliver_due))

    def _drop(self, packet: Packet, size: int, aqm: bool = False) -> None:
        self.stats.packets_dropped += 1
        self.stats.bytes_dropped += size
        if aqm:
            self.stats.packets_dropped_aqm += 1
        if self.on_drop is not None:
            self.on_drop(packet)

    def _deliver_jittered(self, packet: Packet, base_at: float) -> None:
        """Deliver through the jitter policy (impairment path only).

        ``base_at`` is the unjittered absolute delivery time; the extra
        delay is clamped so deliveries stay monotonic per link -- jitter
        widens inter-arrival gaps but never reorders packets.
        """
        sim = self.sim
        extra = self.jitter_model.sample(sim.rng)
        deliver_at = base_at + extra
        if deliver_at < self._jitter_horizon:
            deliver_at = self._jitter_horizon
        else:
            self._jitter_horizon = deliver_at
        sink = self._sink
        sim.call_at(deliver_at, lambda p=packet: sink(p))

    def _deliver_due(self) -> None:
        sim = self.sim
        now = sim._now
        pending = self._pending
        stats = self.stats
        sink = self._sink
        loss_rate = self.loss_rate
        loss_model = self.loss_model
        jitter = self.jitter_model
        # Most links have no loss or jitter policy: test that once per event.
        impaired = loss_model is not None or loss_rate > 0.0 or jitter is not None
        while pending and pending[0][_DELIVER] <= now:
            arrival, start, _done, _deliver_at, packet = pending.popleft()
            stats.packets_sent += 1
            stats.bytes_sent += packet.size_bytes
            if start > arrival:
                packet.queueing_delay += start - arrival
            if not impaired:
                sink(packet)  # type: ignore[misc]
                continue
            if loss_model is not None:
                lost = loss_model.sample(sim.rng)
            else:
                lost = loss_rate > 0.0 and sim.rng.random() < loss_rate
            if lost:
                stats.packets_lost_random += 1
            elif jitter is None:
                sink(packet)  # type: ignore[misc]
            else:
                self._deliver_jittered(packet, now)
        if pending:
            sim._seq = seq = sim._seq + 1
            self._delivery_seq = seq
            heappush(sim._queue, (pending[0][_DELIVER], seq, self._deliver_due))
        else:
            self._delivery_seq = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, rate={self._rate_bps / 1e6:.2f} Mbps, "
            f"queue={self.queued_bytes}/{self.queue_bytes} B)"
        )
