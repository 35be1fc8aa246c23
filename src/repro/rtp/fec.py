"""Forward error correction traffic.

Zoom protects its media with FEC both at the sender and -- according to the
patent the paper cites -- at the relay server, which regenerates repair data
for the downstream leg.  Two measured phenomena follow:

* downstream utilization exceeding upstream utilization for Zoom (Table 2),
  because the relay adds repair packets on the way down, and
* the redundancy-based probing behaviour modelled by
  :class:`~repro.cc.fbra.FBRAController`, which temporarily inflates the
  send rate with repair data to test for headroom.

:class:`FecGenerator` produces the repair packets for a group of media
packets; recovery bookkeeping (whether enough repair packets arrived to mask
a loss) is handled by the receiver in :mod:`repro.rtp.jitter`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.net.packet import FEC, RTP_HEADER_BYTES, UDP_IP_HEADER_BYTES, Packet

__all__ = ["FecGenerator"]


@dataclass
class FecGenerator:
    """Generates XOR-style repair packets covering groups of media packets."""

    flow_id: str
    src: str
    dst: str
    _group_ids: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)
    _seq: itertools.count = field(default_factory=lambda: itertools.count(1_000_000), repr=False)

    def protect(self, media_packets: list[Packet], ratio: float, now: float) -> list[Packet]:
        """Produce repair packets for ``media_packets``.

        ``ratio`` is the repair overhead as a fraction of the media packet
        count (e.g. 0.2 adds one repair packet for every five media packets).
        Repair packets are sized like the average media packet so the byte
        overhead matches the packet overhead.
        """
        if ratio <= 0.0 or not media_packets:
            return []
        count = max(int(math.ceil(len(media_packets) * ratio)), 1)
        group = next(self._group_ids)
        total = 0
        covered = []
        for p in media_packets:
            total += p.size_bytes
            covered.append(p.seq)
        size = max(int(total / len(media_packets)), RTP_HEADER_BYTES + UDP_IP_HEADER_BYTES + 64)
        # Built the way Packetizer.packetize does, skipping __init__ (the
        # size is at least the floor above, so its check could never fire).
        flow_id = self.flow_id
        src = self.src
        dst = self.dst
        seq = self._seq
        repairs: list[Packet] = []
        for index in range(count):
            packet: Packet = object.__new__(Packet)
            packet.size_bytes = size
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.kind = FEC
            packet.seq = next(seq)
            packet.created_at = now
            packet._meta = {"fec_group": group, "covers": covered, "repair_index": index}
            packet._packet_id = None
            packet.queueing_delay = 0.0
            repairs.append(packet)
        return repairs
