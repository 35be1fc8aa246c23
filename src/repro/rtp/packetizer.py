"""RTP packetization of encoded media.

Encoded frames larger than the path MTU are fragmented into multiple RTP
packets; every packet carries the frame id and the total fragment count so
the receiver can reassemble frames and detect losses the way the paper's
analysis does from packet captures.

The event-driven media pipeline emits whole frame *bursts* (every layer due
at one emission instant) as a single packet train via
:meth:`Packetizer.packetize_train`, which the host/link layer then moves with
one transaction per hop instead of one per packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.net.packet import RTP_AUDIO, RTP_HEADER_BYTES, RTP_VIDEO, UDP_IP_HEADER_BYTES, Packet
from repro.media.encoder import EncodedFrame

__all__ = ["DEFAULT_MTU_BYTES", "Packetizer", "make_audio_packet"]

#: Maximum RTP payload per packet.  1200 bytes is the de-facto WebRTC value
#: (it keeps the full packet under the common 1500-byte Ethernet MTU after
#: adding RTP/UDP/IP and potential tunnelling overhead).
DEFAULT_MTU_BYTES = 1200

#: Size of one (bundled) audio packet: the VCA audio streams the paper
#: captures run at roughly 30-45 kbps.
AUDIO_PACKET_PAYLOAD_BYTES = 300

#: Wire size of one audio packet.
AUDIO_PACKET_BYTES = AUDIO_PACKET_PAYLOAD_BYTES + RTP_HEADER_BYTES + UDP_IP_HEADER_BYTES


@dataclass
class Packetizer:
    """Fragments encoded frames into RTP packets for one outgoing stream."""

    flow_id: str
    src: str
    dst: str
    mtu_bytes: int = DEFAULT_MTU_BYTES
    _seq: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)

    def packetize(self, frame: EncodedFrame, now: float) -> list[Packet]:
        """Split ``frame`` into RTP packets ready to hand to the host.

        Fragments of one frame share the frame-level metadata dict (it is
        write-once, see :class:`~repro.net.packet.Packet`), except for the
        fragment count which is identical across the frame anyway.
        """
        payload = frame.size_bytes
        if payload < 1:
            payload = 1
        mtu = self.mtu_bytes
        fragments = -(-payload // mtu)  # ceil-div without float round-trip
        base_size = payload // fragments
        remainder = payload - base_size * fragments
        settings = frame.settings
        header = RTP_HEADER_BYTES + UDP_IP_HEADER_BYTES
        meta = {
            "frame_id": frame.frame_id,
            "frag_count": fragments,
            "keyframe": frame.keyframe,
            "layer": frame.layer,
            "width": settings.width,
            "fps": settings.fps,
            "qp": settings.qp,
        }
        flow_id = self.flow_id
        src = self.src
        dst = self.dst
        seq = self._seq
        packets: list[Packet] = []
        append = packets.append
        for index in range(fragments):
            packet: Packet = object.__new__(Packet)
            packet.size_bytes = base_size + (1 if index < remainder else 0) + header
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.kind = RTP_VIDEO
            packet.seq = next(seq)
            packet.created_at = now
            packet._meta = meta
            packet._packet_id = None
            packet.queueing_delay = 0.0
            append(packet)
        return packets

    def packetize_train(self, frames: Iterable[EncodedFrame], now: float) -> list[Packet]:
        """Packetize a burst of frames into one contiguous packet train.

        Fragmentation, sequence numbering and metadata are identical to
        calling :meth:`packetize` per frame and concatenating the results in
        order; the train form exists so the sender can hand the whole burst
        to :meth:`repro.net.node.Host.send_batch` in one call.
        """
        train: list[Packet] = []
        for frame in frames:
            train.extend(self.packetize(frame, now))
        return train


def make_audio_packet(flow_id: str, src: str, dst: str, seq: int, now: float) -> Packet:
    """Build one bundled audio packet (~300 bytes of payload).

    Audio packets carry no metadata: every consumer dispatches on
    ``PacketKind.RTP_AUDIO``, and leaving ``meta`` unallocated keeps the
    highest-frequency packet type on the lazy-meta fast path.
    """
    # Built the way packetize does, skipping __init__: every sender makes
    # one every 20 ms, and the wire size is a positive constant.
    packet: Packet = object.__new__(Packet)
    packet.size_bytes = AUDIO_PACKET_BYTES
    packet.flow_id = flow_id
    packet.src = src
    packet.dst = dst
    packet.kind = RTP_AUDIO
    packet.seq = seq
    packet.created_at = now
    packet._meta = None
    packet._packet_id = None
    packet.queueing_delay = 0.0
    return packet
