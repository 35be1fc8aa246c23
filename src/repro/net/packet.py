"""Packet record used throughout the emulator.

A :class:`Packet` is intentionally closer to what a passive capture (pcap)
would record than to a full protocol implementation: the measurement study
only ever looks at packet sizes, directions, timestamps and the flow they
belong to.  Media- and transport-specific metadata (RTP sequence numbers,
frame identifiers, TCP sequence numbers, FEC group membership) travels in
typed fields so the capture/analysis layer can compute the same statistics
the paper derives from traffic captures and WebRTC stats.

Packets are the single most-allocated object in a run (hundreds of thousands
per emulated call), so the class is slotted, the ``meta`` dict is allocated
lazily on first access (control packets such as audio, probes and thinned
forwards never touch it), and :class:`PacketKind` is an ``IntEnum`` so the
capture path dispatches on cheap int hashing/comparison rather than string
hashing.

The nine kinds are also bound as module constants (``RTP_VIDEO``,
``FEC``, ...), the very same enum members.  Hot code tests and builds
packets with those instead of ``PacketKind.RTP_VIDEO``: on CPython 3.11
``EnumType`` defines ``__getattr__``, so the specializing interpreter
leaves a member load stuck at ``LOAD_ATTR_ADAPTIVE`` and it costs about
150 ns, against about 25 ns for a module global.  The packet path loads a
kind several times per packet per hop.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Any, Optional

__all__ = [
    "Packet",
    "PacketKind",
    "RTP_VIDEO",
    "RTP_AUDIO",
    "RTCP",
    "FEC",
    "SIGNALING",
    "TCP_DATA",
    "TCP_ACK",
    "QUIC_DATA",
    "QUIC_ACK",
    "RTP_HEADER_BYTES",
    "UDP_IP_HEADER_BYTES",
    "TCP_IP_HEADER_BYTES",
]

#: Bytes of RTP header carried by every media packet (12-byte RTP header plus
#: the extensions VCAs commonly negotiate, e.g. transport-wide sequence
#: numbers and audio level).
RTP_HEADER_BYTES = 20

#: IPv4 + UDP header overhead.
UDP_IP_HEADER_BYTES = 28

#: IPv4 + TCP header overhead (no options).
TCP_IP_HEADER_BYTES = 40

_packet_ids = itertools.count()


class PacketKind(IntEnum):
    """Coarse classification of emulated packets.

    The classification mirrors how the paper's analysis splits captured
    traffic: RTP media (audio vs video), RTCP control traffic, FEC repair
    data, and bulk TCP/QUIC traffic from competing applications.
    """

    RTP_VIDEO = 0
    RTP_AUDIO = 1
    RTCP = 2
    FEC = 3
    SIGNALING = 4
    TCP_DATA = 5
    TCP_ACK = 6
    QUIC_DATA = 7
    QUIC_ACK = 8

    @property
    def label(self) -> str:
        """Human-readable name as it appears in analysis output."""
        return self.name.lower()


# The members as plain module globals (see the module docstring).
RTP_VIDEO = PacketKind.RTP_VIDEO
RTP_AUDIO = PacketKind.RTP_AUDIO
RTCP = PacketKind.RTCP
FEC = PacketKind.FEC
SIGNALING = PacketKind.SIGNALING
TCP_DATA = PacketKind.TCP_DATA
TCP_ACK = PacketKind.TCP_ACK
QUIC_DATA = PacketKind.QUIC_DATA
QUIC_ACK = PacketKind.QUIC_ACK


class Packet:
    """A single packet traversing the emulated network.

    Attributes
    ----------
    size_bytes:
        On-the-wire size including transport/IP headers; this is the number
        every utilization metric in the paper is computed from.
    flow_id:
        Identifier of the application flow the packet belongs to, e.g.
        ``"zoom-c1-video-up"`` or ``"iperf-f1"``.  The capture layer groups
        bitrate time series by flow id.
    src / dst:
        Names of the sending and receiving hosts.
    kind:
        A :class:`PacketKind` value.
    seq:
        Transport-level sequence number (RTP sequence or TCP segment index).
    created_at:
        Simulation time at which the sender handed the packet to the network.
    meta:
        Free-form per-packet metadata (frame id, simulcast layer, SVC layer,
        FEC group, TCP byte range ...).  Allocated lazily on first access.
        Metadata is written once when the packet is built and treated as
        immutable from then on; forwarded clones therefore *share* the dict
        rather than copying it (an SFU fans every media packet out to every
        receiver, so the copy was the single hottest allocation in a call).
    """

    __slots__ = (
        "size_bytes",
        "flow_id",
        "src",
        "dst",
        "kind",
        "seq",
        "created_at",
        "_meta",
        "_packet_id",
        "queueing_delay",
    )

    def __init__(
        self,
        size_bytes: int,
        flow_id: str,
        src: str,
        dst: str,
        kind: PacketKind = PacketKind.RTP_VIDEO,
        seq: int = 0,
        created_at: float = 0.0,
        meta: Optional[dict[str, Any]] = None,
        packet_id: Optional[int] = None,
        queueing_delay: float = 0.0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.size_bytes = size_bytes
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.created_at = created_at
        self._meta = meta
        self._packet_id = packet_id
        #: Cumulative queueing delay experienced so far along the path.
        self.queueing_delay = queueing_delay

    @property
    def meta(self) -> dict[str, Any]:
        """Per-packet metadata dict, allocated on first access."""
        m = self._meta
        if m is None:
            m = self._meta = {}
        return m

    @meta.setter
    def meta(self, value: Optional[dict[str, Any]]) -> None:
        self._meta = value

    @property
    def packet_id(self) -> int:
        """Globally unique packet identifier, drawn lazily on first access."""
        pid = self._packet_id
        if pid is None:
            pid = self._packet_id = next(_packet_ids)
        return pid

    @packet_id.setter
    def packet_id(self, value: Optional[int]) -> None:
        self._packet_id = value

    @property
    def size_bits(self) -> int:
        """Size in bits, used for serialization-time computation."""
        return self.size_bytes * 8

    def copy_for_forwarding(self, src: str, dst: str, flow_id: Optional[str] = None) -> "Packet":
        """Clone the packet as a relay/SFU would when forwarding it.

        The clone keeps the media metadata (frame ids, layers, sequence
        numbers) but gets fresh addressing and, optionally, a new flow id so
        upstream and downstream legs can be measured independently -- exactly
        how the paper distinguishes C2's sent traffic from C1's received
        traffic when diagnosing relay-added FEC.
        """
        # Hand-rolled clone: this runs once per forwarded copy (the single
        # most frequent allocation in an SFU call), so skip __init__'s
        # argument parsing and validation -- the source packet is valid --
        # and share the write-once metadata dict instead of copying it.  The
        # media server calls it positionally (keyword binding costs more).
        clone: Packet = object.__new__(Packet)
        clone.size_bytes = self.size_bytes
        clone.flow_id = flow_id if flow_id is not None else self.flow_id
        clone.src = src
        clone.dst = dst
        clone.kind = self.kind
        clone.seq = self.seq
        clone.created_at = self.created_at
        clone._meta = self._meta
        clone._packet_id = None
        clone.queueing_delay = 0.0
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, {self.kind.label}, {self.size_bytes} B, "
            f"flow={self.flow_id!r}, {self.src}->{self.dst}, seq={self.seq})"
        )
