"""RTCP control traffic: receiver reports and Full Intra Requests.

RTCP is how the receive side of an RTP session tells the sender what it
observed.  Two message types matter for the paper's measurements:

* **receiver reports** carrying the loss / delay / rate observations the
  congestion controllers consume (they also carry REMB-style bandwidth
  estimates for the WebRTC-based VCAs), and
* **Full Intra Requests (FIR)**, sent when the receiver can no longer decode
  (for example after losing parts of a keyframe); the paper uses the FIR
  count as its uplink quality-degradation signal (Figure 3b).

Messages are ordinary :class:`~repro.net.packet.Packet` objects with the
payload stored in ``meta`` -- the emulator measures their size on the wire
but never needs a byte-level encoding.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import FeedbackReport
from repro.net.packet import RTCP, UDP_IP_HEADER_BYTES, Packet

__all__ = [
    "RTCP_REPORT_BYTES",
    "make_report_packet",
    "make_fir_packet",
    "extract_report",
    "is_report",
    "is_fir",
]

#: Wire size of a compound RTCP receiver report (RR + REMB + transport-wide
#: feedback), including UDP/IP headers.
RTCP_REPORT_BYTES = 120 + UDP_IP_HEADER_BYTES

#: Wire size of an RTCP FIR message.
RTCP_FIR_BYTES = 60 + UDP_IP_HEADER_BYTES


def make_report_packet(
    flow_id: str, src: str, dst: str, report: FeedbackReport, now: float
) -> Packet:
    """Wrap a :class:`FeedbackReport` into an RTCP packet."""
    # Built the way Packet.copy_for_forwarding clones, skipping __init__:
    # every receiver reports every stream it gets, so a gallery builds
    # reports in proportion to the square of its size.  The wire size is a
    # positive constant, so __init__'s size check could never fire.
    packet: Packet = object.__new__(Packet)
    packet.size_bytes = RTCP_REPORT_BYTES
    packet.flow_id = flow_id
    packet.src = src
    packet.dst = dst
    packet.kind = RTCP
    packet.seq = 0
    packet.created_at = now
    packet._meta = {"rtcp": "report", "report": report}
    packet._packet_id = None
    packet.queueing_delay = 0.0
    return packet


def make_fir_packet(flow_id: str, src: str, dst: str, now: float, layer: str = "main") -> Packet:
    """Build an RTCP Full Intra Request for a stream (optionally one layer)."""
    return Packet(RTCP_FIR_BYTES, flow_id, src, dst, RTCP, 0, now, {"rtcp": "fir", "layer": layer})


# These read ``Packet._meta`` directly: the lazy ``meta`` property costs a
# call per packet and would allocate a dict on a packet that carries none.
def is_report(packet: Packet) -> bool:
    """True if the packet is an RTCP receiver report."""
    meta = packet._meta
    return packet.kind is RTCP and meta is not None and meta.get("rtcp") == "report"


def is_fir(packet: Packet) -> bool:
    """True if the packet is an RTCP Full Intra Request."""
    meta = packet._meta
    return packet.kind is RTCP and meta is not None and meta.get("rtcp") == "fir"


def extract_report(packet: Packet) -> Optional[FeedbackReport]:
    """Return the embedded :class:`FeedbackReport`, if the packet carries one."""
    if not is_report(packet):
        return None
    report = packet._meta.get("report")
    return report if isinstance(report, FeedbackReport) else None
