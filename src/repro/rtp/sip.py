"""Minimal SIP-style call signalling.

The VCAs the paper studies establish calls with SIP (or proprietary
equivalents) before any media flows.  The orchestrator only needs a handful
of message types -- join/leave, layout updates (which tiles a client
displays, at which resolution) and pin/unpin events for speaker mode -- so
this module models signalling as small reliable messages carried in
:class:`~repro.net.packet.Packet` objects of kind ``SIGNALING``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.net.node import Host
from repro.net.packet import SIGNALING, UDP_IP_HEADER_BYTES, Packet

__all__ = ["SignalKind", "SignalingMessage", "send_signal", "SIGNALING_FLOW"]

#: Flow id shared by all signalling traffic of a call.
SIGNALING_FLOW = "signaling"

#: Wire size of a signalling message (SIP INVITE-sized, generously).
SIGNAL_BYTES = 500 + UDP_IP_HEADER_BYTES


class SignalKind(str, Enum):
    """Types of signalling messages the orchestrator and servers exchange."""

    INVITE = "invite"
    ACCEPT = "accept"
    BYE = "bye"
    LAYOUT_UPDATE = "layout_update"
    PIN = "pin"
    LAYER_REQUEST = "layer_request"


@dataclass
class SignalingMessage:
    """One signalling message plus its free-form payload."""

    kind: SignalKind
    sender: str
    payload: dict[str, Any] = field(default_factory=dict)


def send_signal(host: Host, dst: str, message: SignalingMessage, flow_id: str = SIGNALING_FLOW) -> None:
    """Send a signalling message from ``host`` to ``dst``."""
    packet = Packet(
        size_bytes=SIGNAL_BYTES,
        flow_id=flow_id,
        src=host.name,
        dst=dst,
        kind=SIGNALING,
        meta={"signal": message},
    )
    host.send(packet)


def extract_signal(packet: Packet) -> SignalingMessage | None:
    """Return the embedded signalling message, if any."""
    if packet.kind is not SIGNALING:
        return None
    message = packet.meta.get("signal")
    return message if isinstance(message, SignalingMessage) else None
