"""The YouTube competitor: ABR over a single QUIC connection.

YouTube delivers video over QUIC (UDP); its fairness against other traffic
depends on the congestion-controller configuration (Corbel et al., cited as
reference [9] of the paper).  :class:`YouTubePlayer` fetches every chunk over
one long-lived QUIC connection driven by the CUBIC variant in
:mod:`repro.cc.quic_cc`, with packets marked as QUIC so captures can separate
it from TCP traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.abr import AbrConfig, AbrPlayer
from repro.apps.tcp import TcpConnection
from repro.cc.quic_cc import QuicCubicState
from repro.net.node import Host
from repro.net.packet import QUIC_ACK, QUIC_DATA
from repro.net.simulator import Simulator

__all__ = ["YouTubePlayer"]


class YouTubePlayer(AbrPlayer):
    """ABR player downloading chunks over one QUIC connection."""

    def __init__(
        self,
        sim: Simulator,
        client: Host,
        server: Host,
        flow_id: str = "youtube",
        config: Optional[AbrConfig] = None,
    ) -> None:
        super().__init__(sim, config)
        self.client = client
        self.server = server
        self.flow_id = flow_id
        self.connection = TcpConnection(
            sim,
            sender=server,
            receiver=client,
            flow_id=flow_id,
            cubic=QuicCubicState(),
            data_kind=QUIC_DATA,
            ack_kind=QUIC_ACK,
        )

    def _download_chunk(self, chunk_bytes: int, on_complete) -> None:
        # Reuse the single QUIC connection for every chunk (HTTP/3 request
        # multiplexing); a finished transfer leaves the congestion window
        # warm for the next one.
        self.connection.start(transfer_bytes=chunk_bytes, on_complete=on_complete)
