"""A call: participants, their clients, the media server and its wiring.

:class:`Call` assembles everything one experiment needs for a single video
conference: it instantiates one :class:`~repro.vca.base.VCAClient` per
participant host, the call's :class:`~repro.vca.sfu.node.MediaServer`, and
registers every receiver for every remote participant's forwarded stream.
The experiment drivers then only interact with ``call.start()`` /
``call.stop()`` (usually through the
:class:`~repro.core.orchestrator.CallOrchestrator`) and with the per-client
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.media.codec import CodecModel
from repro.media.layout import ViewMode
from repro.net.node import Host
from repro.net.simulator import Simulator
from repro.vca.base import VCAClient
from repro.vca.registry import get_profile
from repro.vca.sfu import CascadeControl, CascadePlan, MediaServer, SfuNode

__all__ = ["CallConfig", "Call"]


@dataclass
class CallConfig:
    """Static description of one call."""

    #: VCA name: ``zoom`` / ``meet`` / ``teams`` / ``teams-chrome`` / ``zoom-chrome``.
    vca: str = "zoom"
    #: Identifier prefixed to every flow id of this call (lets two calls share
    #: a bottleneck without flow-id collisions, as in the Section 5 VCA-vs-VCA
    #: experiments).
    call_id: str = "call"
    #: Viewing mode used by every participant.
    view_mode: ViewMode = ViewMode.GALLERY
    #: Participant pinned by everyone else (speaker-mode experiments).
    pinned: Optional[str] = None
    #: Base random seed (per-client seeds are derived from it).
    seed: int = 0
    #: Whether clients run the per-second WebRTC-stats collector.
    collect_stats: bool = True
    #: Stagger participant joins by up to this many seconds (call setup takes
    #: a few seconds of GUI automation in the real testbed).
    join_jitter_s: float = 1.0


class Call:
    """One multi-party video conference running on the emulated testbed."""

    def __init__(
        self,
        sim: Simulator,
        participants: Sequence[Host],
        server_host: Host,
        config: Optional[CallConfig] = None,
        codec: Optional[CodecModel] = None,
        cascade: Optional[CascadePlan] = None,
        cascade_hosts: Optional[dict[str, Host]] = None,
    ) -> None:
        if len(participants) < 2:
            raise ValueError("a call needs at least two participants")
        self.sim = sim
        self.config = config or CallConfig()
        self.codec = codec or CodecModel()
        self.participant_names = tuple(host.name for host in participants)
        self.server_host = server_host
        self.cascade = cascade
        if cascade is not None:
            if set(cascade.clients) != set(self.participant_names):
                raise ValueError("cascade plan clients must match call participants")
            if cascade_hosts is None or set(cascade_hosts) != set(cascade.nodes):
                raise ValueError("cascade_hosts must map every cascade node to a Host")

        # Every client gets its own profile instance so per-client draws
        # (Teams' nominal-rate variance, Teams-Chrome's encoder variability)
        # are independent, exactly like separate laptops running the app.
        self.clients: dict[str, VCAClient] = {}
        for index, host in enumerate(participants):
            profile = get_profile(self.config.vca, seed=self.config.seed + index)
            client = VCAClient(
                sim=sim,
                host=host,
                profile=profile,
                # In a cascade a client talks only to its regional node; the
                # cascade forwards across trunks on its behalf.
                server_name=(
                    cascade.node_of(host.name) if cascade is not None else server_host.name
                ),
                call_id=self.config.call_id,
                codec=self.codec,
                seed=self.config.seed + index,
                collect_stats=self.config.collect_stats,
            )
            self.clients[host.name] = client

        #: All SFU nodes of the call, keyed by node id (one entry for the
        #: classic single-server call).
        self.nodes: dict[str, SfuNode] = {}
        self.control: Optional[CascadeControl] = None
        if cascade is None:
            server_profile = get_profile(self.config.vca, seed=self.config.seed + 1000)
            self.server = MediaServer(sim, server_host, server_profile, call_id=self.config.call_id)
            self.nodes[server_host.name] = self.server
        else:
            self.control = CascadeControl(cascade)
            for offset, node_id in enumerate(cascade.nodes):
                node_profile = get_profile(
                    self.config.vca, seed=self.config.seed + 1000 + offset
                )
                self.nodes[node_id] = SfuNode(
                    sim,
                    cascade_hosts[node_id],
                    node_profile,
                    call_id=self.config.call_id,
                    control=self.control,
                )
            self.server = self.nodes[cascade.nodes[0]]

        self._started = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Everyone joins the call (with a small per-client join jitter)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()
        for name in self.participant_names:
            home = self.control.home_of(name) if self.control is not None else None
            node = self.nodes[home] if home is not None else self.server
            node.add_participant(name)
        for sender in self.participant_names:
            for receiver in self.participant_names:
                if sender != receiver:
                    self.clients[receiver].expect_stream_from(sender)
        for index, name in enumerate(self.participant_names):
            client = self.clients[name]
            jitter = float(self.sim.rng.uniform(0.0, self.config.join_jitter_s))
            self.sim.schedule(jitter, lambda c=client: self._join(c))

    def _join(self, client: VCAClient) -> None:
        client.set_view(self.config.view_mode, self.config.pinned)
        client.join(self.participant_names)

    def stop(self) -> None:
        """Everyone leaves the call."""
        if not self._started:
            return
        self._started = False
        for client in self.clients.values():
            client.leave()
        for node in self.nodes.values():
            node.stop()

    # ------------------------------------------------------------ call control
    def client(self, name: str) -> VCAClient:
        """Look up a participant's client by host name."""
        return self.clients[name]

    def pin(self, pinned: str) -> None:
        """Every participant pins ``pinned`` (switches to speaker mode)."""
        self.config.pinned = pinned
        for name, client in self.clients.items():
            if name == pinned:
                continue
            client.set_view(ViewMode.SPEAKER, pinned)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Call(vca={self.config.vca!r}, id={self.config.call_id!r}, "
            f"participants={list(self.participant_names)})"
        )
