"""Canonical emulated topologies used by the paper's experiments.

Two layouts cover every experiment in the paper (see Figure 7 of the paper):

* **Access topology** -- a single measured client (``C1``) sits behind a
  shaped access link to its home router; every other participant (``C2``,
  ``C3`` ... and the VCA media server) is reachable over an unconstrained WAN
  path.  This is the layout of the static-shaping (Section 3), disruption
  (Section 4) and call-modality (Section 6) experiments.

* **Competition topology** -- the measured client ``C1`` and the
  competing-flow client ``F1`` share a switch; the switch--router link is the
  shaped bottleneck.  Their counterparties (``C2``, ``F2``, iPerf/CDN
  servers) are unconstrained.  This is the layout of the Section 5
  competition experiments.

Only the shaped links are modelled with queues and serialization; the
unconstrained WAN path is a pure propagation delay, which keeps event counts
low enough for full parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.net.link import DEFAULT_QUEUE_BYTES, Link
from repro.net.node import Host
from repro.net.router import DelayPipe, Router, SourceRoutedEgress
from repro.net.shaper import UNCONSTRAINED_BPS, BandwidthProfile, LinkShaper
from repro.net.simulator import Simulator

__all__ = [
    "AccessTopology",
    "CascadeTopology",
    "CompetitionTopology",
    "build_access_topology",
    "build_cascade_topology",
    "build_competition_topology",
]

#: One-way propagation delay between a home router and the VCA media server.
DEFAULT_WAN_DELAY_S = 0.012

#: One-way propagation delay of the (wired) access link itself.
DEFAULT_ACCESS_DELAY_S = 0.002

#: One-way delay between hosts on the same local network (iPerf server case;
#: the paper reports a 2 ms RTT to its iPerf3 server).
DEFAULT_LAN_DELAY_S = 0.001

#: One-way propagation delay of an inter-region server-to-server trunk
#: (geo-distributed data centres, e.g. US east/west coast).
DEFAULT_TRUNK_DELAY_S = 0.040


@dataclass
class AccessTopology:
    """Topology with a single shaped access link in front of ``C1``."""

    sim: Simulator
    hosts: dict[str, Host]
    router: Router
    core: Router
    uplink: Link
    downlink: Link
    measured_client: str
    server_name: str
    shapers: list[LinkShaper] = field(default_factory=list)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def shape(
        self,
        up_profile: Optional[BandwidthProfile] = None,
        down_profile: Optional[BandwidthProfile] = None,
    ) -> None:
        """Apply bandwidth profiles to the measured client's access link."""
        if up_profile is not None:
            shaper = LinkShaper(self.sim, self.uplink, up_profile)
            shaper.apply()
            self.shapers.append(shaper)
        if down_profile is not None:
            shaper = LinkShaper(self.sim, self.downlink, down_profile)
            shaper.apply()
            self.shapers.append(shaper)

    def impair(self, direction: str, loss_model=None, jitter_model=None, aqm=None) -> None:
        """Declare the complete impairment state of one access-link direction.

        Every call replaces all three policies of that direction (omitted
        ones are cleared); for partial updates use
        :meth:`~repro.net.link.Link.configure_impairments` directly.
        Policies are stateful; use a fresh instance per direction.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"impair takes one direction ('up'/'down'), got {direction!r}")
        link = self.uplink if direction == "up" else self.downlink
        link.configure_impairments(loss_model=loss_model, jitter_model=jitter_model, aqm=aqm)


@dataclass
class CompetitionTopology:
    """Topology where ``C1`` and ``F1`` share a shaped bottleneck link."""

    sim: Simulator
    hosts: dict[str, Host]
    switch: Router
    router: Router
    core: Router
    bottleneck_up: Link
    bottleneck_down: Link
    local_clients: tuple[str, ...]
    shapers: list[LinkShaper] = field(default_factory=list)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def shape(
        self,
        up_profile: Optional[BandwidthProfile] = None,
        down_profile: Optional[BandwidthProfile] = None,
    ) -> None:
        """Apply bandwidth profiles to the shared bottleneck link."""
        if up_profile is not None:
            shaper = LinkShaper(self.sim, self.bottleneck_up, up_profile)
            shaper.apply()
            self.shapers.append(shaper)
        if down_profile is not None:
            shaper = LinkShaper(self.sim, self.bottleneck_down, down_profile)
            shaper.apply()
            self.shapers.append(shaper)

    def impair(self, direction: str, loss_model=None, jitter_model=None, aqm=None) -> None:
        """Declare the complete impairment state of one bottleneck direction.

        Every call replaces all three policies of that direction (omitted
        ones are cleared); for partial updates use
        :meth:`~repro.net.link.Link.configure_impairments` directly.
        Policies are stateful; use a fresh instance per direction.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"impair takes one direction ('up'/'down'), got {direction!r}")
        link = self.bottleneck_up if direction == "up" else self.bottleneck_down
        link.configure_impairments(loss_model=loss_model, jitter_model=jitter_model, aqm=aqm)


def build_access_topology(
    sim: Simulator,
    client_names: Sequence[str] = ("C1", "C2"),
    server_name: str = "S",
    extra_server_names: Iterable[str] = (),
    wan_delay_s: float = DEFAULT_WAN_DELAY_S,
    access_delay_s: float = DEFAULT_ACCESS_DELAY_S,
    queue_bytes: int = DEFAULT_QUEUE_BYTES,
    fused: bool = True,
    local_client_names: Sequence[str] = (),
) -> AccessTopology:
    """Build the single-shaped-client topology.

    ``client_names[0]`` is the measured client (the paper's C1): it sits
    behind the shaped access link.  All other clients and all servers are
    reachable over unconstrained, delay-only paths.

    ``local_client_names`` home additional hosts *behind the same shaped
    access link* as the measured client: they transmit through its uplink and
    receive through its downlink, so the access link is the contended
    bottleneck between the measured call and whatever those hosts run.  This
    is the substrate of the ``ScenarioSpec.workload`` axis (a competing VCA
    client, iPerf flows, a streaming player next to C1 on the home network).
    When empty (the default) the wiring is exactly the classic single-client
    layout.

    With ``fused=True`` (the default) the delay-only paths are source-routed:
    a host's egress resolves the destination immediately and delivers over a
    single-event :class:`~repro.net.router.DelayBus` with the summed path
    delay, instead of hopping egress pipe -> core router -> destination pipe.
    Arrival times and per-flow ordering are identical; the hop-by-hop wiring
    (``fused=False``) is kept for the PR 1 engine baseline in the scaling
    benchmark.
    """
    if not client_names:
        raise ValueError("at least one client is required")
    # Source routing delivers over a DelayBus, which needs a positive total
    # path delay; a zero-delay topology keeps the hop-by-hop wiring (where
    # DelayPipe degenerates to a direct call).
    fused = fused and wan_delay_s + DEFAULT_LAN_DELAY_S > 0.0
    measured = client_names[0]
    hosts: dict[str, Host] = {}

    core = Router(sim, "core")
    home_router = Router(sim, f"router-{measured}")

    # Measured client behind the shaped access link.
    c1 = Host(sim, measured)
    hosts[measured] = c1
    uplink = Link(sim, f"{measured}-uplink", UNCONSTRAINED_BPS, access_delay_s, queue_bytes)
    downlink = Link(sim, f"{measured}-downlink", UNCONSTRAINED_BPS, access_delay_s, queue_bytes)
    uplink.connect(home_router.receive)
    c1.set_egress(uplink.send, batch=uplink.send_batch)
    home_router.add_link_route(measured, downlink)
    home_router.set_default_delay_route(
        core.receive, wan_delay_s, receiver_batch=core.receive_batch
    )
    core.add_delay_route(
        measured, home_router.receive, wan_delay_s, receiver_batch=home_router.receive_batch
    )

    if local_client_names:
        # Workload hosts share C1's access link: they transmit straight into
        # the uplink queue and a zero-delay LAN demux fans the shared
        # downlink out by destination (delay-0 routes dispatch directly, so
        # arrival times are unchanged for C1).
        lan = Router(sim, f"lan-{measured}")
        downlink.connect(lan.receive)
        lan.add_delay_route(measured, c1.receive, 0.0, receiver_batch=c1.receive_batch)
        for name in local_client_names:
            host = Host(sim, name)
            hosts[name] = host
            host.set_egress(uplink.send, batch=uplink.send_batch)
            lan.add_delay_route(name, host.receive, 0.0, receiver_batch=host.receive_batch)
            home_router.add_link_route(name, downlink)
            core.add_delay_route(
                name, home_router.receive, wan_delay_s, receiver_batch=home_router.receive_batch
            )
    else:
        downlink.connect(c1.receive)

    server_names = (server_name, *extra_server_names)

    # Remaining clients: unconstrained, one WAN hop away from the core.
    remote_clients: list[Host] = []
    client_egresses: list[SourceRoutedEgress] = []
    for name in client_names[1:]:
        host = Host(sim, name)
        hosts[name] = host
        remote_clients.append(host)
        pipe = DelayPipe(sim, core.receive, wan_delay_s, receiver_batch=core.receive_batch)
        if fused:
            egress = SourceRoutedEgress(
                sim, wan_delay_s + DEFAULT_LAN_DELAY_S, pipe.send, fallback_batch=pipe.send_batch
            )
            client_egresses.append(egress)
            host.set_egress(egress.send, batch=egress.send_batch)
        else:
            host.set_egress(pipe.send, batch=pipe.send_batch)
        core.add_delay_route(
            name, host.receive, wan_delay_s, receiver_batch=host.receive_batch
        )

    # Media server(s): co-located with the core (provider data centre).
    for name in server_names:
        server = Host(sim, name)
        hosts[name] = server
        pipe = DelayPipe(sim, core.receive, DEFAULT_LAN_DELAY_S, receiver_batch=core.receive_batch)
        if fused:
            # The whole client fan-out shares one data-centre + WAN delay,
            # so one DelayBus covers every destination of the server, and
            # each forwarded burst rides it as a single record.
            egress = SourceRoutedEgress(
                sim, DEFAULT_LAN_DELAY_S + wan_delay_s, pipe.send, fallback_batch=pipe.send_batch
            )
            for client in remote_clients:
                egress.add_route(client.name, client.receive, client.receive_batch)
            egress.add_route(measured, home_router.receive, home_router.receive_batch)
            for local_name in local_client_names:
                egress.add_route(local_name, home_router.receive, home_router.receive_batch)
            server.set_egress(egress.send, batch=egress.send_batch, trains=egress.send_trains)
        else:
            server.set_egress(pipe.send, batch=pipe.send_batch)
        core.add_delay_route(
            name, server.receive, DEFAULT_LAN_DELAY_S, receiver_batch=server.receive_batch
        )

    # Client egresses can source-route to the servers (wan + lan total).
    for egress in client_egresses:
        for name in server_names:
            egress.add_route(name, hosts[name].receive, hosts[name].receive_batch)

    return AccessTopology(
        sim=sim,
        hosts=hosts,
        router=home_router,
        core=core,
        uplink=uplink,
        downlink=downlink,
        measured_client=measured,
        server_name=server_name,
    )


@dataclass
class CascadeTopology:
    """Topology of a cascaded call: regional access islands joined by trunks.

    Region 0 contains the measured client behind the same shaped access-link
    wiring as :class:`AccessTopology` (so :meth:`shape` / :meth:`impair` have
    identical semantics), plus that region's SFU node.  Every further region
    is an island of clients around its own node, and nodes are joined by
    directed pairs of real :class:`~repro.net.link.Link` trunks that can be
    shaped and impaired independently with :meth:`shape_trunk` /
    :meth:`impair_trunk`.
    """

    sim: Simulator
    hosts: dict[str, Host]
    router: Router
    cores: dict[str, Router]
    uplink: Link
    downlink: Link
    measured_client: str
    server_name: str
    #: SFU node hosts keyed by node id (== host name).
    node_hosts: dict[str, Host] = field(default_factory=dict)
    #: Directed trunk links keyed by ``(src_node, dst_node)``.
    trunk_links: dict[tuple[str, str], Link] = field(default_factory=dict)
    shapers: list[LinkShaper] = field(default_factory=list)

    def host(self, name: str) -> Host:
        """Look up a host (client or node) by name."""
        return self.hosts[name]

    @property
    def core(self) -> Router:
        """The measured region's core (AccessTopology-compatible alias)."""
        return next(iter(self.cores.values()))

    def shape(
        self,
        up_profile: Optional[BandwidthProfile] = None,
        down_profile: Optional[BandwidthProfile] = None,
    ) -> None:
        """Apply bandwidth profiles to the measured client's access link."""
        if up_profile is not None:
            shaper = LinkShaper(self.sim, self.uplink, up_profile)
            shaper.apply()
            self.shapers.append(shaper)
        if down_profile is not None:
            shaper = LinkShaper(self.sim, self.downlink, down_profile)
            shaper.apply()
            self.shapers.append(shaper)

    def impair(self, direction: str, loss_model=None, jitter_model=None, aqm=None) -> None:
        """Declare the complete impairment state of one access-link direction."""
        if direction not in ("up", "down"):
            raise ValueError(f"impair takes one direction ('up'/'down'), got {direction!r}")
        link = self.uplink if direction == "up" else self.downlink
        link.configure_impairments(loss_model=loss_model, jitter_model=jitter_model, aqm=aqm)

    def trunk(self, src_node: str, dst_node: str) -> Link:
        """The directed trunk link from ``src_node`` to ``dst_node``."""
        return self.trunk_links[(src_node, dst_node)]

    def shape_trunk(
        self,
        src_node: str,
        dst_node: str,
        profile: BandwidthProfile,
        both: bool = True,
    ) -> None:
        """Apply a bandwidth profile to a trunk (both directions by default)."""
        directions = [(src_node, dst_node)]
        if both:
            directions.append((dst_node, src_node))
        for key in directions:
            shaper = LinkShaper(self.sim, self.trunk_links[key], profile)
            shaper.apply()
            self.shapers.append(shaper)

    def impair_trunk(
        self,
        src_node: str,
        dst_node: str,
        loss_model=None,
        jitter_model=None,
        aqm=None,
    ) -> None:
        """Declare the complete impairment state of one directed trunk.

        Impairment policies are stateful, so each directed trunk needs its
        own instances -- impair the reverse direction with a second call.
        """
        self.trunk_links[(src_node, dst_node)].configure_impairments(
            loss_model=loss_model, jitter_model=jitter_model, aqm=aqm
        )


def build_cascade_topology(
    sim: Simulator,
    plan,
    wan_delay_s: float = DEFAULT_WAN_DELAY_S,
    access_delay_s: float = DEFAULT_ACCESS_DELAY_S,
    lan_delay_s: float = DEFAULT_LAN_DELAY_S,
    trunk_delay_s: float = DEFAULT_TRUNK_DELAY_S,
    queue_bytes: int = DEFAULT_QUEUE_BYTES,
    local_client_names: Sequence[str] = (),
    extra_client_names: Sequence[str] = (),
    extra_server_names: Sequence[str] = (),
) -> CascadeTopology:
    """Build the geo-distributed cascade topology for a ``CascadePlan``.

    ``plan`` is duck-typed (``repro.vca.sfu.cascade.CascadePlan``: regions
    with ``.node`` / ``.clients``, plus ``.trunks`` edges) so the net layer
    does not import the VCA layer.  The first client of the first region is
    the measured client: it sits behind the same shaped access wiring as
    :func:`build_access_topology` (links named ``{client}-uplink`` /
    ``{client}-downlink``), so a one-region cascade is byte-identical to the
    access topology.  Each trunk edge becomes a *pair* of directed
    :class:`~repro.net.link.Link` instances named ``trunk-{a}>{b}`` with
    ``trunk_delay_s`` propagation, shapeable and impairable per direction.

    The workload axis composes with cascades through the same three hooks as
    the access builder: ``local_client_names`` home hosts behind the measured
    client's shaped access link (shared uplink/downlink, zero-delay LAN
    demux), while ``extra_client_names`` / ``extra_server_names`` hang
    unconstrained counterparties off the measured region's core (WAN and LAN
    delay respectively).  All three default to empty, leaving the
    workload-free cascade wiring byte-identical.
    """
    regions = list(plan.regions)
    if not regions:
        raise ValueError("a cascade needs at least one region")
    measured = regions[0].clients[0]
    hosts: dict[str, Host] = {}
    node_hosts: dict[str, Host] = {}
    cores: dict[str, Router] = {}
    trunk_links: dict[tuple[str, str], Link] = {}

    # Node hosts and their egress routers first: trunks and region wiring
    # both hang off them.
    node_routers: dict[str, Router] = {}
    for region in regions:
        node = Host(sim, region.node)
        hosts[region.node] = node
        node_hosts[region.node] = node
        node_routers[region.node] = Router(sim, f"egress-{region.node}")

    # Directed trunk pairs between nodes.
    for a, b in plan.trunks:
        for src, dst in ((a, b), (b, a)):
            link = Link(
                sim, f"trunk-{src}>{dst}", UNCONSTRAINED_BPS, trunk_delay_s, queue_bytes
            )
            link.connect(node_hosts[dst].receive)
            trunk_links[(src, dst)] = link
            node_routers[src].add_link_route(dst, link)

    home_router: Optional[Router] = None
    uplink: Optional[Link] = None
    downlink: Optional[Link] = None
    for index, region in enumerate(regions):
        core = Router(sim, f"core-{region.node}")
        cores[region.node] = core
        node = node_hosts[region.node]
        egress = node_routers[region.node]
        node.set_egress(egress.receive, batch=egress.receive_batch)
        egress.set_default_delay_route(
            core.receive, lan_delay_s, receiver_batch=core.receive_batch
        )
        core.add_delay_route(
            region.node, node.receive, lan_delay_s, receiver_batch=node.receive_batch
        )
        for client_name in region.clients:
            if index == 0 and client_name == measured:
                # The measured client keeps the exact AccessTopology wiring:
                # shaped access links in front of a home router one WAN hop
                # from the regional core.
                home_router = Router(sim, f"router-{measured}")
                c1 = Host(sim, measured)
                hosts[measured] = c1
                uplink = Link(
                    sim, f"{measured}-uplink", UNCONSTRAINED_BPS, access_delay_s, queue_bytes
                )
                downlink = Link(
                    sim, f"{measured}-downlink", UNCONSTRAINED_BPS, access_delay_s, queue_bytes
                )
                uplink.connect(home_router.receive)
                c1.set_egress(uplink.send, batch=uplink.send_batch)
                home_router.add_link_route(measured, downlink)
                home_router.set_default_delay_route(
                    core.receive, wan_delay_s, receiver_batch=core.receive_batch
                )
                core.add_delay_route(
                    measured,
                    home_router.receive,
                    wan_delay_s,
                    receiver_batch=home_router.receive_batch,
                )
                egress.add_delay_route(
                    measured,
                    home_router.receive,
                    lan_delay_s + wan_delay_s,
                    receiver_batch=home_router.receive_batch,
                )
                if local_client_names:
                    # Same shared-access wiring as build_access_topology:
                    # workload hosts feed the measured uplink directly and a
                    # zero-delay LAN demux splits the shared downlink.
                    lan = Router(sim, f"lan-{measured}")
                    downlink.connect(lan.receive)
                    lan.add_delay_route(
                        measured, c1.receive, 0.0, receiver_batch=c1.receive_batch
                    )
                    for local_name in local_client_names:
                        local = Host(sim, local_name)
                        hosts[local_name] = local
                        local.set_egress(uplink.send, batch=uplink.send_batch)
                        lan.add_delay_route(
                            local_name, local.receive, 0.0, receiver_batch=local.receive_batch
                        )
                        home_router.add_link_route(local_name, downlink)
                        core.add_delay_route(
                            local_name,
                            home_router.receive,
                            wan_delay_s,
                            receiver_batch=home_router.receive_batch,
                        )
                else:
                    downlink.connect(c1.receive)
                continue
            client = Host(sim, client_name)
            hosts[client_name] = client
            pipe = DelayPipe(sim, core.receive, wan_delay_s, receiver_batch=core.receive_batch)
            client_egress = SourceRoutedEgress(
                sim, wan_delay_s + lan_delay_s, pipe.send, fallback_batch=pipe.send_batch
            )
            client_egress.add_route(region.node, node.receive, node.receive_batch)
            client.set_egress(client_egress.send, batch=client_egress.send_batch)
            core.add_delay_route(
                client_name, client.receive, wan_delay_s, receiver_batch=client.receive_batch
            )
            # The node reaches its regional clients in one fused LAN+WAN hop.
            egress.add_delay_route(
                client_name,
                client.receive,
                lan_delay_s + wan_delay_s,
                receiver_batch=client.receive_batch,
            )

    # Workload counterparties hang off the measured region's core: extra
    # clients one WAN hop away, extra servers co-located (LAN delay) --
    # mirroring the access builder's remote wiring.
    region0_core = cores[regions[0].node]
    for name in extra_client_names:
        host = Host(sim, name)
        hosts[name] = host
        pipe = DelayPipe(
            sim, region0_core.receive, wan_delay_s, receiver_batch=region0_core.receive_batch
        )
        host.set_egress(pipe.send, batch=pipe.send_batch)
        region0_core.add_delay_route(
            name, host.receive, wan_delay_s, receiver_batch=host.receive_batch
        )
    for name in extra_server_names:
        server = Host(sim, name)
        hosts[name] = server
        pipe = DelayPipe(
            sim, region0_core.receive, lan_delay_s, receiver_batch=region0_core.receive_batch
        )
        server.set_egress(pipe.send, batch=pipe.send_batch)
        region0_core.add_delay_route(
            name, server.receive, lan_delay_s, receiver_batch=server.receive_batch
        )

    assert home_router is not None and uplink is not None and downlink is not None
    return CascadeTopology(
        sim=sim,
        hosts=hosts,
        router=home_router,
        cores=cores,
        uplink=uplink,
        downlink=downlink,
        measured_client=measured,
        server_name=regions[0].node,
        node_hosts=node_hosts,
        trunk_links=trunk_links,
    )


def build_competition_topology(
    sim: Simulator,
    local_clients: Sequence[str] = ("C1", "F1"),
    remote_names: Sequence[str] = ("C2", "F2", "S1", "S2"),
    wan_delay_s: float = DEFAULT_WAN_DELAY_S,
    lan_delay_s: float = DEFAULT_LAN_DELAY_S,
    queue_bytes: int = DEFAULT_QUEUE_BYTES,
) -> CompetitionTopology:
    """Build the shared-bottleneck topology of the competition experiments.

    ``local_clients`` (typically C1 and F1) hang off a switch; the
    switch--router link is the shared bottleneck whose capacity is set with
    :meth:`CompetitionTopology.shape`.  ``remote_names`` are counterparties
    and servers reachable over the unconstrained WAN.
    """
    hosts: dict[str, Host] = {}
    switch = Router(sim, "switch")
    router = Router(sim, "router")
    core = Router(sim, "core")

    bottleneck_up = Link(sim, "bottleneck-up", UNCONSTRAINED_BPS, DEFAULT_ACCESS_DELAY_S, queue_bytes)
    bottleneck_down = Link(sim, "bottleneck-down", UNCONSTRAINED_BPS, DEFAULT_ACCESS_DELAY_S, queue_bytes)
    bottleneck_up.connect(router.receive)
    bottleneck_down.connect(switch.receive)

    for name in local_clients:
        host = Host(sim, name)
        hosts[name] = host
        pipe = DelayPipe(sim, switch.receive, lan_delay_s, receiver_batch=switch.receive_batch)
        host.set_egress(pipe.send, batch=pipe.send_batch)
        switch.add_delay_route(name, host.receive, lan_delay_s, receiver_batch=host.receive_batch)
        router.add_link_route(name, bottleneck_down)

    switch.set_default_link(bottleneck_up)
    router.set_default_delay_route(core.receive, wan_delay_s, receiver_batch=core.receive_batch)

    for name in remote_names:
        host = Host(sim, name)
        hosts[name] = host
        pipe = DelayPipe(sim, core.receive, lan_delay_s, receiver_batch=core.receive_batch)
        host.set_egress(pipe.send, batch=pipe.send_batch)
        core.add_delay_route(name, host.receive, lan_delay_s, receiver_batch=host.receive_batch)

    for name in local_clients:
        core.add_delay_route(name, router.receive, wan_delay_s, receiver_batch=router.receive_batch)

    return CompetitionTopology(
        sim=sim,
        hosts=hosts,
        switch=switch,
        router=router,
        core=core,
        bottleneck_up=bottleneck_up,
        bottleneck_down=bottleneck_down,
        local_clients=tuple(local_clients),
    )
