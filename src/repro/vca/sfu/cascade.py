"""Cascade control plane: regions, trunk routing, and demand propagation.

A cascaded call spans several :class:`~repro.vca.sfu.node.SfuNode` instances
joined by server-to-server trunks.  The *data plane* (media, FEC, relayed
RTCP) is fully simulated -- every trunk is a real
:class:`~repro.net.link.Link` with its own capacity profile and impairments.
The *control plane* modelled here is the out-of-band coordination real SFU
fleets run over their backbone (subscription propagation, layout fan-out,
participant directory); it is a shared in-process object, deterministic and
free, which keeps the simulated packet streams byte-comparable across
topologies.

Key objects:

* :class:`CascadePlan` -- plain-data description of the cascade: regions
  (node + its clients) and undirected trunk edges.  Picklable; the
  ``cascade`` axis of a :class:`~repro.netem.scenarios.ScenarioSpec`
  compiles to one of these.
* :class:`CascadeControl` -- the shared directory: home-node lookup,
  next-hop routing (BFS over trunk edges), per-node published layouts and
  per-(node, sender) layer demands.  A node's egress trunk plan asks the
  control which layers the subtree behind each trunk wants, so a packet
  train crosses a trunk exactly once regardless of how many receivers sit
  behind it.
* :class:`TrunkIngress` -- a node's receive-side state for one upstream
  trunk: the per-sender stream meters plus the trunk's own relay
  estimator, which turns observed trunk loss/delay into the budget that
  caps the demands this node publishes upstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cc.gcc import GCCController
from repro.media.codec import Resolution
from repro.vca.sfu.state import ParticipantState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node imports cascade)
    from repro.vca.sfu.node import SfuNode

__all__ = ["CascadeRegion", "CascadePlan", "CascadeControl", "TrunkIngress", "TrunkDemand"]


@dataclass(frozen=True)
class CascadeRegion:
    """One region of a cascade: its SFU node host and the clients homed there."""

    node: str
    clients: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise ValueError(f"cascade region {self.node!r} has no clients")


@dataclass(frozen=True)
class CascadePlan:
    """Plain-data description of a cascaded call (picklable, hashable)."""

    regions: tuple[CascadeRegion, ...]
    #: Undirected trunk edges between node host names.
    trunks: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self, "trunks", tuple((str(a), str(b)) for a, b in self.trunks)
        )
        nodes = [region.node for region in self.regions]
        if len(set(nodes)) != len(nodes):
            raise ValueError("cascade regions must have unique node names")
        clients = [client for region in self.regions for client in region.clients]
        if len(set(clients)) != len(clients):
            raise ValueError("cascade clients must be unique across regions")
        if set(clients) & set(nodes):
            raise ValueError("client and node names must not collide")
        node_set = set(nodes)
        for a, b in self.trunks:
            if a not in node_set or b not in node_set or a == b:
                raise ValueError(f"trunk ({a!r}, {b!r}) must join two distinct known nodes")
        # Every node must be reachable from the first region over trunks.
        if len(nodes) > 1:
            adjacency: dict[str, set[str]] = {node: set() for node in nodes}
            for a, b in self.trunks:
                adjacency[a].add(b)
                adjacency[b].add(a)
            seen = {nodes[0]}
            frontier = deque([nodes[0]])
            while frontier:
                for neighbor in adjacency[frontier.popleft()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            if seen != node_set:
                raise ValueError("cascade trunks do not connect every region")

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(region.node for region in self.regions)

    @property
    def clients(self) -> tuple[str, ...]:
        return tuple(client for region in self.regions for client in region.clients)

    def node_of(self, client: str) -> str:
        for region in self.regions:
            if client in region.clients:
                return region.node
        raise KeyError(f"client {client!r} is not part of this cascade")


@dataclass(frozen=True)
class TrunkDemand:
    """What the subtree behind one trunk wants of one sender's stream.

    ``layers is None`` means "no decision yet / non-adaptive architecture":
    forward every layer.  An empty frozenset means the subtree decided it
    wants no video (audio may still flow when ``audio`` is set).
    """

    layers: Optional[frozenset[str]] = None
    audio: bool = True


#: Demand assumed for a subtree that has not published anything yet.
DEFAULT_DEMAND = TrunkDemand()


@dataclass
class TrunkIngress:
    """Receive-side state of one upstream trunk at one node."""

    upstream: str
    #: The trunk's relay estimator: fed the aggregate of the per-sender
    #: stream meters each feedback tick, its estimate is the budget behind
    #: the demands this node publishes toward the upstream node.
    estimator: GCCController
    #: Remote-sender states whose media arrives over this trunk.
    states: list[ParticipantState] = field(default_factory=list)
    #: Aggregate loss fraction observed on the trunk in the last feedback
    #: window.  Demand capping is gated on this: a healthy trunk carries the
    #: full demanded union (an estimator alone cannot discover headroom it
    #: was never offered), a lossy one caps demands to the estimator budget.
    loss_fraction: float = 0.0


class CascadeControl:
    """Shared out-of-band control plane of one cascaded call."""

    def __init__(self, plan: CascadePlan) -> None:
        self.plan = plan
        self.home: dict[str, str] = {
            client: region.node for region in plan.regions for client in region.clients
        }
        self.neighbors: dict[str, tuple[str, ...]] = {}
        adjacency: dict[str, list[str]] = {node: [] for node in plan.nodes}
        for a, b in plan.trunks:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for node, peers in adjacency.items():
            self.neighbors[node] = tuple(peers)
        #: ``(from_node, to_node) -> first hop`` over the trunk graph.
        self._next_hop: dict[tuple[str, str], str] = {}
        for source in plan.nodes:
            distances = {source: 0}
            frontier = deque([source])
            first_hop: dict[str, str] = {}
            while frontier:
                current = frontier.popleft()
                for neighbor in adjacency[current]:
                    if neighbor in distances:
                        continue
                    distances[neighbor] = distances[current] + 1
                    first_hop[neighbor] = (
                        neighbor if current == source else first_hop[current]
                    )
                    frontier.append(neighbor)
            for target, hop in first_hop.items():
                self._next_hop[(source, target)] = hop
        #: Registered nodes, in region order.
        self.nodes: dict[str, SfuNode] = {}
        #: Published layer demand per ``(node, sender)``.
        self._demands: dict[tuple[str, str], TrunkDemand] = {}
        #: Published per-node layout digests: ``node -> sender ->
        #: (Resolution, pinned)`` over that node's local receivers.
        self._requests: dict[str, dict[str, tuple[Resolution, bool]]] = {}

    # ------------------------------------------------------------- topology
    def register_node(self, node: SfuNode) -> None:
        self.nodes[node.node_id] = node

    def next_hop(self, from_node: str, to_node: str) -> str:
        if from_node == to_node:
            return from_node
        return self._next_hop[(from_node, to_node)]

    def home_of(self, participant: str) -> Optional[str]:
        return self.home.get(participant)

    def children(self, node: str, root: str) -> tuple[str, ...]:
        """Neighbors of ``node`` whose path toward ``root`` runs through it.

        These are the trunks ``node`` must copy a stream homed at ``root``
        onto -- the downstream edges of the (unique, BFS) distribution tree.
        """
        return tuple(
            neighbor
            for neighbor in self.neighbors[node]
            if self.next_hop(neighbor, root) == node
        )

    def total_participants(self) -> int:
        return sum(len(node.participants) for node in self.nodes.values())

    # ------------------------------------------------------------- demands
    def publish_demand(
        self, node: str, sender: str, layers: Optional[frozenset[str]], audio: bool
    ) -> None:
        demand = TrunkDemand(layers=layers, audio=audio)
        if self._demands.get((node, sender)) == demand:
            return
        self._demands[(node, sender)] = demand
        self.invalidate_trunk_plans()

    def demand_for(self, node: str, sender: str) -> TrunkDemand:
        """The demand the subtree rooted at ``node`` published for ``sender``."""
        return self._demands.get((node, sender), DEFAULT_DEMAND)

    def subtree_demand(self, node: str, sender: str) -> TrunkDemand:
        """Union of the demands published by ``node``'s downstream children."""
        home = self.home_of(sender)
        if home is None:
            return DEFAULT_DEMAND
        layers: Optional[frozenset[str]] = frozenset()
        audio = False
        any_child = False
        for child in self.children(node, home):
            any_child = True
            demand = self.demand_for(child, sender)
            audio = audio or demand.audio
            if demand.layers is None or layers is None:
                layers = None
            else:
                layers = layers | demand.layers
        if not any_child:
            return TrunkDemand(layers=frozenset(), audio=False)
        return TrunkDemand(layers=layers, audio=audio)

    def invalidate_trunk_plans(self) -> None:
        for node in self.nodes.values():
            node._trunk_plans.clear()

    # -------------------------------------------------------------- layouts
    def publish_layout(self, node_id: str) -> None:
        """Digest and share one node's local layouts; re-cap remote senders.

        Called by a node whenever one of its local receivers updates its
        layout: every *other* node re-evaluates the uplink caps of its local
        senders (a remote viewer may now be the largest tile), and trunk
        plans are rebuilt because display sets gate audio/video fan-out.
        """
        node = self.nodes[node_id]
        requests: dict[str, tuple[Resolution, bool]] = {}
        for state in node.participants.values():
            pinned_mode = state.view_mode == "speaker"
            for sender, requested in state.layout.items():
                pinned = pinned_mode and requested.width >= 1280
                current = requests.get(sender)
                if current is None or requested.pixels > current[0].pixels:
                    requests[sender] = (requested, pinned or (current[1] if current else False))
                elif pinned and not current[1]:
                    requests[sender] = (current[0], True)
        self._requests[node_id] = requests
        self.invalidate_trunk_plans()
        for other_id, other in self.nodes.items():
            if other_id != node_id:
                other._recompute_uplink_caps()

    def merge_remote_requests(
        self, node_id: str, sender: str, best: Optional[Resolution], pinned: bool
    ) -> tuple[Optional[Resolution], bool]:
        """Fold other nodes' published requests for ``sender`` into a local best."""
        for other_id, requests in self._requests.items():
            if other_id == node_id:
                continue
            entry = requests.get(sender)
            if entry is None:
                continue
            requested, remote_pinned = entry
            pinned = pinned or remote_pinned
            if best is None or requested.pixels > best.pixels:
                best = requested
        return best, pinned

