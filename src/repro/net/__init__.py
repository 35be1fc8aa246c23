"""Network emulation substrate.

This package is the synthetic replacement for the paper's physical testbed
(two laptops, a Turris Omnia router and ``tc``-based traffic shaping).  It
provides a discrete-event, packet-level emulator with:

* :class:`~repro.net.simulator.Simulator` -- the event scheduler / clock,
* :class:`~repro.net.packet.Packet` -- the unit of transmission,
* :class:`~repro.net.link.Link` -- a shaped link (token-bucket rate,
  drop-tail queue, propagation delay and random loss),
* :class:`~repro.net.shaper.BandwidthProfile` and
  :class:`~repro.net.shaper.LinkShaper` -- time-varying capacity, the
  equivalent of ``tc`` reconfigurations during an experiment,
* :class:`~repro.net.node.Host` -- an endpoint that applications attach to,
* :class:`~repro.net.router.Router` -- packet forwarding between links,
* :mod:`~repro.net.topology` -- canonical topologies used by the paper's
  experiments: the access-link topology (whose shaped access link is also
  the shared bottleneck of the competition experiments) and the cascaded
  SFU topology.
"""

from repro.net.link import Link, LinkStats
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.router import Router
from repro.net.shaper import BandwidthProfile, LinkShaper
from repro.net.simulator import Simulator
from repro.net.topology import AccessTopology, build_access_topology

__all__ = [
    "Simulator",
    "Packet",
    "PacketKind",
    "Link",
    "LinkStats",
    "LinkShaper",
    "BandwidthProfile",
    "Host",
    "Router",
    "AccessTopology",
    "build_access_topology",
]
