"""Composable SFU nodes: state, forwarding plane, and cascade control.

The media server of a call is split into:

* :mod:`repro.vca.sfu.state` -- per-participant subscription state and the
  pure layer-decision policies (the control half).
* :mod:`repro.vca.sfu.node` -- :class:`SfuNode`, the forwarding plane with
  cached per-hop dispatch plans (local receivers + egress trunks).
* :mod:`repro.vca.sfu.cascade` -- :class:`CascadePlan` /
  :class:`CascadeControl`, the shared control plane of a cascaded call.

``MediaServer`` is an alias of :class:`SfuNode`: a standalone node is the
classic single media server of a call.
"""

from repro.vca.sfu.cascade import (
    CascadeControl,
    CascadePlan,
    CascadeRegion,
    TrunkDemand,
)
from repro.vca.sfu.node import MediaServer, SfuNode, trunk_flow
from repro.vca.sfu.state import ParticipantState

__all__ = [
    "CascadeControl",
    "CascadePlan",
    "CascadeRegion",
    "MediaServer",
    "ParticipantState",
    "SfuNode",
    "TrunkDemand",
    "trunk_flow",
]
