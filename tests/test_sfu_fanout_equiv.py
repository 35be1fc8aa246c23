"""The SFU's media fan-out against the packet-major loop it replaced.

``_packet_major_reference`` below is the former body of
:meth:`SfuNode._on_media_batch`: for each packet of a train, for each
receiver, one copy (and, on Zoom's relay, one scalar FEC draw).  The node
now fans a train out receiver-major, one run of same-frame packets at a
time, with the relay's FEC uniforms drawn as one block per run; a
one-packet train of any kind takes its own path, with one scalar draw for
one kept receiver and one block for several.  Both must agree exactly with
the reference: the same trains in the same order, every copy's
destination, flow, sequence number, kind, size and shared metadata dict,
the same byte counters, sequence cells and RNG state afterwards.

Two identically built and seeded nodes replay the same trains, one through
the reference and one through a handler of the node: ``on_packet_batch``
for any train, ``on_packet`` for a one-packet train.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.media.codec import Resolution
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.simulator import Simulator
from repro.vca.base import uplink_flow
from repro.vca.registry import get_profile
from repro.vca.sfu.cascade import CascadeControl, CascadePlan, CascadeRegion, TrunkDemand
from repro.vca.sfu.node import SfuNode

NODE = "sfu-a"
PEERS = ("sfu-b", "sfu-c")
LAYERS = {"zoom": ("base", "mid", "top"), "meet": ("low", "high")}
KEEPS = (1.0, 1.0, 0.25, 0.6, 0.9)


def _packet_major_reference(self: SfuNode, packets) -> None:
    """The packet-major fan-out loop, kept verbatim as the reference."""
    flow = packets[0].flow_id
    state = self._state_by_flow.get(flow)
    if state is None:
        sender_name = flow.split(":up:", 1)[-1]
        state = self.participants.get(sender_name)
        if state is None:
            state = self._trunk_sender_state(flow)
            if state is None:
                return
        self._state_by_flow[flow] = state
    if state.uplink_meter is not None:
        state.uplink_meter.on_packet_batch(packets)
    host_name = self.host.name
    has_trunks = self._control is not None and len(self._control.neighbors.get(self.node_id, ())) > 0
    if len(packets) == 1 and packets[0].kind is PacketKind.RTP_AUDIO:
        packet = packets[0]
        size = packet.size_bytes
        copy = packet.copy_for_forwarding
        outbound = [
            [size, [copy(host_name, receiver, flow_id)]]
            for receiver, flow_id in self._audio_plan(state)
        ]
        self.bytes_forwarded += size * len(outbound)
        if has_trunks:
            trunk = [
                [size, [copy(host_name, peer, flow_id)]]
                for peer, flow_id in self._trunk_audio_plan(state)
            ]
            self.trunk_bytes_forwarded += size * len(trunk)
            outbound += trunk
        self.host.send_forwarded_trains(outbound)
        return
    layer_bytes = state.layer_bytes
    server_fec = self.profile.server_fec_ratio
    fec_rng = self.sim.rng if server_fec > 0 else None
    rtp_video = PacketKind.RTP_VIDEO
    rtp_audio = PacketKind.RTP_AUDIO
    now = self.sim._now
    bytes_forwarded = 0
    trunk_bytes = 0
    fec_bytes = 0
    outbound: dict[str, list] = {}
    plan_layer: Optional[str] = None
    plan: list = []
    trunk_plan: list = []
    for packet in packets:
        kind = packet.kind
        copy = packet.copy_for_forwarding
        if kind is rtp_audio:
            size = packet.size_bytes
            for receiver, flow_id in self._audio_plan(state):
                forwarded = copy(host_name, receiver, flow_id)
                bytes_forwarded += size
                out = outbound.get(receiver)
                if out is None:
                    out = outbound[receiver] = [0, []]
                out[0] += size
                out[1].append(forwarded)
            if has_trunks:
                for peer, flow_id in self._trunk_audio_plan(state):
                    forwarded = copy(host_name, peer, flow_id)
                    trunk_bytes += size
                    out = outbound.get(peer)
                    if out is None:
                        out = outbound[peer] = [0, []]
                    out[0] += size
                    out[1].append(forwarded)
            continue
        meta = packet._meta
        layer = meta.get("layer", "main") if meta is not None else "main"
        is_video = kind is rtp_video
        size = packet.size_bytes
        if is_video:
            layer_bytes[layer] = layer_bytes.get(layer, 0) + size
        repairs = fec_rng is not None and is_video
        if layer != plan_layer:
            plan_layer = layer
            plan = self._video_plan(state, layer)
            if has_trunks:
                trunk_plan = self._trunk_video_plan(state, layer)
        for receiver, keep, flow_id, seq_cell in plan:
            if keep < 1.0:
                frame_id = meta.get("frame_id", packet.seq) if meta is not None else packet.seq
                if not (frame_id * 2654435761 % 1000) / 1000.0 < keep:
                    continue
            forwarded = copy(host_name, receiver, flow_id)
            if is_video:
                seq_cell[0] = seq = seq_cell[0] + 1
                forwarded.seq = seq
            bytes_forwarded += size
            out = outbound.get(receiver)
            if out is None:
                out = outbound[receiver] = [0, []]
            out[0] += size
            out[1].append(forwarded)
            if repairs and fec_rng.random() < server_fec:
                repair = Packet(
                    size_bytes=size,
                    flow_id=forwarded.flow_id,
                    src=host_name,
                    dst=receiver,
                    kind=PacketKind.FEC,
                    seq=1_000_000 + packet.seq,
                    created_at=now,
                    meta={"fec_group": meta.get("frame_id", 0) if meta is not None else 0},
                )
                fec_bytes += size
                out[0] += size
                out[1].append(repair)
        if trunk_plan:
            for peer, flow_id, seq_cell in trunk_plan:
                forwarded = copy(host_name, peer, flow_id)
                if is_video:
                    seq_cell[0] = seq = seq_cell[0] + 1
                    forwarded.seq = seq
                trunk_bytes += size
                out = outbound.get(peer)
                if out is None:
                    out = outbound[peer] = [0, []]
                out[0] += size
                out[1].append(forwarded)
    self.bytes_forwarded += bytes_forwarded
    self.trunk_bytes_forwarded += trunk_bytes
    self.fec_bytes_added += fec_bytes
    self.host.send_forwarded_trains(outbound.values())


# ------------------------------------------------------------------ set-up
@dataclasses.dataclass(frozen=True)
class Setup:
    """One node configuration: who displays whom and what gets forwarded."""

    vca: str
    fec_ratio: float
    n_participants: int
    #: ``(sender, receiver) -> (layers or None, keep)``; absent pairs have
    #: no decision yet (forward everything).
    forwarding: tuple[tuple[tuple[int, int], tuple[Optional[tuple[str, ...]], float]], ...]
    #: Receivers whose layout omits one sender: ``(receiver, hidden sender)``.
    hidden: tuple[tuple[int, int], ...]
    trunks: bool
    #: ``(peer index, sender) -> (layers or None, audio)`` published demands.
    demands: tuple[tuple[tuple[int, int], tuple[Optional[tuple[str, ...]], bool]], ...]
    seed: int


def _name(index: int) -> str:
    return f"p{index}"


def build_node(setup: Setup):
    """A standalone or trunked node and the list its forwarded bursts land in."""
    sim = Simulator(seed=setup.seed)
    host = Host(sim, NODE)
    bursts: list[list[tuple[int, list[Packet]]]] = []
    host.set_egress(
        lambda packet: None,
        trains=lambda outbound: bursts.append(
            [(size, list(packets)) for size, packets in outbound]
        ),
    )
    profile = dataclasses.replace(get_profile(setup.vca), server_fec_ratio=setup.fec_ratio)
    names = [_name(i) for i in range(setup.n_participants)]
    control = None
    if setup.trunks:
        plan = CascadePlan(
            regions=(
                CascadeRegion(NODE, tuple(names)),
                *(CascadeRegion(peer, (f"{peer}-client",)) for peer in PEERS),
            ),
            trunks=tuple((NODE, peer) for peer in PEERS),
        )
        control = CascadeControl(plan)
    node = SfuNode(sim, host, profile, control=control)
    for name in names:
        node.add_participant(name)
    for receiver, sender in setup.hidden:
        if receiver != sender:
            node.participants[_name(receiver)].layout = {
                _name(i): Resolution(640, 360)
                for i in range(setup.n_participants)
                if i not in (receiver, sender)
            } or {"nobody": Resolution(640, 360)}
    for (sender, receiver), (layers, keep) in setup.forwarding:
        if sender != receiver:
            node.participants[_name(sender)].forwarding[_name(receiver)] = (
                None if layers is None else set(layers),
                keep,
            )
    if control is not None:
        for (peer, sender), (layers, audio) in setup.demands:
            control._demands[(PEERS[peer], _name(sender))] = TrunkDemand(
                layers=None if layers is None else frozenset(layers), audio=audio
            )
    return sim, node, bursts


# ------------------------------------------------------------------ trains
#: Train items: ``("video", layer, frame_id, fragments, size)``,
#: ``("bare", layer, size)`` (video without a frame id), ``("fec", size)``
#: (client FEC, no frame id) and ``("audio", size)``.
def make_train(sender: int, items, seqs: dict[int, int], now: float) -> list[Packet]:
    flow = uplink_flow(_name(sender))
    train: list[Packet] = []

    def packet(kind, size, meta):
        seqs[sender] = seq = seqs.get(sender, 0) + 1
        return Packet(
            size_bytes=size,
            flow_id=flow,
            src=_name(sender),
            dst=NODE,
            kind=kind,
            seq=seq,
            created_at=now,
            meta=meta,
        )

    for item in items:
        if item[0] == "video":
            _, layer, frame_id, fragments, size = item
            meta = {"frame_id": frame_id, "frag_count": fragments, "keyframe": False, "layer": layer}
            train.extend(packet(PacketKind.RTP_VIDEO, size + i, meta) for i in range(fragments))
        elif item[0] == "bare":
            train.append(packet(PacketKind.RTP_VIDEO, item[2], {"layer": item[1]}))
        elif item[0] == "fec":
            train.append(packet(PacketKind.FEC, item[1], {"fec_group": 7, "covers": [], "repair_index": 0}))
        else:
            train.append(packet(PacketKind.RTP_AUDIO, item[1], None))
    return train


def describe(bursts, trains) -> list:
    """Every forwarded train, copy by copy; metadata by identity with the source."""
    out = []
    for burst, train in zip(bursts, trains):
        metas = []
        for packet in train:
            if packet._meta is not None and not any(packet._meta is m for m in metas):
                metas.append(packet._meta)
        described = []
        for size_total, packets in burst:
            copies = []
            for p in packets:
                index = next((i for i, m in enumerate(metas) if p._meta is m), None)
                meta = ("source", index) if index is not None else ("own", p._meta)
                copies.append((p.dst, p.flow_id, p.seq, p.kind, p.size_bytes, p.src, p.created_at, meta))
            described.append((size_total, copies))
        out.append(described)
    return out


def node_state(sim: Simulator, node: SfuNode) -> dict:
    return {
        "bytes_forwarded": node.bytes_forwarded,
        "trunk_bytes_forwarded": node.trunk_bytes_forwarded,
        "fec_bytes_added": node.fec_bytes_added,
        "layer_bytes": {n: list(s.layer_bytes.items()) for n, s in node.participants.items()},
        "forward_seq": [(k, v[0]) for k, v in node._forward_seq.items()],
        "trunk_seq": [(k, v[0]) for k, v in node._trunk_seq.items()],
        "host": (node.host.bytes_sent, node.host.packets_sent),
        "rng": sim.rng.bit_generator.state,
    }


def _on_packet(node: SfuNode, train: list[Packet]) -> None:
    assert len(train) == 1
    node.on_packet(train[0])


def replay(setup: Setup, trains_spec, handler=SfuNode.on_packet_batch) -> tuple[list, dict, list, dict]:
    """Run the trains through the reference node and the node under test."""
    results = []
    for forward in (_packet_major_reference, handler):
        sim, node, bursts = build_node(setup)
        seqs: dict[int, int] = {}
        trains = []
        for step, (sender, items) in enumerate(trains_spec):
            sim.run(until=0.02 * (step + 1))
            train = make_train(sender, items, seqs, sim.now)
            trains.append(train)
            before = len(bursts)
            forward(node, train)
            assert len(bursts) == before + 1
        results.append((describe(bursts, trains), node_state(sim, node)))
    (ref_bursts, ref_state), (new_bursts, new_state) = results
    return ref_bursts, ref_state, new_bursts, new_state


def assert_equivalent(setup: Setup, trains_spec, handler=SfuNode.on_packet_batch) -> dict:
    ref_bursts, ref_state, new_bursts, new_state = replay(setup, trains_spec, handler)
    for index, (ref, new) in enumerate(zip(ref_bursts, new_bursts)):
        assert new == ref, f"train {index} differs"
    assert new_state == ref_state
    return new_state


# ---------------------------------------------------------- fixed coverage
def _mixed_trains(vca: str) -> list:
    low, *_, high = LAYERS[vca]
    return [
        (0, [("video", low, 101, 3, 900), ("video", high, 101, 4, 1100), ("fec", 700)]),
        (1, [("audio", 120)]),
        (0, [("video", high, 102, 1, 600)]),
        (2, [("video", low, 203, 2, 800), ("audio", 110), ("video", low, 203, 2, 800)]),
        (1, [("fec", 500), ("fec", 520), ("bare", high, 400), ("video", high, 305, 5, 1200)]),
        (0, [("audio", 100), ("audio", 100)]),
        (2, [("video", high, 204, 6, 1000), ("video", low, 205, 2, 300), ("video", high, 205, 2, 300)]),
    ]


@pytest.mark.parametrize("trunks", [False, True], ids=["standalone", "trunked"])
@pytest.mark.parametrize("fec_ratio", [0.0, 0.2])
@pytest.mark.parametrize("vca", ["zoom", "meet"])
def test_fixed_trains_match_reference(vca, fec_ratio, trunks):
    low, *_, high = LAYERS[vca]
    setup = Setup(
        vca=vca,
        fec_ratio=fec_ratio,
        n_participants=5,
        forwarding=(
            ((0, 1), ((low, high), 0.6)),
            ((0, 2), ((low,), 0.25)),
            ((0, 3), (LAYERS[vca], 1.0)),
            ((1, 0), ((high,), 0.9)),
            ((2, 4), ((low,), 1.0)),
            ((2, 1), (None, 1.0)),
        ),
        hidden=((4, 0), (3, 1)),
        trunks=trunks,
        demands=(((0, 0), ((low,), True)), ((1, 2), (None, False))),
        seed=5,
    )
    assert_equivalent(setup, _mixed_trains(vca))


def _one_packet_trains(vca: str, n_participants: int) -> list:
    """One-packet trains of every kind, from every sender, over many frames."""
    low, *_, high = LAYERS[vca]
    trains = []
    for step in range(16):
        sender = step % n_participants
        trains += [
            (sender, [("video", high, 300 + step, 1, 700)]),
            (sender, [("video", low, 300 + step, 1, 500)]),
            (sender, [("audio", 120)]),
            (sender, [("bare", high, 400 + step)]),
            (sender, [("fec", 650)]),
        ]
    return trains


@pytest.mark.parametrize("handler", [SfuNode.on_packet_batch, _on_packet], ids=["batch", "packet"])
@pytest.mark.parametrize("kept", ["one", "several"])
@pytest.mark.parametrize("trunks", [False, True], ids=["standalone", "trunked"])
@pytest.mark.parametrize("fec_ratio", [0.0, 0.2])
@pytest.mark.parametrize("vca", ["zoom", "meet"])
def test_one_packet_trains_match_reference(vca, fec_ratio, trunks, kept, handler):
    low, *_, high = LAYERS[vca]
    if kept == "one":
        # Two parties: each sender has one receiver, thinned at times.
        n, forwarding, hidden = 2, (((0, 1), ((low, high), 0.6)),), ()
    else:
        n = 5
        forwarding = (
            ((0, 1), ((low, high), 0.6)),
            ((0, 2), ((low,), 0.25)),
            ((1, 0), ((high,), 0.9)),
            ((2, 4), ((low,), 1.0)),
            ((3, 0), (None, 1.0)),
        )
        hidden = ((4, 0), (3, 1))
    setup = Setup(
        vca=vca,
        fec_ratio=fec_ratio,
        n_participants=n,
        forwarding=forwarding,
        hidden=hidden,
        trunks=trunks,
        demands=(((0, 0), ((low,), True)), ((1, 1), (None, False))),
        seed=11,
    )
    state = assert_equivalent(setup, _one_packet_trains(vca, n), handler)
    untouched = Simulator(seed=setup.seed).rng.bit_generator.state
    # Zoom's relay really drew FEC uniforms; nothing else draws.
    assert (state["rng"] != untouched) == (fec_ratio > 0)
    assert state["bytes_forwarded"] > 0
    assert (state["trunk_bytes_forwarded"] > 0) == trunks


def test_thinning_and_relay_fec_are_exercised():
    """The fixed case really thins frames and draws relay FEC."""
    setup = Setup("zoom", 0.2, 4, (((0, 1), (("base", "mid"), 0.25)),), (), False, (), 3)
    sim, node, bursts = build_node(setup)
    node._on_media_batch(make_train(0, [("video", "mid", f, 2, 900) for f in range(40)], {}, 0.0))
    to_p1 = [p for size, packets in bursts[0] for p in packets if p.dst == "p1"]
    to_p2 = [p for size, packets in bursts[0] for p in packets if p.dst == "p2"]
    assert 0 < len(to_p1) < len(to_p2)
    assert node.fec_bytes_added > 0


def test_block_draws_equal_scalar_draws():
    """The relay's block of uniforms is the scalar stream, bit for bit."""
    block = np.random.default_rng(17)
    scalar = np.random.default_rng(17)
    for n in (1, 3, 8, 57, 1):
        assert block.random(n).tolist() == [scalar.random() for _ in range(n)]
    assert block.bit_generator.state == scalar.bit_generator.state


# ------------------------------------------------------------ generated
@st.composite
def setups(draw):
    vca = draw(st.sampled_from(sorted(LAYERS)))
    layers = LAYERS[vca]
    n = draw(st.integers(2, 6))
    layer_sets = st.one_of(
        st.none(),
        st.lists(st.sampled_from(layers), min_size=1, max_size=len(layers), unique=True).map(tuple),
    )
    pairs = [(s, r) for s in range(n) for r in range(n) if s != r]
    forwarding = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.tuples(layer_sets, st.sampled_from(KEEPS))),
            max_size=len(pairs),
            unique_by=lambda item: item[0],
        )
    )
    hidden = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    trunks = draw(st.booleans())
    demand_keys = [(peer, s) for peer in range(len(PEERS)) for s in range(n)]
    demands = draw(
        st.lists(
            st.tuples(st.sampled_from(demand_keys), st.tuples(layer_sets, st.booleans())),
            max_size=4,
            unique_by=lambda item: item[0],
        )
    )
    return Setup(
        vca=vca,
        fec_ratio=draw(st.sampled_from((0.0, 0.2))),
        n_participants=n,
        forwarding=tuple(forwarding),
        hidden=tuple(hidden),
        trunks=trunks,
        demands=tuple(demands),
        seed=draw(st.integers(0, 2**16)),
    )


def _items(layers):
    size = st.integers(60, 1400)
    return st.one_of(
        st.tuples(st.just("video"), st.sampled_from(layers), st.integers(0, 40), st.integers(1, 6), size),
        st.tuples(st.just("bare"), st.sampled_from(layers), size),
        st.tuples(st.just("fec"), size),
        st.tuples(st.just("audio"), size),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_trains_match_reference(data):
    setup = data.draw(setups())
    layers = LAYERS[setup.vca]
    trains = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, setup.n_participants - 1),
                st.lists(_items(layers), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    assert_equivalent(setup, trains)
