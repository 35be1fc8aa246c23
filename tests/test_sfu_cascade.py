"""Cascaded SFU tests: plans, control-plane routing, and scenario runs.

The cascade subsystem (``repro.vca.sfu``) splits a call across several
:class:`SfuNode` instances joined by simulated trunks.  These tests pin the
plain-data plan validation, the BFS routing and demand propagation of
:class:`CascadeControl`, and the end-to-end path: a multi-region scenario
compiled from a :class:`ScenarioSpec` cascade axis, run through the campaign
driver, reporting per-region metrics.  Byte-identity of the single-node path
with the pre-refactor server lives in ``tests/test_fastpath_equiv.py``.
"""

from __future__ import annotations

import pytest

from repro.net.simulator import Simulator
from repro.net.topology import build_cascade_topology
from repro.netem.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    compile_cascade_plan,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    run_scenario_by_name,
)
from repro.vca.call import Call
from repro.vca.sfu import CascadeControl, CascadePlan, CascadeRegion


def _chain_plan() -> CascadePlan:
    return CascadePlan(
        regions=(
            CascadeRegion(node="R0", clients=("C1", "C2")),
            CascadeRegion(node="R1", clients=("C3",)),
            CascadeRegion(node="R2", clients=("C4", "C5")),
        ),
        trunks=(("R0", "R1"), ("R1", "R2")),
    )


class TestCascadePlanValidation:
    def test_chain_plan_accessors(self):
        plan = _chain_plan()
        assert plan.nodes == ("R0", "R1", "R2")
        assert plan.clients == ("C1", "C2", "C3", "C4", "C5")
        assert plan.node_of("C3") == "R1"
        with pytest.raises(KeyError):
            plan.node_of("C9")

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            CascadeRegion(node="R0", clients=())

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            CascadePlan(
                regions=(
                    CascadeRegion(node="R0", clients=("C1",)),
                    CascadeRegion(node="R0", clients=("C2",)),
                ),
                trunks=(("R0", "R0"),),
            )

    def test_duplicate_clients_rejected(self):
        with pytest.raises(ValueError):
            CascadePlan(
                regions=(
                    CascadeRegion(node="R0", clients=("C1",)),
                    CascadeRegion(node="R1", clients=("C1",)),
                ),
                trunks=(("R0", "R1"),),
            )

    def test_client_node_name_collision_rejected(self):
        with pytest.raises(ValueError):
            CascadePlan(
                regions=(
                    CascadeRegion(node="R0", clients=("R1",)),
                    CascadeRegion(node="R1", clients=("C2",)),
                ),
                trunks=(("R0", "R1"),),
            )

    def test_trunk_to_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            CascadePlan(
                regions=(CascadeRegion(node="R0", clients=("C1", "C2")),),
                trunks=(("R0", "R9"),),
            )

    def test_disconnected_cascade_rejected(self):
        with pytest.raises(ValueError):
            CascadePlan(
                regions=(
                    CascadeRegion(node="R0", clients=("C1",)),
                    CascadeRegion(node="R1", clients=("C2",)),
                    CascadeRegion(node="R2", clients=("C3",)),
                ),
                trunks=(("R0", "R1"),),  # R2 unreachable
            )


class TestCompileCascadePlan:
    def _spec(self, kind: str, **params) -> ScenarioSpec:
        return ScenarioSpec(
            name="x", description="x", vca="zoom", cascade=(kind, params)
        )

    def test_chain_topology(self):
        plan = compile_cascade_plan(self._spec("chain", regions=3, clients_per_region=2))
        assert plan.nodes == ("R0", "R1", "R2")
        assert plan.trunks == (("R0", "R1"), ("R1", "R2"))

    def test_star_topology_hubs_at_region_zero(self):
        plan = compile_cascade_plan(self._spec("star", regions=3, clients_per_region=2))
        assert plan.trunks == (("R0", "R1"), ("R0", "R2"))

    def test_mesh_topology(self):
        plan = compile_cascade_plan(self._spec("mesh", regions=3, clients_per_region=2))
        assert set(plan.trunks) == {("R0", "R1"), ("R0", "R2"), ("R1", "R2")}

    def test_measured_client_homed_in_region_zero(self):
        plan = compile_cascade_plan(
            self._spec("chain", regions=2, clients_per_region=[1, 3])
        )
        assert plan.regions[0].clients == ("C1",)
        assert plan.regions[1].clients == ("C2", "C3", "C4")

    def test_cascade_axis_overrides_participant_count(self):
        spec = self._spec("chain", regions=3, clients_per_region=4)
        assert spec.participants == 12

    def test_unknown_cascade_kind_rejected(self):
        with pytest.raises(ValueError):
            self._spec("ring", regions=3)

    def test_region_size_list_must_match_region_count(self):
        with pytest.raises(ValueError):
            self._spec("chain", regions=3, clients_per_region=[2, 2])


class TestCascadeControl:
    def test_next_hop_routes_along_the_chain(self):
        control = CascadeControl(_chain_plan())
        assert control.next_hop("R0", "R2") == "R1"
        assert control.next_hop("R2", "R0") == "R1"
        assert control.next_hop("R1", "R2") == "R2"
        assert control.next_hop("R1", "R1") == "R1"

    def test_children_follow_the_distribution_tree(self):
        control = CascadeControl(_chain_plan())
        # A stream homed at R0 fans R0 -> R1 -> R2: R1 must copy it onward
        # to R2, R2 is a leaf.
        assert control.children("R0", "R0") == ("R1",)
        assert control.children("R1", "R0") == ("R2",)
        assert control.children("R2", "R0") == ()
        # Homed at R2 the tree is reversed.
        assert control.children("R1", "R2") == ("R0",)

    def test_home_lookup(self):
        control = CascadeControl(_chain_plan())
        assert control.home_of("C4") == "R2"
        assert control.home_of("nobody") is None

    def test_subtree_demand_unions_children(self):
        control = CascadeControl(_chain_plan())
        # Sender C1 is homed at R0; R1's subtree toward it is {R2}.
        control.publish_demand("R2", "C1", frozenset({"base", "mid"}), audio=True)
        demand = control.subtree_demand("R1", "C1")
        assert demand.layers == frozenset({"base", "mid"})
        assert demand.audio is True

    def test_subtree_demand_none_means_forward_everything(self):
        control = CascadeControl(_chain_plan())
        control.publish_demand("R1", "C1", None, audio=True)
        # R0's downstream child for its own sender is R1, which has not
        # decided yet -> forward every layer.
        assert control.subtree_demand("R0", "C1").layers is None

    def test_leaf_subtree_demands_nothing(self):
        control = CascadeControl(_chain_plan())
        demand = control.subtree_demand("R2", "C1")
        assert demand.layers == frozenset()
        assert demand.audio is False


class TestCallCascadeValidation:
    def _topology(self, plan: CascadePlan):
        sim = Simulator(seed=0)
        topo = build_cascade_topology(sim, plan)
        return sim, topo

    def test_plan_clients_must_match_participants(self):
        plan = CascadePlan(
            regions=(CascadeRegion(node="R0", clients=("C1", "C9")),), trunks=()
        )
        sim = Simulator(seed=0)
        topo = build_cascade_topology(
            sim,
            CascadePlan(
                regions=(CascadeRegion(node="R0", clients=("C1", "C2")),), trunks=()
            ),
        )
        with pytest.raises(ValueError, match="match call participants"):
            Call(
                sim,
                [topo.host("C1"), topo.host("C2")],
                topo.host("R0"),
                cascade=plan,
                cascade_hosts={"R0": topo.host("R0")},
            )

    def test_cascade_hosts_must_cover_every_node(self):
        plan = CascadePlan(
            regions=(CascadeRegion(node="R0", clients=("C1", "C2")),), trunks=()
        )
        sim, topo = self._topology(plan)
        with pytest.raises(ValueError, match="cascade_hosts"):
            Call(
                sim,
                [topo.host("C1"), topo.host("C2")],
                topo.host("R0"),
                cascade=plan,
                cascade_hosts=None,
            )


class TestCascadeScenarios:
    def test_cascade_pack_registered(self):
        pack = list_scenarios(tag="cascade")
        assert len(pack) >= 4
        assert all(spec.cascade is not None for spec in pack)
        # The promoted directional gate's scenario is part of the pack.
        assert any(spec.name == "cascade/lossy-trunk-far-freeze-zoom" for spec in pack)

    def test_two_region_run_reports_cascade_metrics(self):
        spec = ScenarioSpec(
            name="t-2region",
            description="two-region star, shaped trunk",
            vca="zoom",
            profile=("constant", {"mbps": 4.0}),
            cascade=(
                "star",
                {
                    "regions": 2,
                    "clients_per_region": 2,
                    "trunk": {"profile": ("constant", {"mbps": 3.0})},
                },
            ),
            duration_s=6.0,
        )
        run = run_scenario(spec, seed=0)
        metrics = run.metrics()
        assert metrics["cascade_freeze_ratio_R0"] >= 0.0
        assert metrics["cascade_freeze_ratio_R1"] >= 0.0
        assert "cascade_freeze_gap" in metrics
        assert metrics["trunk_bytes_sent"] > 0.0
        assert metrics["trunk_mean_mbps"] > 0.0
        # The shared control plane wired every node and cached trunk plans.
        control = run.call.control
        assert control is not None
        assert set(control.nodes) == {"R0", "R1"}
        assert run.call.client("C3").stats is not None

    def test_cascade_scenario_is_seed_deterministic(self):
        spec = get_scenario("cascade/2region-lte-trunk-zoom")
        a = run_scenario(spec, seed=3, duration_s=5.0).metrics()
        b = run_scenario(spec, seed=3, duration_s=5.0).metrics()
        assert a == b

    def test_bad_trunk_impair_direction_rejected(self):
        spec = ScenarioSpec(
            name="t-baddir",
            description="invalid trunk impair direction",
            vca="zoom",
            cascade=(
                "chain",
                {
                    "regions": 2,
                    "clients_per_region": 1,
                    "trunk": {
                        "loss": ("iid", {"rate": 0.01}),
                        "impair_direction": "sideways",
                    },
                },
            ),
            duration_s=4.0,
        )
        with pytest.raises(ValueError, match="impair_direction"):
            run_scenario(spec, seed=0)


class TestCascadeSweepDriver:
    def test_three_region_twelve_participants_through_run_campaign(self):
        """Acceptance: a 3-region, 12-participant cascade completes through
        the campaign driver and reports per-region metrics."""
        from repro.experiments.cascade import run_cascade_sweep

        spec = ScenarioSpec(
            name="t-cascade/3region-12p",
            description="three-region chain, four clients per region",
            vca="zoom",
            profile=("constant", {"mbps": 6.0}),
            cascade=("chain", {"regions": 3, "clients_per_region": 4}),
            duration_s=5.0,
        )
        assert spec.participants == 12
        register_scenario(spec)
        try:
            table = run_cascade_sweep(
                scenarios=[spec.name], duration_s=5.0, repetitions=1
            )
        finally:
            SCENARIOS.pop(spec.name)
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["scenario"] == spec.name
        for region in range(3):
            assert row[f"cascade_freeze_ratio_R{region}"] >= 0.0
        assert row["trunk_mean_mbps"] > 0.0

    def test_sweep_rejects_non_cascade_scenarios(self):
        from repro.experiments.cascade import run_cascade_sweep

        with pytest.raises(ValueError, match="no cascade axis"):
            run_cascade_sweep(scenarios=["iid-downlink-zoom"], duration_s=4.0)

    def test_registry_exposes_cascade_sweep(self):
        from repro.experiments.cascade import run_cascade_sweep
        from repro.experiments.registry import get_experiment

        spec = get_experiment("cascade_sweep")
        assert spec.driver is run_cascade_sweep

    def test_cascade_metrics_flow_through_run_scenario_by_name(self):
        metrics = run_scenario_by_name(
            "cascade/trunk-droptail-zoom", seed=0, duration_s=4.0
        )
        assert "cascade_freeze_gap" in metrics
        assert "trunk_tx_loss_rate" in metrics
