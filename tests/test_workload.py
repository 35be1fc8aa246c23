"""The scenario ``workload`` axis: grammar, keys, byte-identity, Section 5 drivers.

Pins the API-redesign contract of the cross-traffic axis:

* ``workload=None`` scenarios are byte-identical to the pre-workload layout
  (golden LinkStats + capture-bin digests recorded at the previous HEAD),
* every pre-existing workload-free scenario keeps its exact result-store
  payload hash (a warm store stays warm across the redesign), while a
  workload edit re-keys -- and re-dispatches -- exactly that cell,
* the workload grammar validates and ``("none", {})`` normalises to the
  one canonical no-workload spelling,
* compiled workloads share the measured client's access link and report
  the competition metric columns,
* the Section 5 ``run_vca_vs_*`` drivers report exactly what a direct
  ``run_scenario`` of their workload spec measures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.experiments.scenario as scenario_mod
from repro.core.results import TableResult
from repro.experiments.competition import (
    COMPETITOR_START_S,
    run_vca_vs_streaming,
    run_vca_vs_vca,
    workload_scenario_spec,
)
from repro.experiments.scenario import (
    SWEEP_METRICS,
    WORKLOAD_SWEEP_METRICS,
    run_scenario_sweep,
    scenario_cache_payload,
)
from repro.netem.scenarios import (
    CALL_START_S,
    SCENARIOS,
    WORKLOAD_CLIENT,
    WORKLOAD_PEER,
    WORKLOAD_SERVER,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.results import ResultStore, payload_hash
from repro.results.fingerprint import canonical_json

DATA_DIR = Path(__file__).parent / "data"


def _spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="t/workload",
        description="test",
        vca="zoom",
        direction="both",
        profile=("constant", {"mbps": 1.5}),
        duration_s=6.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestWorkloadGrammar:
    def test_none_normalises_to_no_workload(self):
        assert _spec(workload=("none", {})).workload is None
        assert _spec(workload=None).workload is None

    def test_none_with_params_rejected(self):
        with pytest.raises(ValueError):
            _spec(workload=("none", {"app": "zoom"}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _spec(workload=("quic_bulk", {}))

    def test_tcp_bulk_validation(self):
        with pytest.raises(ValueError):
            _spec(workload=("tcp_bulk", {"flows": 0}))
        with pytest.raises(ValueError):
            _spec(workload=("tcp_bulk", {"direction": "both"}))

    def test_streaming_app_validation(self):
        with pytest.raises(ValueError):
            _spec(workload=("streaming", {"app": "twitch"}))

    def test_negative_start_offset_rejected(self):
        with pytest.raises(ValueError):
            _spec(workload=("vca", {"start_offset_s": -1.0}))

    def test_params_detached_from_caller_dict(self):
        params = {"app": "teams"}
        spec = _spec(workload=("vca", params))
        params["app"] = "zoom"
        assert spec.workload[1]["app"] == "teams"

    def test_empty_workload_window_raises_at_run(self):
        spec = _spec(workload=("vca", {"start_offset_s": 10.0}))
        with pytest.raises(ValueError, match="workload window"):
            run_scenario(spec, seed=0)


class TestCacheKeyStability:
    def test_all_head_hashes_unchanged(self):
        """Every scenario registered before the workload axis keeps its key."""
        fixture = json.loads((DATA_DIR / "scenario_payload_hashes.json").read_text())
        assert fixture, "empty fixture"
        mismatched = {
            name: (want, payload_hash(scenario_cache_payload(get_scenario(name))))
            for name, want in fixture.items()
            if payload_hash(scenario_cache_payload(get_scenario(name))) != want
        }
        assert not mismatched, f"store keys changed vs HEAD: {mismatched}"

    def test_none_workload_payload_has_no_workload_key(self):
        payload = scenario_cache_payload(_spec())
        assert "workload" not in payload["spec"]
        # ("none", {}) normalises, so it cannot fork the key either.
        assert payload_hash(payload) == payload_hash(
            scenario_cache_payload(_spec(workload=("none", {})))
        )

    def test_workload_edit_changes_payload_hash(self):
        base = _spec(workload=("tcp_bulk", {"flows": 1, "direction": "down"}))
        edited = _spec(workload=("tcp_bulk", {"flows": 2, "direction": "down"}))
        assert payload_hash(scenario_cache_payload(base)) != payload_hash(
            scenario_cache_payload(edited)
        )
        assert payload_hash(scenario_cache_payload(base)) != payload_hash(
            scenario_cache_payload(_spec())
        )

    def test_workload_edit_redispatches_exactly_that_cell(self, tmp_path, monkeypatch):
        """A workload edit re-runs its own cell; neighbours stay cached."""
        calls: list[tuple[str, int]] = []

        def fake_run(name: str, seed: int = 0, duration_s=None) -> dict[str, float]:
            calls.append((name, seed))
            metrics = (*SWEEP_METRICS, *WORKLOAD_SWEEP_METRICS)
            return {metric: float(index) for index, metric in enumerate(metrics)}

        monkeypatch.setattr(scenario_mod, "run_scenario_by_name", fake_run)
        names = ("competition/zoom-vs-tcp-droptail", "droptail-downlink-zoom")
        store = ResultStore(tmp_path)
        kwargs = dict(scenarios=names, duration_s=4.0, repetitions=2, store=store)
        run_scenario_sweep(**kwargs)
        assert len(calls) == 4
        calls.clear()
        run_scenario_sweep(**kwargs)
        assert calls == [], "warm sweep dispatched a simulation"
        spec = SCENARIOS["competition/zoom-vs-tcp-droptail"]
        edited = ScenarioSpec(
            name=spec.name,
            description=spec.description,
            vca=spec.vca,
            direction=spec.direction,
            profile=spec.profile,
            workload=("tcp_bulk", {"flows": 3, "direction": "down"}),
            tags=spec.tags,
        )
        monkeypatch.setitem(SCENARIOS, spec.name, edited)
        run_scenario_sweep(**kwargs)
        assert sorted(set(name for name, _ in calls)) == [spec.name]
        assert len(calls) == 2, "only the edited workload cell re-runs"


class TestGoldenByteIdentity:
    def _digest(self, run) -> str:
        links = {"up": run.topology.uplink, "down": run.topology.downlink}
        stats = {}
        for label, link in links.items():
            s = link.stats
            stats[label] = {
                "packets_sent": s.packets_sent,
                "bytes_sent": s.bytes_sent,
                "packets_dropped": s.packets_dropped,
                "packets_dropped_aqm": s.packets_dropped_aqm,
                "packets_lost_random": s.packets_lost_random,
            }
        flows = {}
        for direction in ("tx", "rx"):
            for series in run.capture.flows_at("C1", direction):
                flows[f"{direction}:{series.flow_id}"] = dict(series.bins)
        payload = canonical_json({"links": stats, "flows": flows})
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_workload_free_runs_byte_identical_to_head(self):
        """LinkStats + C1 capture bins match digests recorded pre-redesign."""
        golden = json.loads((DATA_DIR / "scenario_golden_head.json").read_text())
        for name, want in golden["digests"].items():
            run = run_scenario(
                get_scenario(name), seed=golden["seed"], duration_s=golden["duration_s"]
            )
            assert self._digest(run) == want, f"{name} diverged from HEAD"


class TestWorkloadRuns:
    def test_vca_workload_compiles_hosts_and_metrics(self):
        spec = _spec(workload=("vca", {"app": "teams"}))
        run = run_scenario(spec, seed=0)
        for host in (WORKLOAD_CLIENT, WORKLOAD_PEER, WORKLOAD_SERVER):
            assert host in run.topology.hosts
        assert run.workload_call is not None
        assert run.workload_call.config.call_id == "competitor"
        metrics = run.metrics()
        for key in (*WORKLOAD_SWEEP_METRICS, "incumbent_tx_loss_rate",
                    "competitor_tx_loss_rate"):
            assert key in metrics
        assert 0.0 <= metrics["share_up"] <= 1.0
        assert 0.0 <= metrics["share_down"] <= 1.0
        assert metrics["competitor_up_mbps"] > 0.0

    def test_tcp_bulk_flow_count_and_direction(self):
        spec = _spec(workload=("tcp_bulk", {"flows": 2, "direction": "down"}))
        run = run_scenario(spec, seed=0)
        assert len(run.workload_apps) == 2
        metrics = run.metrics()
        assert metrics["competitor_down_mbps"] > 0.0
        assert "competitor_tx_loss_rate" not in metrics

    def test_streaming_workload_runs(self):
        spec = _spec(workload=("streaming", {"app": "youtube"}), duration_s=8.0)
        run = run_scenario(spec, seed=0)
        assert len(run.workload_apps) == 1
        assert run.metrics()["competitor_down_mbps"] > 0.0

    def test_workload_free_payload_has_no_competition_columns(self):
        metrics = run_scenario(_spec(), seed=0).metrics()
        for key in WORKLOAD_SWEEP_METRICS:
            assert key not in metrics

    def test_workload_window_bounds(self):
        spec = _spec(
            duration_s=10.0,
            workload=("tcp_bulk", {"start_offset_s": 2.0, "duration_s": 4.0}),
        )
        run = run_scenario(spec, seed=0)
        assert run.workload_start_s == CALL_START_S + 2.0
        assert run.workload_end_s == CALL_START_S + 6.0
        start, end = run.workload_window()
        assert start == pytest.approx(run.workload_start_s + 4.0 / 3.0)
        assert end == run.workload_end_s

    def test_household_workload_threads_into_spec(self):
        from repro.barometer.population import Household, household_scenario

        household = Household(
            index=0, tier="cable", direction="up",
            profile=("constant", {"mbps": 4.0}),
            workload=("streaming", {"app": "netflix"}),
        )
        spec = household_scenario(household, "meet", "two-party")
        assert spec.workload == ("streaming", {"app": "netflix"})


class TestSweepColumns:
    def _fake(self, monkeypatch) -> None:
        def fake_run(name: str, seed: int = 0, duration_s=None) -> dict[str, float]:
            metrics = list(SWEEP_METRICS)
            if get_scenario(name).workload is not None:
                metrics += list(WORKLOAD_SWEEP_METRICS)
            return {metric: float(index) for index, metric in enumerate(metrics)}

        monkeypatch.setattr(scenario_mod, "run_scenario_by_name", fake_run)

    def test_no_column_churn_without_workload(self, monkeypatch):
        self._fake(monkeypatch)
        table = run_scenario_sweep(
            scenarios=("droptail-downlink-zoom",), duration_s=4.0, repetitions=1
        )
        assert table.columns == ("scenario", *SWEEP_METRICS)

    def test_workload_selection_grows_columns_nan_for_plain_rows(self, monkeypatch):
        self._fake(monkeypatch)
        table = run_scenario_sweep(
            scenarios=("droptail-downlink-zoom", "competition/zoom-vs-tcp-droptail"),
            duration_s=4.0,
            repetitions=1,
        )
        assert table.columns == ("scenario", *SWEEP_METRICS, *WORKLOAD_SWEEP_METRICS)
        rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
        assert rows["competition/zoom-vs-tcp-droptail"]["share_up"] == float(
            len(SWEEP_METRICS)
        )
        assert rows["droptail-downlink-zoom"]["share_up"] != rows[
            "droptail-downlink-zoom"
        ]["share_up"]  # NaN


class TestAdapterEquivalence:
    DURATION = 6.0

    def test_vca_adapter_matches_workload_scenario_path(self):
        table = run_vca_vs_vca(
            direction="down",
            incumbents=("teams",),
            competitors=("zoom",),
            repetitions=1,
            competitor_duration_s=self.DURATION,
            seed=3,
        )
        assert isinstance(table, TableResult)
        spec = workload_scenario_spec(
            "teams", "vca", {"app": "zoom"}, 0.5, self.DURATION
        )
        assert spec.workload[1]["start_offset_s"] == COMPETITOR_START_S - CALL_START_S
        run = run_scenario(spec, seed=3, collect_stats=False)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["incumbent_share"] == run.share("down")

    def test_streaming_adapter_matches_workload_scenario_path(self):
        out = run_vca_vs_streaming(
            "zoom", "netflix", 0.5, competitor_duration_s=self.DURATION, seed=1
        )
        spec = workload_scenario_spec(
            "zoom", "streaming", {"app": "netflix"}, 0.5, self.DURATION
        )
        run = run_scenario(spec, seed=1, collect_stats=False)
        for label, host in (("zoom", "C1"), ("netflix", WORKLOAD_CLIENT)):
            x, y = run.capture.aggregate(host, "rx").timeseries(0.0, run.end_s)
            assert list(out[label].x) == [float(t) for t in x]
            assert list(out[label].y) == [float(v) for v in y]
        player = run.workload_apps[0]
        assert list(out["tcp_connections_total"].y) == [float(player.connections_opened)]
        # Fig 14b: the Netflix player opens at least one TCP connection.
        assert player.connections_opened >= 1
