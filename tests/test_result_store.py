"""The content-addressed result store and incremental campaign sweeps.

Covers the invalidation semantics the store's correctness rests on:

* an unchanged sweep re-scores entirely from cache (zero dispatches),
* editing one scenario spec re-keys -- and re-runs -- exactly that scenario,
* a calibration-constants or store-schema bump invalidates everything,
* a corrupted store entry is discarded and re-executed, never trusted,
* warm and cold sweep results merge byte-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.experiments.scenario as scenario_mod
import repro.results.fingerprint as fingerprint_mod
from repro.calibrate.constants import COMMITTED_CONSTANTS, set_active_constants
from repro.calibrate.targets import SCENARIO_TARGETS, Target, score_targets
from repro.calibrate.verify import target_scenario_names, verify_scenarios
from repro.core.campaign import CampaignPolicy, Condition, expand_units, run_campaign
from repro.experiments.registry import run_experiment
from repro.experiments.scenario import (
    SWEEP_METRICS,
    WORKLOAD_SWEEP_METRICS,
    registry_manifest,
    run_scenario_sweep,
    scenario_cache_payload,
)
from repro.netem.scenarios import SCENARIOS, ScenarioSpec, get_scenario
from repro.results import (
    ResultStore,
    canonical_json,
    code_fingerprint,
    payload_hash,
    result_key,
    result_keys,
)
from repro.results.store import store_from_env


# Module-level so the campaign pool could pickle it; the tests run serially.
def _counted_metrics(seed: int = 0, value: float = 1.0, _calls: list = []) -> dict[str, float]:
    _calls.append(seed)
    return {"metric": value + seed, "nan_free": 0.25}


def _dispatch_log(monkeypatch) -> list[tuple[str, int]]:
    """Replace the scenario work unit with a cheap counted fake."""
    calls: list[tuple[str, int]] = []

    def fake_run(name: str, seed: int = 0, duration_s: float | None = None) -> dict[str, float]:
        calls.append((name, seed))
        base = float(len(name)) + seed
        metrics = (
            *SWEEP_METRICS,
            *WORKLOAD_SWEEP_METRICS,
            "mean_queue_delay_s",
            "cascade_freeze_gap",
        )
        return {metric: base + index for index, metric in enumerate(metrics)}

    monkeypatch.setattr(scenario_mod, "run_scenario_by_name", fake_run)
    return calls


def _reference_key(payload, seed, fingerprint: str) -> str:
    """The key format: sha256 of the whole record's canonical JSON."""
    record = {"fingerprint": fingerprint, "payload": payload, "seed": int(seed)}
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def _asdict_payload(spec: ScenarioSpec, duration_s=None) -> dict:
    """``scenario_cache_payload`` as first written, over ``dataclasses.asdict``."""
    duration = float(duration_s) if duration_s is not None else spec.duration_s
    spec_payload = dataclasses.asdict(spec)
    for optional_axis in ("workload", "pinned"):
        if spec_payload[optional_axis] is None:
            del spec_payload[optional_axis]
    payload = {"kind": "scenario", "spec": spec_payload, "duration_s": duration}
    trace_content = scenario_mod._trace_content_hashes(spec)
    if trace_content:
        payload["trace_content"] = trace_content
    return payload


def _containers(value) -> list:
    """Every dict and list inside ``value`` (tuples are walked, not listed)."""
    found = []
    if isinstance(value, dict):
        found.append(value)
        for item in value.values():
            found.extend(_containers(item))
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            found.append(value)
        for item in value:
            found.extend(_containers(item))
    return found


def _perfbench_gallery_specs() -> list[ScenarioSpec]:
    """The ad-hoc gallery specs of the benchmark's gallery-fanout workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[module_spec.name] = workloads
    try:
        module_spec.loader.exec_module(workloads)
        return [workloads.gallery_spec(vca, n) for vca, n in workloads.GALLERY_CALLS]
    finally:
        del sys.modules[module_spec.name]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
_SEEDS = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40)
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31).map(np.int64)
    | st.integers(min_value=0, max_value=2**16 - 1).map(np.uint16),
    max_size=5,
)
#: Fingerprints whose JSON rendering escapes: quotes, backslashes, control
#: characters, non-ASCII and lone surrogates.
_FINGERPRINTS = st.text(
    alphabet=st.sampled_from('ab"\\\n\t\x00\x1f/é\u2028\U0001f600\ud800'), max_size=8
) | st.just(code_fingerprint())


class TestKeys:
    @settings(max_examples=300, deadline=None)
    @given(payload=_JSON_VALUES, seeds=_SEEDS, fingerprint=_FINGERPRINTS)
    def test_result_keys_equal_per_seed_result_key(self, payload, seeds, fingerprint):
        keys = result_keys(payload, seeds, fingerprint)
        assert keys == [result_key(payload, seed, fingerprint) for seed in seeds]
        assert keys == [_reference_key(payload, seed, fingerprint) for seed in seeds]

    def test_result_keys_default_to_the_code_fingerprint(self):
        payload = {"kind": "scenario", "mbps": 2.0}
        assert result_keys(payload, [0, 1]) == result_keys(payload, [0, 1], code_fingerprint())

    def test_non_json_payload_makes_every_repetition_uncacheable(self):
        with pytest.raises(TypeError):
            result_keys({"fn": object()}, [0, 1], "fp")
        with pytest.raises(TypeError):
            result_key({"fn": object()}, 0, "fp")
        grid = [
            Condition(name="bad", fn=_counted_metrics, repetitions=3,
                      cache_payload={"fn": object()}),
            Condition(name="bad-params", fn=_counted_metrics, params={"value": object()},
                      repetitions=2),
            Condition(name="good", fn=_counted_metrics, repetitions=2),
        ]
        units, descriptors = expand_units(grid, fingerprint="fp")
        assert [unit.key for unit in units[:5]] == [None] * 5
        assert all(len(unit.key) == 64 for unit in units[5:])
        assert [d["key"] for d in descriptors] == [unit.key for unit in units]

    def test_scenario_payload_equals_the_asdict_payload(self):
        specs = [*SCENARIOS.values(), *_perfbench_gallery_specs()]
        assert len(specs) > len(SCENARIOS)
        for spec in specs:
            for duration_s in (None, 4.0):
                payload = scenario_cache_payload(spec, duration_s)
                assert payload == _asdict_payload(spec, duration_s), spec.name
                assert canonical_json(payload) == canonical_json(
                    _asdict_payload(spec, duration_s)
                )
                # A deep copy: no dict or list of the payload is the spec's.
                spec_ids = {
                    id(c) for f in dataclasses.fields(spec)
                    for c in _containers(getattr(spec, f.name))
                }
                assert not spec_ids & {id(c) for c in _containers(payload)}, spec.name

    def test_key_is_stable_across_processes(self):
        payload = {"kind": "scenario", "b": [1, 2], "a": {"x": 1.5}}
        assert result_key(payload, 3) == result_key({"a": {"x": 1.5}, "b": [1, 2], "kind": "scenario"}, 3)

    def test_key_varies_with_seed_payload_and_fingerprint(self):
        payload = {"kind": "scenario", "mbps": 2.0}
        base = result_key(payload, 0)
        assert result_key(payload, 1) != base
        assert result_key({"kind": "scenario", "mbps": 2.5}, 0) != base
        assert result_key(payload, 0, fingerprint="deadbeef") != base

    def test_unjsonable_payload_raises(self):
        with pytest.raises(TypeError):
            payload_hash({"fn": object()})

    def test_spec_edit_changes_payload_hash(self):
        spec = get_scenario("bursty-downlink-zoom")
        edited = ScenarioSpec(
            name=spec.name,
            description=spec.description,
            vca=spec.vca,
            direction=spec.direction,
            profile=("constant", {"mbps": 3.0}),
            loss=spec.loss,
            tags=spec.tags,
        )
        assert payload_hash(scenario_cache_payload(spec)) != payload_hash(
            scenario_cache_payload(edited)
        )
        # ... while the duration alone also re-keys.
        assert payload_hash(scenario_cache_payload(spec, 30.0)) != payload_hash(
            scenario_cache_payload(spec, 45.0)
        )

    def test_integer_duration_does_not_fork_the_key(self):
        spec = dataclasses.replace(get_scenario("paper/unconstrained-zoom"), duration_s=120)
        as_float = dataclasses.replace(spec, duration_s=120.0)
        assert (
            payload_hash(scenario_cache_payload(spec))
            == payload_hash(scenario_cache_payload(spec, spec.duration_s))
            == payload_hash(scenario_cache_payload(as_float))
        )

    def test_duration_coercion_leaves_registry_manifest_unchanged(self):
        """Registered specs already spell durations as floats: no key moves."""
        for name, digest in registry_manifest()["scenarios"].items():
            spec = get_scenario(name)
            assert digest == payload_hash(scenario_cache_payload(spec, spec.duration_s))
            if spec.duration_s.is_integer():
                respelled = dataclasses.replace(spec, duration_s=int(spec.duration_s))
                assert payload_hash(scenario_cache_payload(respelled)) == digest

    def test_fingerprint_tracks_constants_and_schema(self, monkeypatch):
        base = code_fingerprint()
        previous = set_active_constants(
            COMMITTED_CONSTANTS.replace(teams_bwe_held_hold_s=9.875)
        )
        try:
            assert code_fingerprint() != base
        finally:
            set_active_constants(previous)
        assert code_fingerprint() == base
        monkeypatch.setattr(fingerprint_mod, "STORE_SCHEMA_VERSION", 999)
        assert code_fingerprint() != base


class TestStore:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key({"k": 1}, 0)
        assert store.get(key) is None
        assert store.misses == 1
        stored = store.put(key, {"b": 2.5, "a": 1.0}, meta={"condition": "x"})
        assert store.get(key) == stored == {"a": 1.0, "b": 2.5}
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert store.keys() == [key]

    def test_normalize_roundtrips_floats_exactly(self):
        metrics = {"pi": 0.1 + 0.2, "tiny": 5e-324, "big": 1.2345678901234567e18, "n": 3}
        assert ResultStore.normalize(metrics) == metrics

    def test_corrupted_entry_discarded_not_trusted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key({"k": "corrupt"}, 0)
        store.put(key, {"v": 1.0})
        path = store.object_path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.discarded == 1
        assert not path.exists()
        # Valid JSON under the wrong key is equally untrusted.
        other = result_key({"k": "other"}, 0)
        store.put(other, {"v": 2.0})
        path.write_text(store.object_path(other).read_text(), encoding="utf-8")
        assert store.get(key) is None
        assert store.discarded == 2

    def test_schema_bump_invalidates_existing_entries(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = result_key({"k": 1}, 0)
        store.put(key, {"v": 1.0})
        monkeypatch.setattr(fingerprint_mod, "STORE_SCHEMA_VERSION", 999)
        assert store.get(key) is None
        assert store.discarded == 1

    def test_stale_tmp_file_never_read_or_shadowing(self, tmp_path):
        """A writer killed before the atomic rename leaves only a ``.tmp``
        file, which lookups ignore and a later good write supersedes."""
        store = ResultStore(tmp_path)
        key = result_key({"k": "torn"}, 0)
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp12345")
        tmp.write_text('{"schema": 1, "key": "', encoding="utf-8")  # torn write
        assert store.get(key) is None
        assert key not in store.keys()
        stored = store.put(key, {"v": 1.0})
        assert store.get(key) == stored == {"v": 1.0}
        assert tmp.read_text() == '{"schema": 1, "key": "', "put must not touch foreign tmp files"

    def test_truncated_entry_discarded_then_superseded(self, tmp_path):
        """A partial entry under the final name (a torn write without the
        rename protection) is discarded on read and never shadows -- nor
        survives -- a later good write."""
        store = ResultStore(tmp_path)
        key = result_key({"k": "partial"}, 0)
        good = store.put(key, {"v": 1.0})
        truncated = store.object_path(key).read_text(encoding="utf-8")[:40]
        store.object_path(key).write_text(truncated, encoding="utf-8")
        assert store.get(key) is None
        assert store.discarded == 1
        assert not store.object_path(key).exists()
        assert store.put(key, {"v": 2.0}) == {"v": 2.0}
        assert store.get(key) == {"v": 2.0} != good

    def test_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert store_from_env() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env-store"))
        store = store_from_env()
        assert store is not None and store.root == tmp_path / "env-store"


class TestCampaignCaching:
    def test_generic_conditions_cache_by_fn_and_params(self, tmp_path):
        _counted_metrics.__defaults__[-1].clear()
        calls = _counted_metrics.__defaults__[-1]
        conditions = [
            Condition(name="a", fn=_counted_metrics, params={"value": 2.0}, repetitions=2)
        ]
        store = ResultStore(tmp_path)
        cold = run_campaign(conditions, store=store)
        assert len(calls) == 2
        warm = run_campaign(conditions, store=store)
        assert len(calls) == 2, "warm campaign must not dispatch"
        assert [r.runs for r in warm] == [r.runs for r in cold]
        # A params change is a different key.
        run_campaign([Condition(name="a", fn=_counted_metrics, params={"value": 3.0})], store=store)
        assert len(calls) == 3

    def test_no_cache_reexecutes_but_refreshes(self, tmp_path):
        _counted_metrics.__defaults__[-1].clear()
        calls = _counted_metrics.__defaults__[-1]
        conditions = [Condition(name="a", fn=_counted_metrics)]
        store = ResultStore(tmp_path)
        run_campaign(conditions, store=store)
        run_campaign(conditions, store=store, use_cache=False)
        assert len(calls) == 2
        assert store.puts == 2

    def test_unwritable_store_does_not_abort_the_campaign(self, tmp_path):
        _counted_metrics.__defaults__[-1].clear()
        calls = _counted_metrics.__defaults__[-1]
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        results = run_campaign(
            [Condition(name="a", fn=_counted_metrics)], store=ResultStore(blocker)
        )
        assert len(calls) == 1
        assert results[0].runs[0]["metric"] == 1.0

    def test_store_disabled_is_the_default(self, tmp_path):
        _counted_metrics.__defaults__[-1].clear()
        calls = _counted_metrics.__defaults__[-1]
        conditions = [Condition(name="a", fn=_counted_metrics)]
        run_campaign(conditions)
        run_campaign(conditions)
        assert len(calls) == 2


class TestScenarioSweepIncremental:
    NAMES = ("bursty-downlink-zoom", "iid-downlink-zoom")

    def test_unchanged_sweep_executes_zero_simulations(self, tmp_path, monkeypatch):
        calls = _dispatch_log(monkeypatch)
        store = ResultStore(tmp_path)
        kwargs = dict(scenarios=self.NAMES, duration_s=4.0, repetitions=2, store=store)
        cold = run_scenario_sweep(**kwargs)
        assert len(calls) == 4
        store.reset_counters()
        warm = run_scenario_sweep(**kwargs)
        assert len(calls) == 4, "warm sweep dispatched a simulation"
        assert store.misses == 0 and store.hits == 4
        assert warm.rows == cold.rows

    def test_spec_edit_reruns_exactly_that_scenario(self, tmp_path, monkeypatch):
        calls = _dispatch_log(monkeypatch)
        store = ResultStore(tmp_path)
        kwargs = dict(scenarios=self.NAMES, duration_s=4.0, repetitions=2, store=store)
        run_scenario_sweep(**kwargs)
        assert len(calls) == 4
        spec = SCENARIOS["iid-downlink-zoom"]
        edited = ScenarioSpec(
            name=spec.name,
            description=spec.description,
            vca=spec.vca,
            direction=spec.direction,
            profile=spec.profile,
            loss=("iid", {"rate": 0.095}),
            tags=spec.tags,
        )
        monkeypatch.setitem(SCENARIOS, "iid-downlink-zoom", edited)
        calls.clear()
        run_scenario_sweep(**kwargs)
        assert sorted(set(name for name, _ in calls)) == ["iid-downlink-zoom"]
        assert len(calls) == 2, "only the edited scenario's repetitions re-run"

    def test_constants_bump_invalidates_everything(self, tmp_path, monkeypatch):
        calls = _dispatch_log(monkeypatch)
        store = ResultStore(tmp_path)
        kwargs = dict(scenarios=self.NAMES, duration_s=4.0, repetitions=1, store=store)
        run_scenario_sweep(**kwargs)
        assert len(calls) == 2
        previous = set_active_constants(
            COMMITTED_CONSTANTS.replace(zoom_relay_loss_smoothing=0.4375)
        )
        try:
            calls.clear()
            run_scenario_sweep(**kwargs)
            assert len(calls) == 2, "a constants change must invalidate every entry"
        finally:
            set_active_constants(previous)
        # Back on the committed constants the original entries are still warm.
        calls.clear()
        run_scenario_sweep(**kwargs)
        assert len(calls) == 0

    def test_warm_and_cold_real_sweeps_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(scenarios=self.NAMES, duration_s=2.0, repetitions=2, store=store)
        cold = run_scenario_sweep(**kwargs)
        store.reset_counters()
        warm = run_scenario_sweep(**kwargs)
        assert store.misses == 0 and store.puts == 0
        def encode(table) -> bytes:
            return json.dumps(
                {"columns": table.columns, "rows": table.rows}, sort_keys=True
            ).encode()

        assert encode(warm) == encode(cold)
        # ... and identical to a storeless run of the same grid.
        bare = run_scenario_sweep(scenarios=self.NAMES, duration_s=2.0, repetitions=2)
        assert encode(bare) == encode(cold)

    def test_registry_manifest_tracks_spec_edits(self, monkeypatch):
        base = registry_manifest(tag="beyond-paper")
        assert set(base["scenarios"]) == {
            s.name for s in SCENARIOS.values() if "beyond-paper" in s.tags
        }
        spec = SCENARIOS["bursty-downlink-zoom"]
        edited = ScenarioSpec(
            name=spec.name,
            description=spec.description,
            vca=spec.vca,
            direction=spec.direction,
            profile=("constant", {"mbps": 2.125}),
            loss=spec.loss,
            tags=spec.tags,
        )
        monkeypatch.setitem(SCENARIOS, spec.name, edited)
        after = registry_manifest(tag="beyond-paper")
        changed = [n for n in base["scenarios"] if base["scenarios"][n] != after["scenarios"][n]]
        assert changed == ["bursty-downlink-zoom"]

    def test_run_experiment_forwards_store(self, tmp_path, monkeypatch):
        calls = _dispatch_log(monkeypatch)
        store = ResultStore(tmp_path)
        run_experiment(
            "scenario_sweep",
            scenarios=self.NAMES,
            duration_s=4.0,
            repetitions=1,
            store=store,
        )
        assert len(calls) == 2 and store.puts == 2
        fig9 = {"vcas": ("zoom",), "competitor_duration_s": 3.0, "store": store}
        cold = run_experiment("fig9", **fig9)
        assert store.puts == 3
        warm = run_experiment("fig9", **fig9)
        assert store.puts == 3 and store.hits == 1
        assert warm == cold


class TestScenarioTargets:
    METRICS = {
        "bursty-downlink-zoom": {"freeze_ratio": 0.06},
        "iid-downlink-zoom": {"freeze_ratio": 0.01},
        "lte-uplink-zoom": {"rate_switches": 4.0},
        "static-2.5up-zoom": {"rate_switches": 1.0},
        "codel-downlink-zoom": {"mean_queue_delay_s": 0.02, "median_down_mbps": 0.72},
        "droptail-downlink-zoom": {"mean_queue_delay_s": 0.30, "median_down_mbps": 0.75},
        "cascade/lossy-trunk-far-freeze-zoom": {"cascade_freeze_gap": 0.05},
        # Barometer anchors score through the quality_index:* derived
        # metrics; sparse payloads exercise the formula's renormalization.
        "barometer/dsl-2p-meet": {"mean_received_fps": 24.0, "freeze_ratio": 0.0},
        "barometer/constrained-lte-5p-meet": {"mean_received_fps": 4.0, "freeze_ratio": 0.5},
        "competition/teams-vs-zoom-droptail": {"share_down": 0.35},
        "competition/zoom-vs-tcp-codel": {"share_down": 0.45},
        "competition/zoom-vs-tcp-droptail": {"share_down": 0.40, "share_up": 0.95},
    }

    def test_committed_targets_reference_registered_scenarios(self):
        for name in target_scenario_names():
            assert name in SCENARIOS, name

    def test_margin_modes(self):
        margins = score_targets(SCENARIO_TARGETS, self.METRICS)["margins"]
        assert margins["bursty-vs-iid-freeze-gap"] == pytest.approx(0.05 - 0.01)
        assert margins["lte-vs-static-rate-switches"] == pytest.approx(3.0 - 0.5)
        assert margins["codel-vs-droptail-queue-delay"] == pytest.approx(0.28 - 0.03)
        assert margins["codel-throughput-ratio"] == pytest.approx(0.72 / 0.75 - 0.8)
        assert margins["lossy-trunk-far-region-freeze"] == pytest.approx(0.05 - 0.01)
        # dsl-2p saturates both present requirements (index 1.0); the
        # constrained five-party payload bottoms both out (index 0.0).
        assert margins["barometer-dsl-two-party-floor"] == pytest.approx(1.0 - 0.60)
        assert margins["barometer-constrained-lte-5p-below-dsl-2p"] == pytest.approx(
            -0.10 - (0.0 - 1.0)
        )
        # The teams-vs-zoom share band scores both sides of one metric.
        assert margins["competition-teams-vs-zoom-down-share-ceiling"] == pytest.approx(
            0.60 - 0.35
        )
        assert margins["competition-teams-vs-zoom-down-share-floor"] == pytest.approx(
            0.35 - 0.15
        )
        assert margins["competition-codel-vs-droptail-vca-share"] == pytest.approx(
            (0.45 - 0.40) - 0.0
        )
        assert margins["competition-zoom-holds-uplink-vs-tcp"] == pytest.approx(0.95 - 0.80)
        assert all(m > 0 for m in margins.values())

    def test_margin_flips_when_behaviour_regresses(self):
        regressed = {k: dict(v) for k, v in self.METRICS.items()}
        regressed["codel-downlink-zoom"]["mean_queue_delay_s"] = 0.29
        margins = score_targets(SCENARIO_TARGETS, regressed)["margins"]
        assert margins["codel-vs-droptail-queue-delay"] < 0.0

    def test_ratio_collapse_to_zero_is_a_violation(self):
        collapsed = {k: dict(v) for k, v in self.METRICS.items()}
        collapsed["codel-downlink-zoom"]["median_down_mbps"] = 0.0
        collapsed["droptail-downlink-zoom"]["median_down_mbps"] = 0.0
        margins = score_targets(SCENARIO_TARGETS, collapsed)["margins"]
        assert margins["codel-throughput-ratio"] < 0.0
        # A baseline-only collapse is a genuinely infinite ratio, though.
        collapsed["codel-downlink-zoom"]["median_down_mbps"] = 0.1
        assert score_targets(SCENARIO_TARGETS, collapsed)["margins"]["codel-throughput-ratio"] > 0.0

    def test_invalid_target_definitions_rejected(self):
        with pytest.raises(ValueError):
            Target(
                name="x", metric="m", scenario="s", op="gt", threshold=0.0, mode="quotient"
            )
        with pytest.raises(ValueError):
            Target(
                name="x", metric="m", scenario="s", op="gt", threshold=0.0, mode="ratio"
            )

    def test_verify_scenarios_report_structure_and_cache(self, tmp_path, monkeypatch):
        calls = _dispatch_log(monkeypatch)
        store = ResultStore(tmp_path)
        report = verify_scenarios(duration_s=4.0, repetitions=2, store=store)
        expected_units = 2 * len(target_scenario_names())
        assert len(calls) == expected_units
        assert set(report["margins"]) == {t.name for t in SCENARIO_TARGETS}
        assert len(report["results"]) == len(SCENARIO_TARGETS)
        assert set(report["metrics_by_scenario"]) == set(target_scenario_names())
        calls.clear()
        warm = verify_scenarios(duration_s=4.0, repetitions=2, store=store)
        assert len(calls) == 0, "warm verification must re-score from cache"
        assert warm["margins"] == report["margins"]

    def test_verify_scenarios_reports_a_quarantined_scenario(self, monkeypatch):
        """A scenario whose every run raises is named, and only its targets go unscored."""
        _dispatch_log(monkeypatch)
        fake_run = scenario_mod.run_scenario_by_name

        def poisoned(name, seed=0, duration_s=None):
            if name == "codel-downlink-zoom":
                raise RuntimeError("poisoned scenario")
            return fake_run(name, seed=seed, duration_s=duration_s)

        monkeypatch.setattr(scenario_mod, "run_scenario_by_name", poisoned)
        by_name = {t.name: t for t in SCENARIO_TARGETS}
        targets = [by_name["codel-throughput-ratio"], by_name["bursty-freeze-floor"]]
        report = verify_scenarios(
            duration_s=4.0, repetitions=1, targets=targets,
            policy=CampaignPolicy(max_attempts=1, on_exhausted="quarantine"),
        )
        assert report["satisfied"] is False
        assert report["quarantined"] == ["codel-downlink-zoom"]
        assert set(report["margins"]) == set(report["values"]) == {"bursty-freeze-floor"}
        assert [row["name"] for row in report["results"]] == ["bursty-freeze-floor"]

    def test_verify_scenarios_writes_report(self, tmp_path, monkeypatch):
        _dispatch_log(monkeypatch)
        out = tmp_path / "SCENARIO_MARGINS.json"
        report = verify_scenarios(duration_s=4.0, repetitions=1, output_path=out)
        on_disk = json.loads(out.read_text())
        assert on_disk["satisfied"] == report["satisfied"]
        assert on_disk["targets"][0]["name"] == SCENARIO_TARGETS[0].name
