"""Golden fan-out cells: SFU galleries and cascades replayed against committed results.

Each cell is a short multi-party call whose cost is dominated by the SFU
forwarding each sender to every other receiver.  The 16-party galleries pin
the largest calls: Teams' relayed end-to-end reports and Zoom's per-receiver
report aggregation plus relay FEC.  The constrained galleries put C1 behind
a 0.5 Mbps downlink, so the SFU thins frames for it without any cascade in
the path.  For each one the test pins
the sha256 of the canonical JSON of ``ScenarioRun.metrics()``, the number of
heap events the simulator processed, and the LinkStats counters summed over
the topology's real links (access pair plus cascade trunks).  Any change to
the media plane that moves a packet, an RNG draw or a heap event shows here.

Record a new cell (only the named cells are observed and written)::

    PYTHONPATH=src python tests/test_fanout_golden.py --record NAME...

Recording refuses a cell that is already committed, so adding cells cannot
silently re-pin old ones.  To re-pin a cell on purpose (only when results
are meant to change), delete its entry from the JSON file first.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.netem.scenarios import ScenarioSpec, get_scenario, run_scenario

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "fanout_golden.json"
SEED = 2
DURATION_S = 6.0
GALLERY_PARTIES = 9
LARGE_GALLERY_PARTIES = 16
CONSTRAINED_PARTIES = 5
CONSTRAINED_DOWN_MBPS = 0.5
CASCADES = ("cascade/3region-chain-meet", "cascade/trunk-codel-zoom")
LINK_FIELDS = (
    "packets_sent",
    "packets_dropped",
    "packets_lost_random",
    "packets_dropped_aqm",
    "bytes_sent",
    "bytes_dropped",
)


def _gallery(parties: int, vca: str) -> tuple[str, ScenarioSpec]:
    name = f"gallery-{parties}p-{vca}"
    return name, ScenarioSpec(
        name=f"golden/{name}",
        description=f"unconstrained {parties}-party {vca} gallery call",
        vca=vca,
        participants=parties,
        view_mode="gallery",
    )


def fanout_specs() -> dict[str, ScenarioSpec]:
    specs = dict(_gallery(GALLERY_PARTIES, vca) for vca in ("meet", "zoom", "teams"))
    specs.update(_gallery(LARGE_GALLERY_PARTIES, vca) for vca in ("teams", "zoom"))
    specs.update(
        {
            f"constrained-{CONSTRAINED_PARTIES}p-{vca}": ScenarioSpec(
                name=f"golden/constrained-{CONSTRAINED_PARTIES}p-{vca}",
                description=(
                    f"{CONSTRAINED_PARTIES}-party {vca} gallery call, "
                    f"C1 behind a {CONSTRAINED_DOWN_MBPS} Mbps downlink"
                ),
                vca=vca,
                direction="down",
                profile=("constant", {"mbps": CONSTRAINED_DOWN_MBPS}),
                participants=CONSTRAINED_PARTIES,
                view_mode="gallery",
            )
            for vca in ("meet", "zoom")
        }
    )
    specs.update({name: get_scenario(name) for name in CASCADES})
    return specs


def observe(spec: ScenarioSpec) -> dict:
    """Metrics digest, heap-event count and summed LinkStats of one cell."""
    run = run_scenario(spec, seed=SEED, duration_s=DURATION_S)
    text = json.dumps(run.metrics(), sort_keys=True, separators=(",", ":"))
    topology = run.topology
    links = [topology.uplink, topology.downlink, *getattr(topology, "trunk_links", {}).values()]
    return {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "events": run.sim.events_processed,
        "links": {f: sum(getattr(link.stats, f) for link in links) for f in LINK_FIELDS},
    }


def _golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def record(names, path: Path = GOLDEN_PATH, observe=observe) -> None:
    """Observe the named cells and add them to the golden file at ``path``.

    Raises ``ValueError`` before observing anything if a name is unknown or
    already committed: an existing cell is never overwritten.
    """
    specs = fanout_specs()
    unknown = sorted(set(names) - set(specs))
    if unknown:
        raise ValueError(f"unknown cells: {', '.join(unknown)}")
    if path.exists():
        payload = _golden(path)
    else:
        payload = {"seed": SEED, "duration_s": DURATION_S, "cells": {}}
    if (payload["seed"], payload["duration_s"]) != (SEED, DURATION_S):
        raise ValueError(f"{path} was recorded at another seed or duration")
    committed = sorted(set(names) & set(payload["cells"]))
    if committed:
        raise ValueError(
            f"refusing to overwrite committed cells: {', '.join(committed)}"
            f" (delete them from {path.name} to re-pin)"
        )
    for name in names:
        payload["cells"][name] = observe(specs[name])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("cell", sorted(fanout_specs()))
def test_fanout_cell_matches_golden(cell):
    golden = _golden()
    assert (golden["seed"], golden["duration_s"]) == (SEED, DURATION_S)
    assert observe(fanout_specs()[cell]) == golden["cells"][cell]


def test_golden_covers_every_cell():
    assert sorted(_golden()["cells"]) == sorted(fanout_specs())


def test_record_writes_only_the_named_cells(tmp_path):
    path = tmp_path / "golden.json"
    committed = {"gallery-9p-meet": {"digest": "old"}}
    path.write_text(json.dumps({"seed": SEED, "duration_s": DURATION_S, "cells": committed}))
    observed = []

    def fake_observe(spec):
        observed.append(spec.name)
        return {"digest": spec.name}

    record(["gallery-16p-zoom"], path, observe=fake_observe)
    assert observed == ["golden/gallery-16p-zoom"]
    assert _golden(path)["cells"] == {
        "gallery-9p-meet": {"digest": "old"},
        "gallery-16p-zoom": {"digest": "golden/gallery-16p-zoom"},
    }


@pytest.mark.parametrize(
    "names, message",
    [(["gallery-9p-meet", "gallery-16p-zoom"], "refusing to overwrite"), (["gallery-3p-x"], "unknown")],
)
def test_record_refuses_committed_and_unknown_cells(tmp_path, names, message):
    path = tmp_path / "golden.json"
    text = json.dumps({"seed": SEED, "duration_s": DURATION_S, "cells": {"gallery-9p-meet": {}}})
    path.write_text(text)

    def fail_observe(spec):
        raise AssertionError("observed a cell before refusing")

    with pytest.raises(ValueError, match=message):
        record(names, path, observe=fail_observe)
    assert path.read_text() == text


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) < 3:
        sys.exit("usage: PYTHONPATH=src python tests/test_fanout_golden.py --record NAME...")
    try:
        record(sys.argv[2:])
    except ValueError as error:
        sys.exit(str(error))
    print(f"wrote {', '.join(sys.argv[2:])} to {GOLDEN_PATH}")
