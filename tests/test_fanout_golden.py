"""Golden fan-out cells: SFU galleries and cascades replayed against committed results.

Each cell is a short multi-party call whose cost is dominated by the SFU
forwarding each sender to every other receiver.  The constrained galleries
put C1 behind a 0.5 Mbps downlink, so the SFU thins frames for it without
any cascade in the path.  For each one the test pins
the sha256 of the canonical JSON of ``ScenarioRun.metrics()``, the number of
heap events the simulator processed, and the LinkStats counters summed over
the topology's real links (access pair plus cascade trunks).  Any change to
the media plane that moves a packet, an RNG draw or a heap event shows here.

Re-record (only when results are meant to change)::

    PYTHONPATH=src python tests/test_fanout_golden.py --record
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


def fanout_specs() -> dict[str, ScenarioSpec]:
    specs = {
        f"gallery-{GALLERY_PARTIES}p-{vca}": ScenarioSpec(
            name=f"golden/gallery-{GALLERY_PARTIES}p-{vca}",
            description=f"unconstrained {GALLERY_PARTIES}-party {vca} gallery call",
            vca=vca,
            participants=GALLERY_PARTIES,
            view_mode="gallery",
        )
        for vca in ("meet", "zoom", "teams")
    }
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


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(fanout_specs()))
def test_fanout_cell_matches_golden(cell):
    golden = _golden()
    assert (golden["seed"], golden["duration_s"]) == (SEED, DURATION_S)
    assert observe(fanout_specs()[cell]) == golden["cells"][cell]


def test_golden_covers_every_cell():
    assert sorted(_golden()["cells"]) == sorted(fanout_specs())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fanout_golden.py --record")
    cells = {name: observe(spec) for name, spec in sorted(fanout_specs().items())}
    payload = {"seed": SEED, "duration_s": DURATION_S, "cells": cells}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(cells)} cells)")
