"""Golden figure values: the Section 3-6 drivers vs committed results.

Each cell runs one paper driver -- Table 2, Figures 1a/1b/1c, 2, 3, 4a/4b,
5a/5b, 6, 8-14 and 15a/b/c, plus the broadband-planning example's grid
cell -- on a reduced grid (one or two repetitions and levels, 15-20 s calls,
a disruption placed inside the call, a 15 s competitor window) and pins the
sha256 of the canonical JSON of everything the driver returns: every x, y
and CI value, series name, label and table row.  Any change that moves one
figure value, however little, shows here; the y-values are kept in clear
for a readable diff.  Every driver cell must also reproduce its digest run
cold into a fresh result store and again warm from it, without simulating.

Re-record (only when results are meant to change)::

    PYTHONPATH=src python tests/test_figure_golden.py --record
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.results import FigureSeries, TableResult
from repro.results import ResultStore
from repro.experiments.competition import (
    run_pair_timeseries,
    run_self_competition_timeseries,
    run_vca_vs_streaming,
    run_vca_vs_tcp,
    run_vca_vs_vca,
    run_zoom_burst_trace,
)
from repro.experiments.disruption import (
    run_disruption_timeseries,
    run_remote_sender_response,
    run_ttr_sweep,
)
from repro.experiments.modality import run_participant_sweep
from repro.experiments.static import (
    run_capacity_sweep,
    run_encoding_parameters,
    run_platform_comparison,
    run_unconstrained_utilization,
    run_video_freezes,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "data" / "figure_golden.json"
SEED = 5
SHORT_S = 15.0
#: Disruption cells: a 5 s drop starting 8 s into a 20 s call.
DISRUPTED_S = 20.0
DROP = {"drop_at_s": 8.0, "drop_duration_s": 5.0}
ONE = {"repetitions": 1, "seed": SEED}
#: Section 5 cells: a 15 s competitor window inside the paper's timeline.
COMPETITOR = {"competitor_duration_s": SHORT_S, "seed": SEED}


def _broadband_planning() -> list[dict[str, float]]:
    spec = importlib.util.spec_from_file_location(
        "broadband_planning", ROOT / "examples" / "broadband_planning.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        module.measure_uplink_requirement(vca, capacity, duration_s=SHORT_S, seed=SEED)
        for vca, capacity in (("meet", 1.0), ("zoom", 0.5))
    ]


#: Each driver cell: the driver and its reduced-grid arguments.
DRIVER_CELLS = {
    "table2": (run_unconstrained_utilization, dict(
        vcas=("meet", "teams", "zoom"), duration_s=SHORT_S, repetitions=2, seed=SEED
    )),
    "fig1a": (run_capacity_sweep, dict(
        direction="up", vcas=("zoom", "meet", "teams"), levels_mbps=(0.5, 1.0),
        duration_s=SHORT_S, **ONE
    )),
    "fig1b": (run_capacity_sweep, dict(
        direction="down", vcas=("teams", "meet"), levels_mbps=(0.8,), duration_s=SHORT_S, **ONE
    )),
    "fig1c": (run_platform_comparison, dict(
        vcas=("teams-chrome", "zoom-chrome"), levels_mbps=(0.5,), duration_s=SHORT_S, **ONE
    )),
    "fig2-down": (run_encoding_parameters, dict(
        direction="down", vcas=("meet", "teams-chrome"), levels_mbps=(0.5,),
        duration_s=SHORT_S, **ONE
    )),
    "fig2-up": (run_encoding_parameters, dict(
        direction="up", vcas=("meet", "teams-chrome"), levels_mbps=(0.5,),
        duration_s=SHORT_S, **ONE
    )),
    "fig3": (run_video_freezes, dict(
        vcas=("meet", "teams-chrome"), levels_mbps=(0.3, 1.0), duration_s=SHORT_S, **ONE
    )),
    "fig4a": (run_disruption_timeseries, dict(
        direction="up", drop_to_mbps=0.25, vcas=("zoom", "teams", "meet"),
        duration_s=DISRUPTED_S, **ONE, **DROP
    )),
    "fig5a": (run_disruption_timeseries, dict(
        direction="down", drop_to_mbps=0.25, vcas=("meet", "teams"),
        duration_s=DISRUPTED_S, **ONE, **DROP
    )),
    "fig4b": (run_ttr_sweep, dict(
        direction="up", vcas=("meet", "zoom"), levels_mbps=(0.25,),
        duration_s=DISRUPTED_S, **ONE, **DROP
    )),
    "fig5b": (run_ttr_sweep, dict(
        direction="down", vcas=("zoom", "teams"), levels_mbps=(0.25,),
        duration_s=DISRUPTED_S, **ONE, **DROP
    )),
    "fig6": (run_remote_sender_response, dict(
        vcas=("meet", "teams"), duration_s=DISRUPTED_S, **ONE, **DROP
    )),
    "fig8": (run_vca_vs_vca, dict(
        direction="up", capacity_mbps=0.5, incumbents=("zoom", "meet"),
        competitors=("meet", "zoom"), repetitions=1, **COMPETITOR
    )),
    "fig9": (run_self_competition_timeseries, dict(
        vcas=("zoom", "meet"), capacity_mbps=0.5, **COMPETITOR
    )),
    "fig10": (run_vca_vs_vca, dict(
        direction="down", capacity_mbps=0.5, incumbents=("teams",),
        competitors=("zoom", "meet"), repetitions=1, **COMPETITOR
    )),
    "fig11": (run_pair_timeseries, dict(
        incumbent="teams", competitor="zoom", capacity_mbps=1.0, **COMPETITOR
    )),
    "fig12": (run_vca_vs_tcp, dict(
        capacity_mbps=2.0, vcas=("zoom", "teams"), repetitions=1, **COMPETITOR
    )),
    "fig13": (run_zoom_burst_trace, dict(capacity_mbps=2.0, **COMPETITOR)),
    "fig14": (run_vca_vs_streaming, dict(
        vca="zoom", app="netflix", capacity_mbps=0.5, **COMPETITOR
    )),
    "fig15ab": (run_participant_sweep, dict(
        mode="gallery", vcas=("zoom", "meet", "teams"), participant_counts=(2, 5),
        duration_s=SHORT_S, **ONE
    )),
    "fig15c": (run_participant_sweep, dict(
        mode="speaker", vcas=("zoom", "teams", "meet"), participant_counts=(3, 6),
        duration_s=SHORT_S, **ONE
    )),
}

CELLS = {
    **{
        name: functools.partial(driver, **kwargs)
        for name, (driver, kwargs) in DRIVER_CELLS.items()
    },
    "example/broadband-planning": _broadband_planning,
}


def _plain(value):
    """A driver result as plain JSON data (series and tables flattened)."""
    if isinstance(value, (FigureSeries, TableResult)):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _y_values(value):
    """The y-values (or table rows, or metric dicts) of a flattened result."""
    if isinstance(value, dict):
        if "y" in value:
            return value["y"]
        if "rows" in value:
            return value["rows"]
        return {key: _y_values(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_y_values(item) for item in value]
    return value


def observe(cell: str, **campaign) -> dict:
    """The digest of a cell's full driver output plus its y-values in clear.

    ``campaign`` options (``store``, ``workers``, ...) reach the driver.
    """
    observation = _plain(CELLS[cell](**campaign))
    text = json.dumps(observation, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "y": _y_values(observation),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_figure_cell_matches_golden(cell):
    expected = _golden()["cells"][cell]
    observed = observe(cell)
    assert observed["digest"] == expected["digest"], (observed["y"], expected["y"])


@pytest.mark.parametrize("cell", sorted(DRIVER_CELLS))
def test_figure_cell_rescores_warm_from_a_store(cell, tmp_path):
    """A cold run into a fresh store and a warm re-run both match the
    golden digest; the cold run stores every unit and the warm run
    simulates none."""
    expected = _golden()["cells"][cell]["digest"]
    store = ResultStore(tmp_path)
    units = []
    cold = observe(cell, store=store, progress=units.append)
    assert cold["digest"] == expected, cold["y"]
    assert units and store.puts == len(units) and store.hits == 0
    store.reset_counters()
    warm = []
    assert observe(cell, store=store, progress=warm.append)["digest"] == expected
    assert store.hits == len(warm) == len(units) and store.puts == 0


def test_golden_covers_every_cell():
    golden = _golden()
    assert golden["seed"] == SEED
    assert sorted(golden["cells"]) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_figure_golden.py --record")
    cells = {name: observe(name) for name in sorted(CELLS)}
    payload = {"seed": SEED, "cells": cells}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(cells)} cells)")
