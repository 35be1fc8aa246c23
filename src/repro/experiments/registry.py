"""Experiment registry: table/figure id -> driver callable.

The registry is the single source of truth the benchmark harness, the
examples and ``EXPERIMENTS.md`` refer to.  Each entry maps the identifier
used in the paper (``table2``, ``fig1a`` ... ``fig15c``) to the driver that
regenerates it, together with a short description.

Every driver can be called with reduced parameters (shorter calls, fewer
repetitions, a coarser capacity grid) for quick runs; calling it with its
defaults reproduces the paper-scale campaign.  Every driver runs its grid
through :func:`repro.core.campaign.run_campaign` and takes its campaign
options -- ``workers``, ``store``, ``policy`` and ``hosts`` among them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.barometer import campaign as barometer
from repro.experiments import cascade, competition, disruption, modality, scenario, static

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible artefact of the paper."""

    experiment_id: str
    description: str
    section: str
    driver: Callable


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "table2",
            "Unconstrained upstream/downstream utilization per VCA",
            "3.1",
            static.run_unconstrained_utilization,
        ),
        ExperimentSpec(
            "fig1a",
            "Median bitrate vs uplink capacity",
            "3.1",
            functools.partial(static.run_capacity_sweep, direction="up"),
        ),
        ExperimentSpec(
            "fig1b",
            "Median bitrate vs downlink capacity",
            "3.1",
            functools.partial(static.run_capacity_sweep, direction="down"),
        ),
        ExperimentSpec(
            "fig1c",
            "Native vs browser clients under uplink shaping",
            "3.1",
            static.run_platform_comparison,
        ),
        ExperimentSpec(
            "fig2",
            "Encoding parameters (QP/FPS/width) vs capacity for Meet and Teams-Chrome",
            "3.2",
            static.run_encoding_parameters,
        ),
        ExperimentSpec(
            "fig3",
            "Freeze ratio vs downlink capacity and FIR count vs uplink capacity",
            "3.2",
            static.run_video_freezes,
        ),
        ExperimentSpec(
            "fig4a",
            "Upstream bitrate trace around a 30 s uplink disruption",
            "4.1",
            functools.partial(disruption.run_disruption_timeseries, direction="up"),
        ),
        ExperimentSpec(
            "fig4b",
            "Time to recovery vs uplink disruption severity",
            "4.1",
            functools.partial(disruption.run_ttr_sweep, direction="up"),
        ),
        ExperimentSpec(
            "fig5a",
            "Downstream bitrate trace around a 30 s downlink disruption",
            "4.2",
            functools.partial(disruption.run_disruption_timeseries, direction="down"),
        ),
        ExperimentSpec(
            "fig5b",
            "Time to recovery vs downlink disruption severity",
            "4.2",
            functools.partial(disruption.run_ttr_sweep, direction="down"),
        ),
        ExperimentSpec(
            "fig6",
            "Remote sender's upstream bitrate while the receiver's downlink is disrupted",
            "4.2",
            disruption.run_remote_sender_response,
        ),
        ExperimentSpec(
            "fig8",
            "Uplink share of incumbent VCA vs competing VCA at 0.5 Mbps",
            "5.1",
            functools.partial(competition.run_vca_vs_vca, direction="up"),
        ),
        ExperimentSpec(
            "fig9",
            "Self-competition traces (Zoom vs Zoom, Meet vs Meet) at 0.5 Mbps",
            "5.1",
            competition.run_self_competition_timeseries,
        ),
        ExperimentSpec(
            "fig10",
            "Downlink share of incumbent VCA vs competing VCA at 0.5 Mbps",
            "5.1",
            functools.partial(competition.run_vca_vs_vca, direction="down"),
        ),
        ExperimentSpec(
            "fig11",
            "Teams (incumbent) vs Zoom traces on a 1 Mbps link",
            "5.1",
            competition.run_pair_timeseries,
        ),
        ExperimentSpec(
            "fig12",
            "iPerf3 link share against each VCA on a 2 Mbps link",
            "5.2",
            competition.run_vca_vs_tcp,
        ),
        ExperimentSpec(
            "fig13",
            "Zoom probing bursts affecting a competing TCP download",
            "5.2",
            competition.run_zoom_burst_trace,
        ),
        ExperimentSpec(
            "fig14",
            "Zoom vs Netflix on a 0.5 Mbps downlink (+ Netflix TCP connection count)",
            "5.3",
            competition.run_vca_vs_streaming,
        ),
        ExperimentSpec(
            "fig15ab",
            "Uplink/downlink utilization vs participant count (gallery mode)",
            "6.1",
            functools.partial(modality.run_participant_sweep, mode="gallery"),
        ),
        ExperimentSpec(
            "scenario_sweep",
            "Netem scenario library sweep (trace-driven links, bursty loss, jitter, AQM)",
            "beyond-paper",
            scenario.run_scenario_sweep,
        ),
        ExperimentSpec(
            "cascade_sweep",
            "Cascaded SFU topology sweep (geo-distributed nodes, netem-profiled trunks)",
            "beyond-paper",
            cascade.run_cascade_sweep,
        ),
        ExperimentSpec(
            "barometer_sweep",
            "Population quality barometer (sampled households x VCAs x use cases)",
            "beyond-paper",
            barometer.run_barometer_sweep,
        ),
        ExperimentSpec(
            "fig15c",
            "Uplink utilization vs participant count when pinned (speaker mode)",
            "6.2",
            functools.partial(modality.run_participant_sweep, mode="speaker"),
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment by its paper identifier."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]


def list_experiments() -> list[str]:
    """All known experiment identifiers, sorted."""
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs: Any):
    """Run one experiment by id: ``get_experiment(experiment_id).driver(**kwargs)``.

    ``kwargs`` are the driver's grid arguments plus any campaign option of
    :func:`repro.core.campaign.run_campaign` (``workers``, ``store``,
    ``policy``, ``hosts``); a mistyped option raises ``TypeError``.
    """
    return get_experiment(experiment_id).driver(**kwargs)
