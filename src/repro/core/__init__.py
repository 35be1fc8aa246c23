"""The measurement harness -- the paper's primary contribution.

This package contains everything the authors' experiment scripts did around
the applications themselves: applying bandwidth profiles, capturing traffic,
scraping per-second WebRTC statistics, computing the paper's metrics (median
bitrate, utilization, time-to-recovery, freeze ratio, link share), automating
calls, and running every figure's seeded repetitions as a campaign
(:mod:`repro.core.campaign`) whose per-condition runs are aggregated into the
tables and figures of the evaluation.

The modules here are application-agnostic: they operate on flows, packets and
generic call handles, never on a specific VCA model (those live in
:mod:`repro.vca`), which is what lets the same harness measure any future
application model a user plugs in.
"""

from repro.core.analysis import aggregate_runs, confidence_interval, summarize_series
from repro.core.capture import FlowSeries, PacketCapture
from repro.core.metrics import (
    bitrate_timeseries,
    jains_fairness,
    link_share,
    median_bitrate_mbps,
    time_to_recovery,
    utilization,
)
from repro.core.orchestrator import CallOrchestrator, ScheduledAction
from repro.core.profiles import (
    COMPETITION_CAPACITIES_MBPS,
    DISRUPTION_LEVELS_MBPS,
    STATIC_SHAPING_LEVELS_MBPS,
    disruption_profile,
    static_profile,
    unconstrained_profile,
)
from repro.core.results import FigureSeries, TableResult, format_table
from repro.core.webrtc_stats import StatsSample, WebRTCStatsCollector

__all__ = [
    "PacketCapture",
    "FlowSeries",
    "WebRTCStatsCollector",
    "StatsSample",
    "CallOrchestrator",
    "ScheduledAction",
    "median_bitrate_mbps",
    "bitrate_timeseries",
    "utilization",
    "time_to_recovery",
    "link_share",
    "jains_fairness",
    "aggregate_runs",
    "confidence_interval",
    "summarize_series",
    "static_profile",
    "disruption_profile",
    "unconstrained_profile",
    "STATIC_SHAPING_LEVELS_MBPS",
    "DISRUPTION_LEVELS_MBPS",
    "COMPETITION_CAPACITIES_MBPS",
    "TableResult",
    "FigureSeries",
    "format_table",
]
