"""The recorded paper claims: one :class:`Target` type, two tables, one scorer.

A :class:`Target` compares one metric of a named *scenario* -- a Section 5
calibration cell of :data:`repro.calibrate.sweep.CELLS` or a registered
netem scenario -- against a committed threshold, on its own value or as a
difference/ratio against a baseline.  :func:`score_targets` gives each
target a value and a margin (positive = the behaviour is reproduced), so a
regression that shrinks an effect without flipping its sign still shows.

The two tables differ only in what simulates them.  :data:`FIGURE_TARGETS`
reads the Section 5 cells that :func:`repro.calibrate.sweep.verify_committed`
and the calibration sweep run; a candidate constant set satisfies them only
when every margin is positive, the joint constraint that keeps a fig10 fix
from silently breaking fig8 or fig14.  :data:`SCENARIO_TARGETS` reads
registered scenarios and is scored by
:func:`repro.calibrate.verify.verify_scenarios`.  Each claim is stated here
once; no benchmark restates a threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "Target",
    "FIGURE_TARGETS",
    "SCENARIO_TARGETS",
    "resolve_metric",
    "score_targets",
    "targets_payload",
]


def resolve_metric(metrics: Mapping[str, float], metric: str) -> float:
    """One scenario's value of a (possibly derived) target metric.

    Plain keys read the aggregated metric payload directly;
    ``"quality_index:<use-case>"`` applies the barometer use-case formula
    to the payload.  The formula module is pure data + arithmetic, so the
    lazy import cannot cycle back into the simulation layers.
    """
    if metric.startswith("quality_index:"):
        from repro.barometer.formula import quality_index

        return float(quality_index(metrics, metric.split(":", 1)[1]))
    return float(metrics[metric])


@dataclass(frozen=True)
class Target:
    """One recorded behaviour: a metric of a scenario against a threshold.

    The value is the scenario's own metric (``mode="value"``) or its gap /
    ratio against a *baseline* scenario (``"difference"`` / ``"ratio"``),
    which may be the same scenario read through another metric.
    Its margin (:func:`score_targets`) is positive when the behaviour is
    reproduced, negative by the amount it is violated; ``recorded``
    keeps the values measured when the threshold was committed, so humans
    can see how much headroom a regression has eaten.
    """

    #: Unique name; margin and value dictionaries are keyed by it.
    name: str
    #: Key of the scenario's aggregated metrics (a calibration cell's unit
    #: payload, or :meth:`repro.netem.scenarios.ScenarioRun.metrics`), or a
    #: derived ``"quality_index:<use-case>"`` metric -- the barometer's
    #: weighted formula (:mod:`repro.barometer.formula`) applied to them.
    metric: str
    #: Calibration cell or registered scenario supplying the primary value.
    scenario: str
    #: ``"gt"`` or ``"lt"`` on the derived value.
    op: str
    #: The committed threshold the derived value is compared against.
    threshold: float
    #: Scenario supplying the comparison value (difference/ratio).
    baseline: Optional[str] = None
    #: Metric evaluated on the baseline scenario; defaults to ``metric``.
    #: Lets a target compare two metrics of one scenario (fig14's two
    #: receivers) or *different use cases* across scenarios (a constrained
    #: tier's five-party index against a healthy tier's two-party index).
    baseline_metric: Optional[str] = None
    #: ``"value"``, ``"difference"`` (scenario - baseline) or ``"ratio"``
    #: (scenario / baseline).
    mode: str = "value"
    #: What the paper measured, or why the behaviour is expected.
    note: str = ""
    #: ``{"duration=<s>": measured value}`` at commit time.
    recorded: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in ("lt", "gt"):
            raise ValueError(f"target {self.name!r}: unknown op {self.op!r}")
        if self.mode not in ("value", "difference", "ratio"):
            raise ValueError(f"target {self.name!r}: unknown mode {self.mode!r}")
        if self.mode != "value" and self.baseline is None:
            raise ValueError(f"target {self.name!r} needs a baseline scenario")
        if self.baseline_metric is not None and self.baseline is None:
            raise ValueError(f"target {self.name!r} sets baseline_metric without a baseline")

    def reads(self) -> list[tuple[str, str]]:
        """The ``(scenario, metric)`` pairs the value is derived from."""
        pairs = [(self.scenario, self.metric)]
        if self.baseline is not None:
            pairs.append((self.baseline, self.baseline_metric or self.metric))
        return pairs

    def value(self, metrics_by_scenario: Mapping[str, Mapping[str, float]]) -> float:
        """The derived value this target thresholds."""
        primary, *reference = (
            resolve_metric(metrics_by_scenario[scenario], metric)
            for scenario, metric in self.reads()
        )
        if self.mode == "value":
            return primary
        (reference,) = reference
        if self.mode == "difference":
            return primary - reference
        if reference == 0.0:
            # 0/0 must read as a violated ratio, not a vacuously infinite
            # one: a regression that collapses both sides to zero has to
            # fail the target, while baseline-only collapse is a real inf.
            return float("inf") if primary > 0.0 else 0.0
        return primary / reference


def score_targets(
    targets: Sequence[Target], metrics_by_scenario: Mapping[str, Mapping[str, float]]
) -> dict[str, dict[str, float]]:
    """``{"values": ..., "margins": ...}``, each keyed by target name.

    A target that reads a scenario missing from ``metrics_by_scenario``
    (every run of it quarantined) is in neither mapping.
    """
    values: dict[str, float] = {}
    margins: dict[str, float] = {}
    for target in targets:
        if all(scenario in metrics_by_scenario for scenario, _ in target.reads()):
            values[target.name] = value = target.value(metrics_by_scenario)
            margins[target.name] = (
                target.threshold - value if target.op == "lt" else value - target.threshold
            )
    return {"values": values, "margins": margins}


def targets_payload(targets: Sequence[Target]) -> list[dict[str, Any]]:
    """The target definitions as recorded in a report; unset fields left out."""
    return [
        {key: value for key, value in asdict(t).items() if value is not None and value != {}}
        for t in targets
    ]


#: The Section 5 figure claims, over the cells of
#: :data:`repro.calibrate.sweep.CELLS`.  A ``[times, mbps]`` trace metric
#: (fig14's ``rx:<host>``) reads as the mean of its per-second bins inside
#: the fig14 window.
FIGURE_TARGETS: tuple[Target, ...] = (
    Target(
        name="fig8-zoom-vs-meet-up",
        metric="share_up",
        scenario="fig8-zoom-vs-meet",
        op="gt",
        threshold=0.5,
        note="Zoom (incumbent) keeps the larger uplink share against Meet (Fig 8a)",
    ),
    Target(
        name="fig8-meet-vs-zoom-up",
        metric="share_up",
        scenario="fig8-meet-vs-zoom",
        op="lt",
        threshold=0.5,
        note="Meet (incumbent) backs off when a Zoom call joins (Fig 8c)",
    ),
    Target(
        name="fig10-teams-vs-zoom-down",
        metric="share_down",
        scenario="fig10-teams-vs-zoom",
        op="lt",
        threshold=0.6,
        note="Teams is passive on the downlink against Zoom (Fig 10b)",
    ),
    Target(
        name="fig10-zoom-tx-loss-floor",
        metric="competitor_tx_loss_rate",
        scenario="fig10-teams-vs-zoom",
        op="gt",
        threshold=0.40,
        note="Zoom's relay keeps flooding through sustained 40%+ downlink loss "
        "(relay tx vs client rx, measured)",
    ),
    Target(
        name="fig10-zoom-tx-loss-ceiling",
        metric="competitor_tx_loss_rate",
        scenario="fig10-teams-vs-zoom",
        op="lt",
        threshold=0.75,
        note="Sustained-loss layer shedding bounds the relay's tx-side flood "
        "at the competition floor",
    ),
    Target(
        name="fig12-teams-down-share",
        metric="share_down",
        scenario="fig12-teams-down",
        op="lt",
        threshold=0.5,
        note="iPerf3 takes well over half the downlink from Teams (~80 %, Fig 12)",
    ),
    Target(
        name="fig12-teams-up-share",
        metric="share_up",
        scenario="fig12-teams-up",
        op="lt",
        threshold=0.5,
        note="iPerf3 takes well over half the uplink from Teams (~63 %, Fig 12)",
    ),
    Target(
        name="fig12-zoom-minus-teams-down",
        metric="share_down",
        scenario="fig12-zoom-down",
        baseline="fig12-teams-down",
        mode="difference",
        op="gt",
        threshold=0.0,
        note="Zoom holds its own against TCP far better than Teams (Fig 12)",
    ),
    Target(
        name="fig14-zoom-minus-netflix-mbps",
        metric="rx:C1",
        scenario="fig14-zoom-vs-netflix",
        baseline="fig14-zoom-vs-netflix",
        baseline_metric="rx:F1",
        mode="difference",
        op="gt",
        threshold=0.0,
        note="Zoom starves Netflix on a 0.5 Mbps downlink (Fig 14a)",
    ),
)


#: The committed scenario claims.  Thresholds sit well inside the values
#: measured at both verification durations (10 s and 45 s, mean of seeds
#: 0-2), so every margin is positive at both scales.
SCENARIO_TARGETS: tuple[Target, ...] = (
    Target(
        name="bursty-vs-iid-freeze-gap",
        metric="freeze_ratio",
        scenario="bursty-downlink-zoom",
        baseline="iid-downlink-zoom",
        mode="difference",
        op="gt",
        threshold=0.01,
        note=(
            "~24-packet Gilbert-Elliott bursts at 8% mean loss defeat "
            "FEC/recovery and freeze the video; i.i.d. loss at the same "
            "mean is absorbed"
        ),
        recorded={"duration=10": 0.034, "duration=45": 0.071},
    ),
    Target(
        name="bursty-freeze-floor",
        metric="freeze_ratio",
        scenario="bursty-downlink-zoom",
        mode="value",
        op="gt",
        threshold=0.01,
        note="burst loss produces a non-trivial amount of frozen video",
        recorded={"duration=10": 0.034, "duration=45": 0.071},
    ),
    Target(
        name="lte-vs-static-rate-switches",
        metric="rate_switches",
        scenario="lte-uplink-zoom",
        baseline="static-2.5up-zoom",
        mode="difference",
        op="gt",
        threshold=0.5,
        note=(
            "a trace-driven LTE capacity process keeps the rate controller "
            "re-deciding; static shaping at the same 2.5 Mbps mean does not"
        ),
        recorded={"duration=10": 1.0, "duration=45": 6.33},
    ),
    Target(
        name="codel-vs-droptail-queue-delay",
        metric="mean_queue_delay_s",
        scenario="droptail-downlink-zoom",
        baseline="codel-downlink-zoom",
        mode="difference",
        op="gt",
        threshold=0.03,
        note="CoDel holds the standing queue near its target; drop-tail bufferbloats",
        recorded={"duration=10": 0.107, "duration=45": 0.467},
    ),
    Target(
        name="lossy-trunk-far-region-freeze",
        metric="cascade_freeze_gap",
        scenario="cascade/lossy-trunk-far-freeze-zoom",
        mode="value",
        op="gt",
        threshold=0.01,
        note=(
            "in a cascaded two-region call with a bursty-lossy forward "
            "trunk, far-region receivers freeze while the near region "
            "(co-located with every sender's ingest node) stays clean -- "
            "the trunk is the only path that can hurt them"
        ),
        recorded={"duration=10": 0.067, "duration=45": 0.040},
    ),
    Target(
        name="barometer-dsl-two-party-floor",
        metric="quality_index:two-party",
        scenario="barometer/dsl-2p-meet",
        mode="value",
        op="gt",
        threshold=0.60,
        note=(
            "a representative DSL-tier household comfortably sustains a "
            "two-party call: every barometer requirement sits near the good "
            "end of its ramp"
        ),
        recorded={"duration=10": 0.796, "duration=45": 0.712},
    ),
    Target(
        name="barometer-constrained-lte-5p-below-dsl-2p",
        metric="quality_index:five-party-gallery",
        scenario="barometer/constrained-lte-5p-meet",
        baseline="barometer/dsl-2p-meet",
        baseline_metric="quality_index:two-party",
        mode="difference",
        op="lt",
        threshold=-0.10,
        note=(
            "the population gradient the barometer exists to expose: a "
            "constrained-LTE household in a five-party gallery scores "
            "materially below a DSL household in a two-party call -- access "
            "tier and use case jointly, not either alone, decide quality"
        ),
        recorded={"duration=10": -0.364, "duration=45": -0.310},
    ),
    Target(
        name="competition-teams-vs-zoom-down-share-ceiling",
        metric="share_down",
        scenario="competition/teams-vs-zoom-droptail",
        mode="value",
        op="lt",
        threshold=0.6,
        note=(
            "the fig10 calibration cell on the workload axis: Teams is "
            "passive on a 0.5 Mbps drop-tail downlink when a Zoom call "
            "joins, keeping under 60% of the link"
        ),
        recorded={"duration=10": 0.368, "duration=45": 0.355},
    ),
    Target(
        name="competition-teams-vs-zoom-down-share-floor",
        metric="share_down",
        scenario="competition/teams-vs-zoom-droptail",
        mode="value",
        op="gt",
        threshold=0.15,
        note=(
            "the band's other side: passive is not starved -- Teams keeps a "
            "non-trivial downlink share against Zoom's aggression"
        ),
        recorded={"duration=10": 0.368, "duration=45": 0.355},
    ),
    Target(
        name="competition-codel-vs-droptail-vca-share",
        metric="share_down",
        scenario="competition/zoom-vs-tcp-codel",
        baseline="competition/zoom-vs-tcp-droptail",
        mode="difference",
        op="gt",
        threshold=0.0,
        note=(
            "CoDel's early drops cost the loss-averse TCP competitor more "
            "than the loss-tolerant VCA, so the VCA's downlink share under "
            "TCP bulk is higher with CoDel than with drop-tail"
        ),
        recorded={"duration=10": 0.024, "duration=45": 0.021},
    ),
    Target(
        name="competition-zoom-holds-uplink-vs-tcp",
        metric="share_up",
        scenario="competition/zoom-vs-tcp-droptail",
        mode="value",
        op="gt",
        threshold=0.8,
        note=(
            "a bulk TCP download contends for the downlink only; the "
            "measured call keeps essentially all of its uplink"
        ),
        recorded={"duration=10": 0.954, "duration=45": 0.961},
    ),
    Target(
        name="codel-throughput-ratio",
        metric="median_down_mbps",
        scenario="codel-downlink-zoom",
        baseline="droptail-downlink-zoom",
        mode="ratio",
        op="gt",
        threshold=0.8,
        note="CoDel's delay win must not come from starving throughput",
        recorded={"duration=10": 0.983, "duration=45": 0.958},
    ),
)
