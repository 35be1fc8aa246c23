"""Call scoring is bit-identical to its numpy formulation.

``ScenarioRun.metrics()``, the ``FlowSeries`` window statistics and the
small means behind them compute in Python what used to go through short
numpy arrays.  The numpy versions are kept here as references, and every
comparison is by ``float.hex``, so a change in the last bit fails.
"""

from __future__ import annotations

import math
import random
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analysis import exact_mean, exact_percentile
from repro.core.capture import FlowSeries
from repro.core.metrics import link_share, tx_loss_rate
from repro.netem.scenarios import (
    RATE_SWITCH_THRESHOLD,
    WORKLOAD_CLIENT,
    WORKLOAD_SERVER,
    ScenarioRun,
    get_scenario,
    run_scenario,
)


def _numpy_mean(values: list[float]) -> float:
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.mean(np.asarray(values, dtype=float)))


# ------------------------------------------------------------ exact_mean
#: Lengths where numpy's pairwise summation changes shape: one loop below 8,
#: eight accumulators up to 128, halves above (split at multiples of 8).
BOUNDARIES = (0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 300, 1031, 4100, 9000)

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308)

_values = st.one_of(
    st.floats(allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3),
    st.sampled_from(_SPECIAL),
    # Subnormals.
    st.integers(min_value=-(2**52 - 1), max_value=2**52 - 1).map(lambda k: k * 5e-324),
    # Two of these overflow a running sum.
    st.floats(min_value=1e307, max_value=1.7e308).flatmap(lambda v: st.sampled_from((v, -v))),
)


def _random_value(rng: random.Random) -> float:
    draw = rng.random()
    if draw < 0.03:
        return math.nan
    if draw < 0.15:
        return rng.choice(_SPECIAL)
    if draw < 0.25:
        return rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.7e308)
    if draw < 0.35:
        return rng.choice((-1.0, 1.0)) * 5e-324 * rng.randint(1, 2**52 - 1)
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)


# numpy warns about overflowing sums.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExactMean:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_values, max_size=300))
    @example([-0.0])
    @example([-0.0] * 9)
    @example([1.7e308, 1.7e308])
    @example([1.7e308] * 8 + [-1.7e308])
    @example([5e-324] * 7)
    @example([math.inf, -math.inf])
    def test_matches_numpy(self, values):
        assert exact_mean(values).hex() == _numpy_mean(values).hex()

    @pytest.mark.parametrize("n", BOUNDARIES)
    def test_matches_numpy_at_block_boundaries(self, n):
        rng = random.Random(f"exact-mean:{n}")
        for _ in range(60):
            values = [_random_value(rng) for _ in range(n)]
            assert exact_mean(values).hex() == _numpy_mean(values).hex(), values

    @pytest.mark.parametrize("n", BOUNDARIES[1:])
    @pytest.mark.parametrize("value", [-0.0, 0.0, 5e-324, 1.7e308, -math.inf])
    def test_constant_inputs(self, n, value):
        values = [value] * n
        assert exact_mean(values).hex() == _numpy_mean(values).hex()

    def test_empty_is_nan(self):
        assert math.isnan(exact_mean([]))


def _numpy_percentile(values: list[float], q: float) -> float:
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.percentile(values, q))


def _one_signed_zero(values: list[float], zero: float) -> list[float]:
    return [zero if value == 0.0 else value for value in values]


class TestExactPercentile:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_values, min_size=1, max_size=400),
        st.one_of(st.sampled_from((95, 0, 50, 100, 25.0, 99.9)), st.floats(min_value=0.0, max_value=100.0)),
        st.sampled_from((0.0, -0.0)),
    )
    @example([0.0], 95, 0.0)
    @example([1.0, 2.0], 95, 0.0)
    @example([1.0, math.inf], 100, 0.0)
    @example([-math.inf, math.inf], 50, 0.0)
    @example([-0.0, -0.0, 1.0], 40, -0.0)
    def test_matches_numpy(self, values, q, zero):
        """Equal on every NaN-free input whose zeros share one sign."""
        values = _one_signed_zero(values, zero)
        assert exact_percentile(values, q).hex() == _numpy_percentile(values, q).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 201, 402, 1000])
    def test_queue_delay_like_samples(self, n):
        rng = random.Random(f"exact-percentile:{n}")
        for _ in range(40):
            values = [rng.choice((0.0, rng.random() * 0.5)) for _ in range(n)]
            assert exact_percentile(values, 95).hex() == _numpy_percentile(values, 95).hex()

    def test_nan_gives_nan(self):
        assert math.isnan(exact_percentile([1.0, math.nan, 3.0], 95))
        assert math.isnan(_numpy_percentile([1.0, math.nan, 3.0], 95))


# ------------------------------------------------- FlowSeries statistics
def _reference_timeseries(bins: list[int], width: float, start: float, end: float):
    if not bins:
        return np.array([]), np.array([])
    last_bin = len(bins) - 1
    end_bin = int(end / width)
    start_bin = int(start / width)
    indices = np.arange(start_bin, end_bin + 1)
    counts = np.zeros(indices.size, dtype=np.float64)
    lo = max(start_bin, 0)
    hi = min(end_bin, last_bin)
    if hi >= lo:
        counts[lo - start_bin : hi - start_bin + 1] = bins[lo : hi + 1]
    return indices * width, counts * 8 / width / 1e6


def _reference_total_bytes(bins: list[int], width: float, start: float = 0.0, end: float = math.inf) -> int:
    if not bins:
        return 0
    starts = np.arange(len(bins)) * width
    mask = (starts >= start) & (starts < end)
    return int(np.asarray(bins, dtype=np.int64)[mask].sum())


def _reference_mean_mbps(bins: list[int], width: float, start: float, end: float) -> float:
    duration = max(end - start, width)
    return _reference_total_bytes(bins, width, start, end) * 8 / duration / 1e6


def _reference_median_mbps(bins: list[int], width: float, start: float, end: float) -> float:
    _, series = _reference_timeseries(bins, width, start, end)
    if series.size == 0:
        return 0.0
    return float(np.median(series))


def _series(bins: list[int], width: float) -> FlowSeries:
    series = FlowSeries("f", "tx", width)
    series._bins = list(bins)
    return series


_widths = st.sampled_from((1.0, 0.5, 0.25, 0.1, 2.0, 1.0 / 3.0))
_bins = st.lists(
    st.one_of(st.just(0), st.integers(min_value=0, max_value=3_000_000)), max_size=40
)
# Integer and fractional bounds, before the capture and after its end.
_bounds = st.one_of(
    st.integers(min_value=-6, max_value=50).map(float),
    st.floats(min_value=-6.0, max_value=50.0, allow_nan=False),
)


class TestFlowSeriesWindows:
    @settings(max_examples=400, deadline=None)
    @given(_bins, _widths, _bounds, _bounds)
    @example([1, 2, 3], 1.0, 0.0, 2.0)
    @example([5, 1, 9, 4], 1.0, 0.0, 2.0)
    @example([5, 1, 9, 4], 1.0, 2.0, 9.0)
    @example([5, 1, 9, 4], 1.0, -3.0, -1.0)
    def test_window_statistics_match_numpy(self, bins, width, start, end):
        series = _series(bins, width)
        assert series.total_bytes(start, end) == _reference_total_bytes(bins, width, start, end)
        assert series.total_bytes() == _reference_total_bytes(bins, width)
        assert series.mean_mbps(start, end).hex() == _reference_mean_mbps(bins, width, start, end).hex()
        assert series.median_mbps(start, end).hex() == _reference_median_mbps(bins, width, start, end).hex()

    def test_median_includes_the_bin_that_starts_at_end(self):
        """``[0, 2]`` spans bins 0, 1 and 2 for the median, bins 0 and 1 for the mean."""
        series = _series([0, 125_000, 250_000], 1.0)
        assert series.median_mbps(0.0, 2.0) == 1.0
        assert series.mean_mbps(0.0, 2.0) == 0.5

    def test_timeseries_returns_arrays(self):
        times, mbps = _series([125_000, 0, 250_000], 1.0).timeseries(0.0, 4.0)
        assert isinstance(times, np.ndarray) and isinstance(mbps, np.ndarray)
        assert list(mbps) == [1.0, 0.0, 2.0, 0.0, 0.0]


# ------------------------------------------------------------ metrics()
def _reference_aggregate(run: ScenarioRun, host: str, direction: str) -> list[int]:
    combined: list[int] = []
    for (h, d, _), series in run.capture._series.items():
        if h != host or d != direction:
            continue
        theirs = series._bins
        if len(combined) < len(theirs):
            combined.extend([0] * (len(theirs) - len(combined)))
        for index, size in enumerate(theirs):
            combined[index] += size
    return combined


def _reference_stats_mean(run: ScenarioRun, key: str) -> float:
    stats = run.call.client("C1").stats
    if stats is None:
        return float("nan")
    start, end = run.steady_window()
    values = [s.get(key) for s in stats.samples if start <= s.timestamp <= end]
    return float(np.mean(values)) if values else 0.0


def _reference_rate_switches(run: ScenarioRun) -> int:
    stats = run.call.client("C1").stats
    if stats is None:
        return 0
    start, end = run.start_s + 5.0, run.end_s
    times, values = stats.series("target_bitrate_bps")
    switches = 0
    previous: Optional[float] = None
    for when, value in zip(times, values):
        if when < start or when > end or value <= 0.0:
            continue
        if previous is not None and abs(value - previous) > RATE_SWITCH_THRESHOLD * previous:
            switches += 1
        previous = value
    return switches


def _reference_relay_tx_loss(run: ScenarioRun, server: str, client: str, call_id: str) -> float:
    window = run.workload_window()
    prefix, suffix = f"{call_id}:down:", f">{client}"

    def window_bytes(host: str, direction: str) -> int:
        return sum(
            _reference_total_bytes(series._bins, series.bin_width_s, *window)
            for (h, d, flow_id), series in run.capture._series.items()
            if h == host and d == direction and flow_id.startswith(prefix) and flow_id.endswith(suffix)
        )

    return tx_loss_rate(window_bytes(server, "tx"), window_bytes(client, "rx"))


def _reference_metrics(run: ScenarioRun) -> dict[str, float]:
    """``ScenarioRun.metrics()`` as it was computed through numpy."""
    width = run.capture.bin_width_s
    window = run.steady_window()
    up = _reference_aggregate(run, "C1", "tx")
    down = _reference_aggregate(run, "C1", "rx")
    delays = [delay for samples in run.queue_delay_samples.values() for _, delay in samples]
    link_stats = [link.stats for link in run._shaped_links()]
    offered = sum(s.packets_sent + s.packets_dropped for s in link_stats)
    undelivered = sum(s.packets_dropped + s.packets_lost_random for s in link_stats)
    payload = {
        "median_up_mbps": _reference_median_mbps(up, width, *window),
        "median_down_mbps": _reference_median_mbps(down, width, *window),
        "mean_up_mbps": _reference_mean_mbps(up, width, *window),
        "mean_down_mbps": _reference_mean_mbps(down, width, *window),
        "freeze_ratio": run.freeze_ratio(),
        "mean_received_fps": _reference_stats_mean(run, "received_fps"),
        "rate_switches": float(_reference_rate_switches(run)),
        "tx_loss_rate": undelivered / offered if offered else 0.0,
        "queue_drops": float(sum(s.packets_dropped - s.packets_dropped_aqm for s in link_stats)),
        "aqm_drops": float(sum(s.packets_dropped_aqm for s in link_stats)),
        "random_losses": float(sum(s.packets_lost_random for s in link_stats)),
        "mean_queue_delay_s": float(np.mean(delays)) if delays else 0.0,
        "p95_queue_delay_s": float(np.percentile(delays, 95)) if delays else 0.0,
    }
    if run.plan is not None:
        topo = run.topology
        region_ratios = []
        for index, region in enumerate(run.plan.regions):
            ratios = [run.freeze_ratio(name) for name in region.clients]
            ratio = float(np.mean(ratios)) if ratios else 0.0
            payload[f"cascade_freeze_ratio_R{index}"] = ratio
            region_ratios.append(ratio)
        if len(region_ratios) > 1:
            payload["cascade_freeze_gap"] = max(region_ratios[1:]) - region_ratios[0]
        trunk_stats = [link.stats for link in topo.trunk_links.values()]
        offered = sum(s.packets_sent + s.packets_dropped for s in trunk_stats)
        undelivered = sum(s.packets_dropped + s.packets_lost_random for s in trunk_stats)
        payload["trunk_tx_loss_rate"] = undelivered / offered if offered else 0.0
        payload["trunk_bytes_sent"] = float(sum(s.bytes_sent for s in trunk_stats))
        duration = run.end_s - run.start_s
        payload["trunk_mean_mbps"] = (
            sum(s.bytes_sent for s in trunk_stats) * 8.0 / duration / 1e6 / len(trunk_stats)
            if duration > 0 and trunk_stats
            else 0.0
        )
    if run.workload_start_s is not None:
        competition = run.workload_window()

        def share(tx_rx: str) -> float:
            incumbent = _reference_mean_mbps(_reference_aggregate(run, "C1", tx_rx), width, *competition)
            competitor = _reference_mean_mbps(
                _reference_aggregate(run, WORKLOAD_CLIENT, tx_rx), width, *competition
            )
            return link_share(np.array([incumbent]), np.array([competitor]))

        payload["share_up"] = share("tx")
        payload["share_down"] = share("rx")
        payload["competitor_up_mbps"] = _reference_mean_mbps(
            _reference_aggregate(run, WORKLOAD_CLIENT, "tx"), width, *competition
        )
        payload["competitor_down_mbps"] = _reference_mean_mbps(
            _reference_aggregate(run, WORKLOAD_CLIENT, "rx"), width, *competition
        )
        if run.plan is None:
            payload["incumbent_tx_loss_rate"] = _reference_relay_tx_loss(
                run, "S", "C1", run.call.config.call_id
            )
        if run.spec.workload[0] == "vca":
            payload["competitor_tx_loss_rate"] = _reference_relay_tx_loss(
                run, WORKLOAD_SERVER, WORKLOAD_CLIENT, "competitor"
            )
    return payload


def _hexed(payload: dict[str, float]) -> list[tuple[str, str]]:
    return [(key, float(value).hex()) for key, value in payload.items()]


#: One spec of each kind of scored call.
METRICS_SPECS = (
    "paper/static-0.5up-zoom",  # shaped
    "lte-uplink-zoom",  # trace-driven
    "competition/zoom-vs-tcp-codel",  # TCP workload
    "competition/netflix-vs-zoom-lte",  # Netflix workload
    "competition/teams-vs-zoom-droptail",  # VCA workload
    "paper/gallery-5p-meet",  # gallery
    "cascade/lossy-trunk-far-freeze-zoom",  # cascade
)


class TestMetricsEquivalence:
    # 10 s calls start the steady window at a fractional time; 20 s calls
    # take the warmup window, whose median reaches the bin after the call.
    @pytest.mark.parametrize("duration_s,seed", [(10.0, 1), (20.0, 2)])
    @pytest.mark.parametrize("name", METRICS_SPECS)
    def test_metrics_match_numpy_reference(self, name, duration_s, seed):
        run = run_scenario(get_scenario(name), seed=seed, duration_s=duration_s)
        assert _hexed(run.metrics()) == _hexed(_reference_metrics(run))
        _, mbps = run.bitrate_series("tx")
        assert isinstance(mbps, np.ndarray)
        _, values = run.call.client("C1").stats.series("received_fps")
        assert isinstance(values, np.ndarray)
