"""Tests for arrival traces and trace replay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ConventionalCluster, MicroFaaSCluster, replay_trace
from repro.sim.rng import RandomStreams
from repro.workloads.traces import (
    ColumnarTrace,
    FunctionMix,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from tests.arrivals import pairs_trace


def arrivals_in(trace, start, end):
    """Events with ``start <= time < end``."""
    return sum(1 for time_s, _ in trace.iter_pairs() if start <= time_s < end)


# -- FunctionMix -------------------------------------------------------------------


def test_mix_validation():
    with pytest.raises(ValueError):
        FunctionMix(weights={})
    with pytest.raises(ValueError):
        FunctionMix(weights={"CascSHA": 0.0})


def test_uniform_mix_covers_all_functions():
    mix = FunctionMix.uniform()
    streams = RandomStreams(0)
    seen = {mix.sample(streams) for _ in range(600)}
    assert len(seen) == 17


def test_weighted_mix_is_biased():
    mix = FunctionMix(weights={"CascSHA": 9.0, "FloatOps": 1.0})
    streams = RandomStreams(1)
    draws = [mix.sample(streams) for _ in range(500)]
    assert draws.count("CascSHA") > 3 * draws.count("FloatOps")


# -- trace containers ---------------------------------------------------------------


def test_trace_event_validation():
    with pytest.raises(ValueError, match="negative"):
        pairs_trace([(-1.0, "CascSHA")], duration_s=10.0)


def test_trace_validation():
    with pytest.raises(ValueError, match="duration"):
        pairs_trace([], duration_s=0.0)
    with pytest.raises(ValueError, match="order"):
        pairs_trace([(2.0, "a"), (1.0, "b")], duration_s=10.0)
    with pytest.raises(ValueError, match="beyond"):
        pairs_trace([(20.0, "a")], duration_s=10.0)
    with pytest.raises(ValueError, match="mismatch"):
        ColumnarTrace(
            times=np.array([1.0]),
            function_ids=np.array([], dtype=np.int64),
            functions=("a",),
            duration_s=10.0,
        )
    with pytest.raises(ValueError, match="function id"):
        ColumnarTrace(
            times=np.array([1.0]),
            function_ids=np.array([1]),
            functions=("a",),
            duration_s=10.0,
        )


# -- generators ----------------------------------------------------------------------


def test_poisson_trace_mean_rate():
    trace = poisson_trace(5.0, 400.0, streams=RandomStreams(3))
    assert len(trace) / trace.duration_s == pytest.approx(5.0, rel=0.1)


def test_poisson_trace_is_reproducible():
    a = poisson_trace(2.0, 50.0, streams=RandomStreams(7))
    b = poisson_trace(2.0, 50.0, streams=RandomStreams(7))
    assert list(a.iter_pairs()) == list(b.iter_pairs())


def test_diurnal_trace_peaks_and_troughs():
    period = 200.0
    trace = diurnal_trace(
        trough_rate_per_s=1.0,
        peak_rate_per_s=9.0,
        period_s=period,
        duration_s=1000.0,
        streams=RandomStreams(5),
    )
    # First quarter-period is the rising peak; third quarter the trough.
    peak_window = arrivals_in(trace, 0.0, period / 2)
    trough_window = arrivals_in(trace, period / 2, period)
    assert peak_window > 2 * trough_window


def test_bursty_trace_has_quiet_and_busy_spells():
    trace = bursty_trace(
        idle_rate_per_s=0.2,
        burst_rate_per_s=20.0,
        mean_burst_s=5.0,
        mean_idle_s=20.0,
        duration_s=600.0,
        streams=RandomStreams(9),
    )
    per_window = [
        arrivals_in(trace, t, t + 10.0) for t in range(0, 600, 10)
    ]
    assert max(per_window) > 10 * (min(per_window) + 1)


def test_generator_validation():
    with pytest.raises(ValueError):
        poisson_trace(1.0, 0.0)
    with pytest.raises(ValueError):
        diurnal_trace(5.0, 1.0, 10.0, 10.0)  # trough > peak
    with pytest.raises(ValueError):
        bursty_trace(2.0, 1.0, 1.0, 1.0, 10.0)  # idle > burst


@settings(deadline=None, max_examples=20)
@given(
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=10.0, max_value=100.0),
    st.integers(min_value=0, max_value=100),
)
def test_property_poisson_traces_are_well_formed(rate, duration, seed):
    trace = poisson_trace(rate, duration, streams=RandomStreams(seed))
    times = trace.times.tolist()
    assert times == sorted(times)
    assert all(0 <= t <= duration for t in times)


# -- replay ---------------------------------------------------------------------------


def test_replay_on_microfaas_completes_everything():
    trace = poisson_trace(1.5, 60.0, streams=RandomStreams(2))
    cluster = MicroFaaSCluster(worker_count=10, seed=2)
    result = replay_trace(cluster, trace)
    assert result.jobs_completed == len(trace)
    assert result.duration_s >= trace.duration_s


def test_replay_on_conventional_completes_everything():
    trace = poisson_trace(1.5, 60.0, streams=RandomStreams(2))
    cluster = ConventionalCluster(vm_count=6, seed=2)
    result = replay_trace(cluster, trace)
    assert result.jobs_completed == len(trace)
    assert result.platform == "conventional"


def test_replay_rejects_empty_trace():
    trace = pairs_trace([], duration_s=10.0)
    with pytest.raises(ValueError):
        replay_trace(MicroFaaSCluster(worker_count=2), trace)


def test_low_load_energy_gap_widens_under_traces():
    """At ~25 % utilization the conventional host still burns its idle
    floor, so the per-function energy gap grows well past the saturated
    5.6x headline — the energy-proportionality story end to end."""
    trace = poisson_trace(1.0, 120.0, streams=RandomStreams(4))
    mf = replay_trace(MicroFaaSCluster(worker_count=10, seed=4), trace)
    cv = replay_trace(ConventionalCluster(vm_count=6, seed=4), trace)
    ratio = cv.joules_per_function / mf.joules_per_function
    assert ratio > 7.0


def test_slo_attainment_from_replay():
    trace = poisson_trace(1.0, 60.0, streams=RandomStreams(6))
    cluster = MicroFaaSCluster(worker_count=10, seed=6)
    result = replay_trace(cluster, trace)
    within_10s = result.telemetry.slo_attainment(10.0)
    within_100s = result.telemetry.slo_attainment(100.0)
    assert 0.0 < within_10s <= within_100s <= 1.0
    with pytest.raises(ValueError):
        result.telemetry.slo_attainment(0.0)
