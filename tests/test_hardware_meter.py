"""Unit tests for the sampling power meter."""

import pytest

from repro.hardware import PowerTrace
from repro.sim import Environment
from tests.power_meter import PowerMeter


def test_meter_constant_power_exact():
    env = Environment()
    meter = PowerMeter(env, lambda: 10.0, interval_s=1.0)
    meter.start()
    env.run(until=60.0)
    meter.stop()
    assert meter.energy_joules == pytest.approx(600.0)
    assert meter.average_watts() == pytest.approx(10.0)


def test_meter_sample_count():
    env = Environment()
    meter = PowerMeter(env, lambda: 5.0, interval_s=1.0)
    meter.start()
    env.run(until=10.5)
    # Samples at interval ends t = 1..10.
    assert meter.sample_count == 10


def test_meter_tracks_changing_power():
    env = Environment()
    trace = PowerTrace(0.0, 2.0)

    def changer():
        yield env.timeout(5.0)
        trace.record(env.now, 8.0)

    env.process(changer())
    meter = PowerMeter(env, lambda: trace.power_at(env.now), interval_s=1.0)
    meter.start()
    env.run(until=10.0)
    # Samples at t=1..10; the t=5 sample reads the just-changed 8 W (the
    # change event is scheduled ahead of the meter tick), so the meter
    # over-reads by one interval of the step size — realistic quantization.
    assert meter.energy_joules == pytest.approx(4 * 2 + 6 * 8)
    assert meter.peak_watts() == 8.0
    exact = trace.energy_joules(0.0, 10.0)
    assert abs(meter.energy_joules - exact) <= 8.0 * meter.interval_s


def test_meter_quantization_error_is_bounded():
    """A 1 Hz meter mis-integrates sub-second spikes — but by no more
    than one sample interval's worth of the dynamic range."""
    env = Environment()
    trace = PowerTrace(0.0, 0.0)

    def spiker():
        yield env.timeout(0.4)
        trace.record(env.now, 100.0)
        yield env.timeout(0.2)
        trace.record(env.now, 0.0)

    env.process(spiker())
    meter = PowerMeter(env, lambda: trace.power_at(env.now), interval_s=1.0)
    meter.start()
    env.run(until=3.0)
    exact = trace.energy_joules(0.0, 3.0)
    assert exact == pytest.approx(20.0)
    assert abs(meter.energy_joules - exact) <= 100.0 * 1.0


def test_meter_stop_halts_sampling():
    env = Environment()
    meter = PowerMeter(env, lambda: 1.0, interval_s=1.0)
    meter.start()

    def stopper():
        yield env.timeout(5.5)
        meter.stop()

    env.process(stopper())
    env.run(until=20.0)
    assert meter.sample_count == 5  # t = 1..5
    assert meter.duration_s == pytest.approx(5.5)


def test_meter_double_start_rejected():
    env = Environment()
    meter = PowerMeter(env, lambda: 1.0)
    meter.start()
    with pytest.raises(RuntimeError):
        meter.start()


def test_meter_stop_before_start_rejected():
    env = Environment()
    meter = PowerMeter(env, lambda: 1.0)
    with pytest.raises(RuntimeError):
        meter.stop()


def test_meter_readings_require_samples():
    env = Environment()
    meter = PowerMeter(env, lambda: 1.0)
    with pytest.raises(RuntimeError):
        meter.average_watts()
    with pytest.raises(RuntimeError):
        meter.peak_watts()


def test_meter_interval_validation():
    env = Environment()
    with pytest.raises(ValueError):
        PowerMeter(env, lambda: 1.0, interval_s=0.0)


def test_meter_agrees_with_exact_integration_for_slow_signals():
    """For signals that change slower than the sampling interval the
    meter reading converges on the exact trace energy."""
    env = Environment()
    trace = PowerTrace(0.0, 20.0)

    def stepper():
        for watts in (40.0, 60.0, 30.0, 10.0):
            yield env.timeout(100.0)
            trace.record(env.now, watts)

    env.process(stepper())
    meter = PowerMeter(env, lambda: trace.power_at(env.now), interval_s=1.0)
    meter.start()
    env.run(until=500.0)
    exact = trace.energy_joules(0.0, 500.0)
    assert meter.energy_joules == pytest.approx(exact, rel=0.01)
