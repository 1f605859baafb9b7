"""Tests for the energy control plane: ledger, forecast, signals.

The :class:`~repro.energy.controlplane.EnergyLedger` is double-entry
bookkeeping over power traces: every billed segment partitions each
covered trace, so invocation + overhead joules must equal the metered
total to float-accumulation error — verified here against synthetic
traces (hypothesis), real runs, and chaos runs with crashed attempts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import MicroFaaSCluster, replay_trace
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.energy.controlplane import (
    ArrivalForecast,
    CarbonSignal,
    EnergyLedger,
)
from repro.hardware.power import PowerTrace
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace
from tests.power_meter import metered_watts


class FakeJob:
    def __init__(self, worker_id, t_started, function="f", tenant=None):
        self.worker_id = worker_id
        self.t_started = t_started
        self.function = function
        self.tenant = tenant


def make_ledger(clock_value=1000.0):
    return EnergyLedger(clock=lambda: clock_value)


# -- unit: billing arithmetic ---------------------------------------------------------


def test_ledger_bills_delivered_window_to_function():
    ledger = make_ledger()
    trace = PowerTrace(0.0, 2.0)  # constant 2 W
    ledger.register_worker(0, trace)
    ledger.bill_attempt(FakeJob(0, t_started=3.0), t_end=5.0, delivered=True)
    assert ledger.function_joules == {"f": pytest.approx(4.0)}
    # The 0..3 gap before the attempt is idle overhead.
    assert ledger.overhead_joules["idle"] == pytest.approx(6.0)
    assert ledger.reconcile(end=5.0).ok()


def test_ledger_wasted_attempt_goes_to_overhead():
    ledger = make_ledger()
    trace = PowerTrace(0.0, 1.0)
    ledger.register_worker(0, trace)
    ledger.bill_attempt(FakeJob(0, 1.0), t_end=2.0, delivered=False)
    assert ledger.function_joules == {}
    assert ledger.overhead_joules["wasted"] == pytest.approx(1.0)
    assert ledger.wasted_attempts == 1
    assert ledger.reconcile(end=2.0).ok()


def test_ledger_tenant_billed_for_delivered_and_wasted():
    ledger = make_ledger()
    trace = PowerTrace(0.0, 1.0)
    ledger.register_worker(0, trace)
    ledger.bill_attempt(
        FakeJob(0, 0.0, tenant="acme"), t_end=1.0, delivered=True
    )
    ledger.bill_attempt(
        FakeJob(0, 1.0, tenant="acme"), t_end=3.0, delivered=False
    )
    # Crashes burn the tenant's budget too.
    assert ledger.tenant_joules == {"acme": pytest.approx(3.0)}


def test_ledger_interim_settle_reclaims_in_flight_window():
    """A mid-run reconcile must not steal an in-flight attempt's energy."""
    ledger = make_ledger()
    trace = PowerTrace(0.0, 3.0)
    ledger.register_worker(0, trace)
    # Attempt starts at t=2; someone reconciles at t=4 mid-attempt.
    report = ledger.reconcile(end=4.0)
    assert report.ok()
    # The attempt lands at t=6: its full 2..6 window belongs to it.
    ledger.bill_attempt(FakeJob(0, 2.0), t_end=6.0, delivered=True)
    assert ledger.function_joules["f"] == pytest.approx(12.0)
    assert ledger.overhead_joules["idle"] == pytest.approx(6.0)
    assert ledger.reconcile(end=6.0).ok()


def test_ledger_ignores_unmetered_and_unstarted_attempts():
    ledger = make_ledger()
    trace = PowerTrace(0.0, 1.0)
    ledger.register_worker(0, trace)
    ledger.bill_attempt(FakeJob(7, 1.0), t_end=2.0, delivered=True)  # no meter
    ledger.bill_attempt(FakeJob(0, None), t_end=2.0, delivered=True)  # queued
    assert ledger.attempts_billed == 0
    assert ledger.function_joules == {}


def test_ledger_rejects_duplicate_registration():
    ledger = make_ledger()
    trace = PowerTrace(0.0, 1.0)
    ledger.register_worker(0, trace)
    with pytest.raises(ValueError):
        ledger.register_worker(0, trace)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=5.0),  # window length
            st.floats(min_value=0.0, max_value=4.0),  # gap before it
            st.floats(min_value=0.05, max_value=6.0),  # draw during it
            st.booleans(),  # delivered?
            st.booleans(),  # interim settle before billing?
        ),
        min_size=1,
        max_size=25,
    )
)
def test_ledger_conservation_property(attempts):
    """Invocation + overhead == metered, under arbitrary interleavings
    of delivered attempts, crashed attempts, and interim settles."""
    ledger = make_ledger()
    trace = PowerTrace(0.0, 0.5)
    ledger.register_worker(0, trace)
    t = 0.0
    delivered_expected = 0.0
    for length, gap, watts, delivered, interim in attempts:
        start = t + gap
        end = start + length
        trace.record(start, watts)
        trace.record(end, 0.5)
        if interim:
            # A reconcile fires mid-attempt; the bill must reclaim.
            assert ledger.reconcile(end=start + length / 2).ok(1e-9)
        ledger.bill_attempt(
            FakeJob(0, start, tenant="t0"), end, delivered=delivered
        )
        if delivered:
            delivered_expected += watts * length
        t = end
    report = ledger.reconcile(end=t + 1.0)
    assert report.ok(1e-9), report
    assert sum(ledger.function_joules.values()) == pytest.approx(
        delivered_expected, rel=1e-9, abs=1e-9
    )
    # Tenant meter saw every attempt exactly once.
    assert ledger.tenant_joules["t0"] == pytest.approx(
        sum(ledger.function_joules.values())
        + ledger.overhead_joules["wasted"],
        rel=1e-9,
        abs=1e-9,
    )


# -- integration: real runs -----------------------------------------------------------

#: Post-hoc per-function joules of the seed-11 Poisson replay below:
#: each telemetry record's ``t_started`` → ``t_completed`` window
#: integrated on its board and summed in record order (``repr`` floats).
POSTHOC_FUNCTION_JOULES = [
    ("RegExSearch", 20.815224401213758),
    ("HTMLGen", 16.18146770350522),
    ("COSPut", 4.602419804878552),
    ("SQLSelect", 17.5468546508148),
    ("MatMul", 55.780411289829175),
    ("RegExMatch", 15.080986341411268),
    ("MQConsume", 9.438925637262265),
    ("RedisInsert", 9.7610421495218),
    ("MQProduce", 6.235601941781172),
    ("FloatOps", 29.844115242802836),
    ("Decompress", 21.370505285855298),
    ("RedisUpdate", 3.286543202749823),
    ("CascMD5", 4.782637281804749),
    ("CascSHA", 31.523735396564273),
    ("COSGet", 24.78481048184034),
    ("AES128", 9.241074685171096),
]


def test_ledger_matches_posthoc_accounting_on_a_run():
    trace = poisson_trace(0.8, 60.0, streams=RandomStreams(11))
    cluster = MicroFaaSCluster(worker_count=4, seed=11)
    ledger = cluster.enable_energy_ledger()
    result = replay_trace(cluster, trace)
    report = ledger.reconcile(end=result.duration_s)
    assert report.ok(1e-9), report
    # Online attribution is bit-identical to the post-hoc integral.
    assert list(ledger.function_joules.items()) == POSTHOC_FUNCTION_JOULES
    boards = {sbc.node_id: sbc.trace for sbc in cluster.sbcs}
    posthoc = {}
    for record in result.telemetry.records:
        posthoc[record.function] = posthoc.get(record.function, 0.0) + (
            boards[record.worker_id].energy_joules(
                record.t_started, record.t_completed
            )
        )
    assert ledger.function_joules == posthoc


def test_ledger_conserves_energy_under_chaos():
    """Crashed attempts bill as wasted, never double-counted."""
    cluster = MicroFaaSCluster(
        worker_count=4,
        seed=7,
        policy=LeastLoadedPolicy(),
        recovery=RecoveryPolicy(),
    )
    ledger = cluster.enable_energy_ledger()
    plan = ChaosPlan.sample(
        ChaosProfile(scale=3.0),
        worker_count=4,
        horizon_s=120.0,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    result = cluster.run_saturated(invocations_per_function=3)
    assert ledger.wasted_attempts > 0, "chaos produced no crashed attempts"
    report = ledger.reconcile(end=result.duration_s)
    assert report.ok(1e-9), report


def test_ledger_attachment_does_not_perturb_the_run():
    def run(with_ledger):
        trace = poisson_trace(0.7, 40.0, streams=RandomStreams(13))
        cluster = MicroFaaSCluster(worker_count=4, seed=13)
        if with_ledger:
            cluster.enable_energy_ledger()
        return replay_trace(cluster, trace)

    bare = run(False)
    metered = run(True)
    assert bare.jobs_completed == metered.jobs_completed
    assert bare.duration_s == metered.duration_s
    assert bare.energy_joules == metered.energy_joules
    assert sorted(bare.telemetry.end_to_end_latencies_s()) == sorted(
        metered.telemetry.end_to_end_latencies_s()
    )


# -- metered_watts (the sampling oracle's reading) ------------------------------------


def test_metered_watts_matches_manual_summation():
    """The oracle meter's reading is the boards' draw, plus the
    switches' when the cluster meters them."""
    cluster = MicroFaaSCluster(worker_count=5)
    manual = sum(sbc.watts for sbc in cluster.sbcs)
    assert metered_watts(cluster) == manual

    wired = MicroFaaSCluster(worker_count=5, include_switch_power=True)
    manual = sum(sbc.watts for sbc in wired.sbcs) + sum(
        switch.watts for switch in wired.switches
    )
    assert metered_watts(wired) == manual


def test_metered_watts_matches_on_hybrid():
    from repro.cluster import HybridCluster

    cluster = HybridCluster(sbc_count=3, vm_count=2)
    sbc_pool, vm_pool = cluster.pools
    manual = sum(sbc.watts for sbc in sbc_pool.sbcs) + vm_pool.server.watts
    assert metered_watts(cluster) == manual


# -- forecast -------------------------------------------------------------------------


def test_forecast_first_observation_seeds_estimate():
    forecast = ArrivalForecast(alpha=0.5)
    assert forecast.observe(4.0) == 4.0


def test_forecast_ewma_blends():
    forecast = ArrivalForecast(alpha=0.5)
    forecast.observe(4.0)
    assert forecast.observe(2.0) == pytest.approx(3.0)
    assert forecast.observe(3.0) == pytest.approx(3.0)


def test_forecast_idle_reset_snaps_to_zero():
    forecast = ArrivalForecast(alpha=0.5, idle_ticks_to_reset=2)
    forecast.observe(8.0)
    forecast.observe(0.0)
    assert forecast.rate_hat > 0  # one quiet tick is not idleness
    forecast.observe(0.0)
    assert forecast.rate_hat == 0.0


def test_forecast_validation():
    with pytest.raises(ValueError):
        ArrivalForecast(alpha=0.0)
    with pytest.raises(ValueError):
        ArrivalForecast(idle_ticks_to_reset=0)
    with pytest.raises(ValueError):
        ArrivalForecast().observe(-1.0)


# -- carbon signals -------------------------------------------------------------------


def test_carbon_signal_sinusoid_and_clamp():
    signal = CarbonSignal(base=10.0, amplitude=10.0, period_s=4.0)
    assert signal.cost_at(0.0) == pytest.approx(10.0)
    assert signal.cost_at(1.0) == pytest.approx(20.0)
    assert signal.cost_at(3.0) == pytest.approx(0.0)  # clamped at zero


def test_carbon_signal_noise_table_is_read_not_drawn():
    signal = CarbonSignal(
        base=10.0, noise_steps=(2.0, -2.0), noise_step_s=10.0
    )
    assert [signal.cost_at(t) for t in (5.0, 15.0, 25.0)] == [
        12.0, 8.0, 12.0
    ]
    # Reading the signal draws nothing: repeated reads are identical.
    assert signal.cost_at(1234.5) == signal.cost_at(1234.5)


def test_carbon_signal_validation():
    with pytest.raises(ValueError):
        CarbonSignal(base=-1.0)
    with pytest.raises(ValueError):
        CarbonSignal(base=1.0, amplitude=2.0)
    with pytest.raises(ValueError):
        CarbonSignal(base=1.0, period_s=0.0)
