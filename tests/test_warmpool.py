"""Tests for the warm-pool controller and clean-state tracking."""

import pytest

from repro.cluster import MicroFaaSCluster, replay_trace
from repro.core.warmpool import WarmPool
from repro.hardware import PowerState, SingleBoardComputer
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def warm_ids(cluster):
    """Worker ids whose warm flag is set."""
    return [
        worker.sbc.node_id
        for worker in cluster.workers
        if getattr(worker, "keep_warm", False)
    ]


# -- clean-state flag -----------------------------------------------------------------


def test_board_is_clean_only_between_boot_and_first_work():
    clock = FakeClock()
    sbc = SingleBoardComputer(clock)
    assert not sbc.clean
    sbc.power_on()
    assert not sbc.clean  # still booting
    clock.t = 1.51
    sbc.boot_complete()
    assert sbc.clean
    sbc.start_compute()
    assert not sbc.clean  # tainted by tenant code


def test_power_off_taints_the_board():
    clock = FakeClock()
    sbc = SingleBoardComputer(clock)
    sbc.power_on()
    clock.t = 1.51
    sbc.boot_complete()
    sbc.power_off()
    assert not sbc.clean


def test_reboot_restores_cleanliness():
    clock = FakeClock()
    sbc = SingleBoardComputer(clock)
    sbc.power_on()
    clock.t = 1.51
    sbc.boot_complete()
    sbc.start_compute()
    sbc.finish_job()
    sbc.begin_reboot()
    assert not sbc.clean
    clock.t = 3.1
    sbc.boot_complete()
    assert sbc.clean


# -- warm pool -------------------------------------------------------------------------


def test_warm_pool_size_validation():
    cluster = MicroFaaSCluster(worker_count=4)
    with pytest.raises(ValueError):
        WarmPool(cluster, size=5)
    with pytest.raises(ValueError):
        WarmPool(cluster, size=-1)


def test_warm_pool_flags_workers():
    cluster = MicroFaaSCluster(worker_count=6)
    pool = WarmPool(cluster, size=3)
    assert warm_ids(cluster) == [0, 1, 2]
    pool.set_size(1)
    assert warm_ids(cluster) == [0]


def test_warm_boards_stay_powered_and_clean_between_jobs():
    trace = poisson_trace(0.5, 60.0, streams=RandomStreams(3))
    cluster = MicroFaaSCluster(worker_count=4, seed=3)
    WarmPool(cluster, size=4)
    replay_trace(cluster, trace)
    # Let in-flight pre-boots finish before inspecting the fleet.
    cluster.env.run(until=cluster.env.now + 2.0)
    for sbc in cluster.sbcs:
        if sbc.jobs_completed:
            assert sbc.is_powered
            assert sbc.state is PowerState.IDLE
            assert sbc.clean  # pre-booted for the next tenant


def test_warm_hits_have_zero_boot_time():
    """Repeat traffic on a warm board skips the 1.51 s boot."""
    trace = poisson_trace(0.8, 90.0, streams=RandomStreams(5))
    cluster = MicroFaaSCluster(worker_count=4, seed=5)
    WarmPool(cluster, size=4)
    result = replay_trace(cluster, trace)
    boots = [r.boot_s for r in result.telemetry.records]
    warm_hits = [b for b in boots if b < 0.01]
    cold_hits = [b for b in boots if b > 1.0]
    assert warm_hits, "expected some zero-boot warm hits"
    assert all(
        b == pytest.approx(1.51, abs=0.02) for b in cold_hits
    )  # first touch per board is still cold


def test_warm_pool_trades_energy_for_latency():
    """Warm beats cold on end-to-end latency but burns more joules."""
    def run(warm: int):
        trace = poisson_trace(0.8, 120.0, streams=RandomStreams(8))
        cluster = MicroFaaSCluster(worker_count=6, seed=8)
        WarmPool(cluster, size=warm)
        return replay_trace(cluster, trace)

    cold = run(0)
    warm = run(6)
    cold_latency = sum(cold.telemetry.end_to_end_latencies_s()) / cold.jobs_completed
    warm_latency = sum(warm.telemetry.end_to_end_latencies_s()) / warm.jobs_completed
    assert warm_latency < cold_latency - 0.5  # at least the boot saved
    assert warm.joules_per_function > cold.joules_per_function


def test_autoscaler_grows_and_shrinks_the_pool():
    cluster = MicroFaaSCluster(worker_count=8, seed=9)
    pool = WarmPool(cluster, size=0)
    cluster.env.process(pool.autoscale(interval_s=5.0), name="autoscaler")
    # Busy phase then quiet phase.
    trace = poisson_trace(2.0, 60.0, streams=RandomStreams(9))
    replay_trace(cluster, trace)
    cluster.env.run(until=cluster.env.now + 30.0)  # quiet tail
    sizes = [size for _t, size in pool.resize_history]
    assert max(sizes) >= 3  # scaled up under load
    assert pool.size == 0  # scaled back down when idle


def test_autoscaler_validation():
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster)
    with pytest.raises(ValueError):
        next(pool.autoscale(interval_s=0.0))
    with pytest.raises(ValueError):
        next(pool.autoscale(headroom=0.5))


# -- warm pool on a hybrid cluster -----------------------------------------------------


def test_warm_pool_on_hybrid_warms_only_sbc_workers():
    from repro.cluster import HybridCluster

    cluster = HybridCluster(sbc_count=3, vm_count=2)
    pool = WarmPool(cluster, size=3)
    assert warm_ids(cluster) == [0, 1, 2]
    # Sizing is bounded by the warmable (SBC) fleet, not total workers.
    with pytest.raises(ValueError):
        WarmPool(cluster, size=4)
    with pytest.raises(ValueError):
        pool.set_size(4)


def test_warm_pool_on_hybrid_never_flags_vm_workers():
    from repro.cluster import HybridCluster

    cluster = HybridCluster(sbc_count=2, vm_count=2)
    pool = WarmPool(cluster, size=2)
    warm = set(warm_ids(cluster))
    for worker_id in warm:
        assert cluster.workers[worker_id].platform == "arm"
    for worker in cluster.workers:
        if getattr(worker, "sbc", None) is None:
            assert not getattr(worker, "keep_warm", False)


# -- proactive resizes (dynamic mode) --------------------------------------------------


def test_proactive_grow_boots_off_boards():
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster, size=0)
    pool.set_size(2, proactive=True)
    assert pool.proactive_boots == 2
    cluster.env.run(until=cluster.workers[0].boot_real_s + 0.1)
    for worker in cluster.workers:
        assert worker.sbc.state is PowerState.IDLE
        assert worker.sbc.clean


def test_static_resize_is_flag_only():
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster, size=0)
    pool.set_size(2)  # static: no proactive power action
    assert pool.proactive_boots == 0
    for worker in cluster.workers:
        assert not worker.sbc.is_powered


def test_proactive_resize_never_power_cycles_a_booting_board():
    """The mid-boot guard: a board in BOOT is left alone by resizes in
    either direction — power-cycling it would strand its boot timeline."""
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster, size=0)
    board = cluster.workers[0].sbc
    board.power_on()  # mid-boot, outside the pool's control
    boots_before = board.boot_count

    pool.set_size(2, proactive=True)  # board 0 joins the pool mid-boot
    assert board.state is PowerState.BOOT
    assert board.boot_count == boots_before  # not re-booted
    assert pool.proactive_boots == 1  # only the off board 1 was booted

    pool.set_size(0, proactive=True)  # and leaves it mid-boot
    assert board.state is PowerState.BOOT  # still not power-cycled
    assert board.boot_count == boots_before


def test_prewarm_tail_powers_off_a_board_shrunk_mid_boot():
    """A board that leaves the pool while pre-booting finishes its boot
    (never cut mid-boot), then powers down at the boot boundary."""
    cluster = MicroFaaSCluster(worker_count=1)
    pool = WarmPool(cluster, size=0)
    pool.set_size(1, proactive=True)
    worker = cluster.workers[0]
    cluster.env.run(until=0.1)  # let the pre-boot process start
    assert worker.sbc.state is PowerState.BOOT
    # Shrink while the pre-boot is in flight: flag flips, board booted on.
    pool.set_size(0, proactive=True)
    assert worker.sbc.state is PowerState.BOOT
    cluster.env.run(until=worker.boot_real_s + 0.1)
    assert worker.sbc.state is PowerState.OFF


# -- the warming energy account --------------------------------------------------------


def test_meter_warming_bills_idle_warm_boards_only():
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster, size=1)
    warm = cluster.workers[0].sbc
    warm.power_on()
    warm.boot_complete()  # idling warm
    pool.meter_warming(10.0)
    idle_watts = warm.spec.power.idle
    account = pool.warming_account()
    assert account.joules_spent_warming == pytest.approx(idle_watts * 10.0)
    # Cold board 1 billed nothing; a busy warm board would bill nothing.
    warm.start_compute()
    pool.meter_warming(10.0)
    assert pool.warming_account().joules_spent_warming == pytest.approx(
        idle_watts * 10.0
    )


def test_warming_account_balances_boots_avoided():
    cluster = MicroFaaSCluster(worker_count=2)
    pool = WarmPool(cluster, size=2)
    worker = cluster.workers[0]
    worker.boots_avoided = 3
    account = pool.warming_account()
    boot_joules = worker.sbc.spec.power.boot * worker.boot_real_s
    assert account.cold_boots_avoided == 3
    assert account.joules_saved_booting == pytest.approx(3 * boot_joules)
    assert account.net_joules == pytest.approx(
        account.joules_saved_booting - account.joules_spent_warming
    )
