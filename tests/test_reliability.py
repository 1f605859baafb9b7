"""Tests for the reliability substrate: MTBF math, and worker crashes
run through the chaos engine."""

import pytest

from repro.cluster import MicroFaaSCluster
from repro.core.scheduler import RoundRobinPolicy
from repro.reliability import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
    FailureModel,
    SBC_MTBF_HOURS,
    SERVER_MTBF_HOURS,
    expected_replacements,
)
from repro.reliability.mtbf import sbc_failure_model, server_failure_model


# ---------------------------------------------------------------------------
# MTBF math
# ---------------------------------------------------------------------------


def test_cited_mtbf_ratio():
    """Footnote 4: the SBC's MTBF is ~10x the server board's."""
    assert SBC_MTBF_HOURS / SERVER_MTBF_HOURS > 9.0


def test_failure_model_validation():
    with pytest.raises(ValueError):
        FailureModel(mtbf_hours=0.0)
    with pytest.raises(ValueError):
        FailureModel(mtbf_hours=100.0, repair_hours=-1.0)


def test_availability_is_high_for_sbc():
    assert sbc_failure_model().availability() > 0.99998
    assert server_failure_model().availability() < sbc_failure_model().availability()


def test_expected_replacements_over_5_years():
    """989 SBCs over the TCO horizon need ~18 replacements (~2 %);
    41 servers need ~7.5 (~18 % of the fleet) — the Sec. III-c claim
    that SBC fleets are cheaper to keep online."""
    horizon = 43_200.0
    sbc = expected_replacements(989, sbc_failure_model(), horizon)
    servers = expected_replacements(41, server_failure_model(), horizon)
    assert sbc == pytest.approx(989 * horizon / SBC_MTBF_HOURS)
    assert sbc / 989 < 0.05  # well under the TCO model's 5 % allowance
    assert servers / 41 > 0.15


def test_expected_replacements_validation():
    with pytest.raises(ValueError):
        expected_replacements(-1, sbc_failure_model(), 10.0)
    with pytest.raises(ValueError):
        expected_replacements(1, sbc_failure_model(), -10.0)


# ---------------------------------------------------------------------------
# Worker crashes in the cluster
# ---------------------------------------------------------------------------


def crash(time_s, worker_id, repair_after_s):
    """A board crash that the repair brings back after ``repair_after_s``."""
    return ChaosEvent(ChaosKind.WORKER_CRASH, time_s, worker_id, repair_after_s)


def pull(time_s, worker_id):
    """A board crash with no repair: more failed power cycles than the
    engine's default budget of 3, so the board is pulled from the rack."""
    return ChaosEvent(ChaosKind.BOOT_FAILURE, time_s, worker_id, 0.0, magnitude=4)


def run_with_faults(events, worker_count=4, per_function=4, detection=1.0):
    cluster = MicroFaaSCluster(
        worker_count=worker_count, seed=7, policy=RoundRobinPolicy()
    )
    engine = ChaosEngine(cluster, detection_delay_s=detection)
    engine.apply(ChaosPlan(events=tuple(events)))
    result = cluster.run_saturated(invocations_per_function=per_function)
    return cluster, engine, result


def test_all_jobs_complete_despite_mid_run_fault():
    cluster, engine, result = run_with_faults([pull(10.0, 1)])
    assert result.jobs_completed == 4 * 17
    assert engine.injected == 1
    assert engine.boards_abandoned == 1
    assert engine.recovered_jobs > 0
    assert cluster.orchestrator.resubmissions == engine.recovered_jobs


def test_dead_worker_gets_no_new_jobs():
    cluster, _engine, result = run_with_faults([pull(5.0, 0)])
    assert result.jobs_completed == 4 * 17
    # Worker 0's board is off and stays off after the fault.
    assert not cluster.sbcs[0].is_powered
    assert 0 in cluster.orchestrator.dead_workers


def test_retried_jobs_carry_attempt_counts():
    cluster, engine, _result = run_with_faults([pull(10.0, 1)])
    retried = [j for j in cluster.orchestrator.jobs.values() if j.attempts > 0]
    assert len(retried) == engine.recovered_jobs
    assert all(j.is_finished for j in retried)


def test_repair_brings_worker_back():
    cluster, engine, result = run_with_faults(
        [crash(8.0, 2, 15.0)], per_function=6
    )
    assert result.jobs_completed == 6 * 17
    assert len(engine.recovery_times) == 1
    assert 2 not in cluster.orchestrator.dead_workers
    # The replacement worker actually served jobs after the repair.
    assert cluster.workers[2].process is not None


def test_multiple_faults_still_complete():
    _cluster, engine, result = run_with_faults(
        [pull(6.0, 0), pull(12.0, 1), pull(20.0, 2)],
        worker_count=5, per_function=4,
    )
    assert result.jobs_completed == 4 * 17
    assert engine.injected == 3
    assert engine.boards_abandoned == 3


def test_killing_every_worker_is_fatal():
    # The chaos engine never takes the last alive worker, so the
    # orchestrator's own guard is checked directly.
    cluster = MicroFaaSCluster(worker_count=2, seed=7)
    cluster.orchestrator.mark_worker_dead(0)
    with pytest.raises(RuntimeError, match="cluster is lost"):
        cluster.orchestrator.mark_worker_dead(1)


def test_double_fault_same_worker_with_repairs_completes():
    # The same worker dies twice; each fault has a repair, so the board
    # comes back both times and every job still completes exactly once.
    cluster, engine, result = run_with_faults(
        [crash(6.0, 1, 5.0), crash(20.0, 1, 5.0)], per_function=6
    )
    assert result.jobs_completed == 6 * 17
    assert engine.injected == 2
    assert len(engine.recovery_times) == 2
    assert 1 not in cluster.orchestrator.dead_workers


def test_fault_at_time_zero_recovers():
    # A board that is dead on arrival: the fault fires before any job
    # has been assigned, and the rest of the cluster absorbs the load.
    cluster, engine, result = run_with_faults([pull(0.0, 3)])
    assert result.jobs_completed == 4 * 17
    assert engine.injected == 1
    assert 3 in cluster.orchestrator.dead_workers


def test_fault_free_plan_changes_nothing():
    _cluster, engine, result = run_with_faults([])
    assert result.jobs_completed == 4 * 17
    assert engine.injected == 0
    assert engine.recovered_jobs == 0
