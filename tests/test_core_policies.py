"""Tests for the recovery policy and per-worker circuit breaker."""

import pytest

from repro.core.policies import (
    BreakerState,
    RecoveryPolicy,
    WorkerHealthTracker,
)


# ---------------------------------------------------------------------------
# RecoveryPolicy
# ---------------------------------------------------------------------------


def test_policy_defaults_are_valid():
    policy = RecoveryPolicy()
    assert policy.max_attempts >= 1
    assert policy.job_deadline_s is None  # zero-loss by default


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tick_s": 0.0},
        {"attempt_timeout_s": -1.0},
        {"hedge_after_s": 0.0},
        {"max_attempts": 0},
        {"backoff_base_s": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_max_s": -1.0},
        {"backoff_jitter": -0.1},
        {"backoff_jitter": 1.5},
        {"job_deadline_s": 0.0},
        {"stuck_worker_grace_s": -1.0},
        {"circuit_failure_threshold": 0},
        {"quarantine_s": -1.0},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RecoveryPolicy(**kwargs)


def test_backoff_grows_and_caps():
    policy = RecoveryPolicy(
        backoff_base_s=1.0,
        backoff_factor=2.0,
        backoff_max_s=5.0,
        backoff_jitter=0.0,
    )
    assert policy.backoff_s(1, job_id=0) == 1.0
    assert policy.backoff_s(2, job_id=0) == 2.0
    assert policy.backoff_s(3, job_id=0) == 4.0
    assert policy.backoff_s(4, job_id=0) == 5.0  # capped
    assert policy.backoff_s(9, job_id=0) == 5.0


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RecoveryPolicy(
        backoff_base_s=1.0, backoff_factor=1.0, backoff_jitter=0.5
    )
    a = policy.backoff_s(1, job_id=42)
    b = policy.backoff_s(1, job_id=42)
    assert a == b  # same (job, attempt) -> same delay, any process
    assert 1.0 <= a <= 1.5
    # Different jobs de-synchronize (overwhelmingly likely to differ).
    delays = {policy.backoff_s(1, job_id=j) for j in range(16)}
    assert len(delays) > 1


# ---------------------------------------------------------------------------
# WorkerHealthTracker (circuit breaker)
# ---------------------------------------------------------------------------


def make_tracker(threshold=3, quarantine=10.0):
    policy = RecoveryPolicy(
        circuit_failure_threshold=threshold, quarantine_s=quarantine
    )
    return WorkerHealthTracker.from_policy(policy)


def test_breaker_opens_at_threshold():
    tracker = make_tracker(threshold=3)
    for _ in range(2):
        tracker.record_failure(0, now=1.0)
    assert tracker.state_of(0) is BreakerState.CLOSED
    assert tracker.is_available(0, now=1.0)
    tracker.record_failure(0, now=2.0)
    assert tracker.state_of(0) is BreakerState.OPEN
    assert not tracker.is_available(0, now=2.0)


def test_breaker_half_opens_after_quarantine():
    tracker = make_tracker(threshold=1, quarantine=10.0)
    tracker.record_failure(0, now=0.0)
    assert not tracker.is_available(0, now=9.9)
    # The quarantine expires: the next availability query lets one
    # probe through (HALF_OPEN).
    assert tracker.is_available(0, now=10.0)
    assert tracker.state_of(0) is BreakerState.HALF_OPEN


def test_half_open_failure_reopens():
    tracker = make_tracker(threshold=1, quarantine=10.0)
    tracker.record_failure(0, now=0.0)
    assert tracker.is_available(0, now=10.0)  # HALF_OPEN probe
    tracker.record_failure(0, now=11.0)
    assert tracker.state_of(0) is BreakerState.OPEN
    assert not tracker.is_available(0, now=12.0)
    health = tracker._workers[0]
    assert health.times_opened == 2


def test_success_closes_and_clears_streak():
    tracker = make_tracker(threshold=2)
    tracker.record_failure(0, now=0.0)
    tracker.record_success(0, now=1.0)
    tracker.record_failure(0, now=2.0)
    # The success reset the streak, so one more failure is needed.
    assert tracker.state_of(0) is BreakerState.CLOSED
    tracker.record_failure(0, now=3.0)
    assert tracker.state_of(0) is BreakerState.OPEN


def test_reset_rejoins_with_clean_breaker():
    tracker = make_tracker(threshold=1)
    tracker.record_failure(0, now=0.0)
    assert not tracker.is_available(0, now=1.0)
    tracker.reset(0, now=1.0)
    assert tracker.is_available(0, now=1.0)
    assert tracker.state_of(0) is BreakerState.CLOSED


def test_quarantined_lists_only_open_workers():
    tracker = make_tracker(threshold=1, quarantine=10.0)
    tracker.record_failure(0, now=0.0)
    tracker.record_failure(1, now=0.0)
    tracker.record_success(2, now=0.0)
    assert [w for w in range(3) if not tracker.is_available(w, 5.0)] == [0, 1]
    assert [w for w in range(3) if not tracker.is_available(w, 15.0)] == []


def test_unknown_worker_is_available():
    tracker = make_tracker()
    assert tracker.is_available(99, now=0.0)
    assert tracker.state_of(99) is BreakerState.CLOSED


# ---------------------------------------------------------------------------
# HALF_OPEN transition edges at threshold
# ---------------------------------------------------------------------------


def test_half_open_success_requires_full_threshold_to_reopen():
    """A successful probe fully closes the breaker: the failure streak
    is cleared, so re-opening takes `threshold` fresh failures, not one.
    """
    tracker = make_tracker(threshold=3, quarantine=10.0)
    for _ in range(3):
        tracker.record_failure(0, now=0.0)
    assert tracker.is_available(0, now=10.0)  # HALF_OPEN probe
    tracker.record_success(0, now=11.0)
    assert tracker.state_of(0) is BreakerState.CLOSED
    for _ in range(2):
        tracker.record_failure(0, now=12.0)
    assert tracker.state_of(0) is BreakerState.CLOSED
    assert tracker.is_available(0, now=12.0)
    tracker.record_failure(0, now=13.0)
    assert tracker.state_of(0) is BreakerState.OPEN


def test_half_open_single_failure_reopens_below_threshold():
    """In HALF_OPEN one failure re-opens immediately — the threshold
    only applies to CLOSED-state streaks."""
    tracker = make_tracker(threshold=3, quarantine=10.0)
    for _ in range(3):
        tracker.record_failure(0, now=0.0)
    assert tracker.is_available(0, now=10.0)
    assert tracker.state_of(0) is BreakerState.HALF_OPEN
    tracker.record_failure(0, now=11.0)
    assert tracker.state_of(0) is BreakerState.OPEN
    health = tracker._workers[0]
    assert health.times_opened == 2


def test_reopen_restarts_the_quarantine_clock():
    tracker = make_tracker(threshold=1, quarantine=10.0)
    tracker.record_failure(0, now=0.0)  # OPEN until 10
    assert tracker.is_available(0, now=10.0)  # HALF_OPEN
    tracker.record_failure(0, now=12.0)  # re-OPEN until 22
    assert not tracker.is_available(0, now=21.9)
    assert tracker.is_available(0, now=22.0)
    assert tracker.state_of(0) is BreakerState.HALF_OPEN


def test_half_open_stays_probing_across_queries():
    """HALF_OPEN is stable under repeated availability queries: the
    probe gate does not flap back to OPEN or CLOSED on its own."""
    tracker = make_tracker(threshold=1, quarantine=5.0)
    tracker.record_failure(0, now=0.0)
    for t in (5.0, 6.0, 7.0):
        assert tracker.is_available(0, now=t)
        assert tracker.state_of(0) is BreakerState.HALF_OPEN


def test_exactly_at_threshold_opens_not_before():
    tracker = make_tracker(threshold=2)
    tracker.record_failure(0, now=0.0)
    assert tracker.state_of(0) is BreakerState.CLOSED
    tracker.record_failure(0, now=0.0)
    assert tracker.state_of(0) is BreakerState.OPEN
