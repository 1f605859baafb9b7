"""The shared backoff module, and the refactor's no-drift pins.

`repro.core.backoff` is the single implementation behind three retry
layers (orchestrator recovery, gateway ingress, client SDK).  These
tests pin the math itself, the delegation from each layer, and — the
load-bearing part — that hoisting the duplicated formulas changed
*nothing*: the fault study and the federation study reproduce the
exact floats captured before the refactor.
"""

import pytest

from repro.client import RetryPolicy
from repro.core.backoff import backoff_delay_s, jitter_fraction
from repro.core.policies import RecoveryPolicy
from repro.experiments import fault_study, federation_study
from repro.sim.rng import derive_seed


def test_attempt_numbers_start_at_one():
    with pytest.raises(ValueError):
        backoff_delay_s(
            0, base_s=1.0, factor=2.0, max_s=8.0, jitter=0.2, key=7
        )
    with pytest.raises(ValueError):
        backoff_delay_s(
            -3, base_s=1.0, factor=2.0, max_s=8.0, jitter=0.2, key=7
        )


def test_zero_jitter_is_the_exact_exponential():
    for attempt, want in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0), (5, 8.0),
                          (6, 8.0)):
        got = backoff_delay_s(
            attempt, base_s=0.5, factor=2.0, max_s=8.0, jitter=0.0, key=1
        )
        assert got == want


def test_zero_base_never_jitters():
    assert backoff_delay_s(
        3, base_s=0.0, factor=2.0, max_s=8.0, jitter=0.5, key=1
    ) == 0.0


def test_jitter_is_bounded_and_deterministic():
    for attempt in range(1, 8):
        a = backoff_delay_s(
            attempt, base_s=1.0, factor=2.0, max_s=8.0, jitter=0.2, key=99
        )
        b = backoff_delay_s(
            attempt, base_s=1.0, factor=2.0, max_s=8.0, jitter=0.2, key=99
        )
        assert a == b
        base = min(1.0 * 2.0 ** (attempt - 1), 8.0)
        assert base <= a <= base * 1.2


def test_jitter_fraction_matches_derive_seed_hash():
    assert jitter_fraction(42, "backoff-3") == (
        derive_seed(42, "backoff-3") % 2**20
    ) / 2**20
    assert 0.0 <= jitter_fraction("key", "salt") < 1.0


def test_layers_jitter_independently():
    """Same key, different salt: the three retry layers never share a
    jitter stream even when their key spaces collide."""
    delays = {
        salt: backoff_delay_s(
            2, base_s=0.5, factor=2.0, max_s=8.0, jitter=0.2, key=17,
            salt=salt,
        )
        for salt in ("backoff", "ingress-backoff", "client-backoff")
    }
    assert len(set(delays.values())) == 3


def test_recovery_policy_delegates_to_shared_backoff():
    policy = RecoveryPolicy()
    for attempt in (1, 2, 5):
        for job_id in (0, 1, 123):
            assert policy.backoff_s(attempt, job_id) == backoff_delay_s(
                attempt,
                base_s=policy.backoff_base_s,
                factor=policy.backoff_factor,
                max_s=policy.backoff_max_s,
                jitter=policy.backoff_jitter,
                key=job_id,
                salt="backoff",
            )


def test_client_retry_policy_delegates_to_shared_backoff():
    policy = RetryPolicy()
    for retry in (1, 2, 3):
        for call_id in (0, 7):
            assert policy.backoff_s(retry, call_id) == backoff_delay_s(
                retry,
                base_s=policy.backoff_base_s,
                factor=policy.backoff_factor,
                max_s=policy.backoff_max_s,
                jitter=policy.backoff_jitter,
                key=call_id,
                salt="client-backoff",
            )


def test_fault_study_is_pinned_across_the_refactor():
    """Exact floats captured before backoff was hoisted into
    `repro.core.backoff` — recovery retry timing must not have moved."""
    result = fault_study.run(
        fault_rate_scales=(0.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        seed=7,
    )
    got = [
        (p.fault_rate_scale, p.goodput_per_min, p.p99_latency_s,
         p.joules_per_function, p.timeout_retries, p.resubmissions,
         p.hedges)
        for p in result.points
    ]
    assert got == [
        (0.0, 73.53021334837065, 27.743697551031303, 5.7412249449341655,
         0, 0, 0),
        (2.0, 35.14185591979988, 58.050434349729606, 7.818698228386457,
         0, 34, 1),
    ]


def test_federation_study_is_pinned_across_the_refactor():
    """Same contract for the gateway's ingress backoff."""
    result = federation_study.run(
        user_counts=(100_000,),
        outage_rate_scales=(0.0, 2.0),
        duration_s=40.0,
    )
    got = [
        (p.outage_rate_scale, p.goodput_per_min, p.worst_p99_s,
         p.energy_joules, p.jobs_delivered, p.outages, p.mean_recovery_s)
        for p in result.points
    ]
    assert got == [
        (0.0, 50.32289965930407, 15.223819189140405, 242.74481999051721,
         41, 0, None),
        (2.0, 47.527150819874535, 14.345744839032879, 246.3304683347796,
         41, 1, 6.500000000000001),
    ]
