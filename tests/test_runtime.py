"""Tests for the live local FaaS platform (real execution)."""

import random

import pytest

from repro.runtime import LocalFaaSPlatform
from repro.workloads import ALL_FUNCTION_NAMES, get_function


@pytest.fixture
def platform():
    p = LocalFaaSPlatform(workers=4, seed=0)
    yield p
    p.shutdown()


def completed(platform):
    return sum(worker.jobs_completed for worker in platform.workers)


def failed(platform):
    return sum(worker.jobs_failed for worker in platform.workers)


def test_invoke_cpu_function(platform):
    outcome = platform.invoke("CascSHA", scale=0.01)
    assert outcome.function == "CascSHA"
    assert len(outcome.result["digest_hex"]) == 64
    assert outcome.latency_s > 0


def test_invoke_network_function(platform):
    outcome = platform.invoke("RedisInsert", scale=0.2)
    assert outcome.result["inserted"] > 0


def test_every_table1_function_runs_live(platform):
    for name in ALL_FUNCTION_NAMES:
        outcome = platform.invoke(name, scale=0.03)
        assert isinstance(outcome.result, dict) and outcome.result, name
    assert completed(platform) == 17
    assert failed(platform) == 0


def test_invoke_with_explicit_payload(platform):
    outcome = platform.invoke(
        "RegExMatch",
        payload={
            "candidates": ["a@b.com", "nope"],
            "pattern": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
        },
    )
    assert outcome.result == {"valid": 1, "total": 2}


def test_invoke_many_fans_out(platform):
    outcomes = platform.invoke_many("FloatOps", count=8, scale=0.02)
    assert len(outcomes) == 8
    assert completed(platform) == 8


def test_failures_surface_as_exceptions(platform):
    future = platform.invoke_async(
        "AES128", payload={"message_hex": "00", "key_hex": "00", "rounds": 1}
    )
    with pytest.raises(ValueError):
        future.result(timeout=10)
    assert failed(platform) == 1


def test_unknown_function_rejected(platform):
    with pytest.raises(KeyError):
        platform.invoke("Teleport")


def test_mean_latency_tracking(platform):
    platform.invoke("FloatOps", scale=0.02)
    platform.invoke("FloatOps", scale=0.02)
    assert platform.mean_latency_s("FloatOps") > 0
    with pytest.raises(KeyError):
        platform.mean_latency_s("CascSHA")


def test_shutdown_rejects_new_work():
    platform = LocalFaaSPlatform(workers=2)
    platform.shutdown()
    with pytest.raises(RuntimeError):
        platform.invoke("FloatOps", scale=0.01)
    platform.shutdown()  # idempotent


def test_context_manager():
    with LocalFaaSPlatform(workers=2) as platform:
        outcome = platform.invoke("CascMD5", scale=0.01)
        assert outcome.result["digest_hex"]
    with pytest.raises(RuntimeError):
        platform.invoke("CascMD5", scale=0.01)


def test_worker_count_validation():
    with pytest.raises(ValueError):
        LocalFaaSPlatform(workers=0)


def test_invoke_many_validation(platform):
    with pytest.raises(ValueError):
        platform.invoke_many("FloatOps", count=0)


def test_concurrent_network_functions_are_serialized_safely(platform):
    """Parallel Redis inserts through the service lock never collide."""
    function = get_function("RedisInsert")
    payloads = [
        function.generate_input(random.Random(seed), scale=0.1)
        for seed in range(12)
    ]
    futures = [
        platform.invoke_async("RedisInsert", payload=payload)
        for payload in payloads
    ]
    results = [f.result(timeout=30) for f in futures]
    total = sum(r["inserted"] for r in results)
    assert total == sum(r["requested"] for r in results)
    for payload in payloads:
        for index, value in enumerate(payload["values"]):
            key = f"{payload['key_prefix']}:{index}"
            assert platform.services.kv.get(key) == value
