"""The FunctionExecutor over real clusters: wait semantics, chaining,
client retries, and the push-style completion hooks they ride on."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client import (
    ALL_COMPLETED,
    ALWAYS,
    ANY_COMPLETED,
    BatchInvoker,
    FunctionExecutor,
    FutureError,
    FutureState,
    ResponseFuture,
    RetryPolicy,
    SyncInvoker,
    make_invoker,
)
from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.federation import FederatedCluster, RegionSpec
from repro.workloads.profiles import profile_for
from tests.test_client_futures import is_legal_sequence


def small_executor(seed=3, workers=4, **kwargs):
    cluster = MicroFaaSCluster(
        worker_count=workers, seed=seed, policy=LeastLoadedPolicy()
    )
    return cluster, FunctionExecutor(cluster, **kwargs)


# -- wait semantics ---------------------------------------------------------


def test_map_wait_all_resolves_everything():
    cluster, ex = small_executor()
    futures = ex.map("MatMul", 6)
    assert all(f.state is FutureState.NEW for f in futures)  # buffered
    done, not_done = ex.wait(futures)
    assert not_done == []
    assert [f.call_id for f in done] == [f.call_id for f in futures]
    for f in futures:
        assert f.success
        assert f.result().function == "MatMul"
        assert f.output_bytes == profile_for("MatMul").output_bytes
        assert is_legal_sequence([s for s, _t in f.state_log])
    assert ex.stats.succeeded == 6
    assert ex.stats.resolved == ex.stats.calls_tracked


def test_wait_always_never_advances_the_clock():
    cluster, ex = small_executor()
    futures = ex.map("AES128", 4)
    before = cluster.env.now
    done, not_done = ex.wait(futures, return_when=ALWAYS)
    assert cluster.env.now == before
    assert done == [] and len(not_done) == 4
    # The flush still happened: the batch is submitted, just not run.
    assert all(f.state is FutureState.INVOKED for f in futures)


def test_wait_any_returns_exactly_the_resolved_set():
    cluster, ex = small_executor(workers=2)
    futures = ex.map("FloatOps", 8)
    done, not_done = ex.wait(futures, return_when=ANY_COMPLETED)
    assert len(done) >= 1
    assert {f.call_id for f in done} == {
        f.call_id for f in futures if f.done
    }
    for f in not_done:
        assert not f.done and f.t_done is None
    # The clock stopped at the first resolution, not the last.
    assert cluster.env.now == min(f.t_done for f in done)
    ex.wait(futures)
    assert all(f.done for f in futures)


def test_wait_timeout_bounds_simulated_time():
    cluster, ex = small_executor(workers=1)
    futures = ex.map("MatMul", 5)
    done, not_done = ex.wait(futures, timeout=0.25)
    assert cluster.env.now == 0.25
    assert not_done  # nothing finishes that fast on one worker
    done, not_done = ex.wait(futures)
    assert not not_done


def test_wait_rejects_unknown_mode():
    _cluster, ex = small_executor()
    with pytest.raises(ValueError):
        ex.wait(return_when="SOME_COMPLETED")


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=3),
    seed=st.integers(min_value=0, max_value=50),
)
def test_property_any_partition_and_legal_logs(counts, seed):
    """Under arbitrary fan-out shapes and seeds, ANY_COMPLETED always
    returns exactly the resolved futures, and every state log stays
    legal through the full drain."""
    _cluster, ex = small_executor(seed=seed, workers=2)
    futures = []
    for count in counts:
        futures.extend(ex.map("FloatOps", count))
    done, not_done = ex.wait(futures, return_when=ANY_COMPLETED)
    assert len(done) >= 1
    assert {id(f) for f in done} == {id(f) for f in futures if f.done}
    assert all(not f.done for f in not_done)
    ex.wait(futures)
    assert all(f.success for f in futures)
    assert all(
        is_legal_sequence([s for s, _t in f.state_log]) for f in futures
    )


# -- invokers ---------------------------------------------------------------


def test_batch_invoker_buffers_until_flush():
    _cluster, ex = small_executor()
    assert isinstance(ex.invoker, BatchInvoker)
    futures = ex.map("MatMul", 5)
    assert ex.invoker.pending == 5
    ex.invoker.flush()
    assert ex.invoker.pending == 0
    assert ex.invoker.batches_flushed == 1
    assert ex.invoker.calls_flushed == 5
    assert all(f.state is FutureState.INVOKED for f in futures)


def test_sync_invoker_submits_immediately():
    cluster, ex = small_executor(invoker="sync")
    assert isinstance(ex.invoker, SyncInvoker)
    future = ex.call_async("MatMul")
    assert future.state is FutureState.INVOKED
    assert future.key in cluster.orchestrator.jobs
    done, _ = ex.wait([future])
    assert done == [future]


def test_make_invoker_rejects_unknown_kind():
    cluster, ex = small_executor()
    with pytest.raises(ValueError):
        make_invoker("lazy", ex.backend, lambda f, h: None)


def test_idempotency_key_is_stamped_on_the_backend_job():
    cluster, ex = small_executor(executor_id=7)
    future = ex.call_async("MatMul")
    ex.invoker.flush()
    job = cluster.orchestrator.jobs[future.key]
    assert job.idempotency_key == f"client/7/{future.call_id}"


# -- chaining ---------------------------------------------------------------


def test_map_reduce_invokes_at_last_parent_and_bills_outputs():
    cluster, ex = small_executor()
    reduce_future = ex.map_reduce(["MatMul", "AES128", "FloatOps"],
                                  "CascSHA")
    maps = reduce_future.parents
    assert len(maps) == 3
    done, not_done = ex.wait()
    assert not not_done
    assert reduce_future.success
    # The reduce invoked at the simulated instant its last map resolved.
    assert reduce_future.t_invoked == max(p.t_done for p in maps)
    # Every parent's output bytes billed into the reduce input.
    extra = sum(p.output_bytes for p in maps)
    assert extra > 0
    spec = ex._specs[reduce_future.call_id]
    assert spec.extra_input_bytes == extra
    job = cluster.orchestrator.jobs[reduce_future.key]
    assert job.input_bytes == profile_for("CascSHA").input_bytes + extra


def test_failed_parent_fails_the_chained_call_without_invoking():
    _cluster, ex = small_executor()
    parent = ex.call_async("MatMul")
    ex.monitor.resolve_error(parent, "injected failure")
    child = ex.call_async("CascSHA", parents=[parent])
    assert child.state is FutureState.ERROR
    assert child.keys == []  # never reached the backend
    assert [s for s, _t in child.state_log] == [
        FutureState.NEW, FutureState.ERROR
    ]
    assert "parent call 0 failed" in child.error
    with pytest.raises(FutureError):
        child.result()


def test_chained_grandparents_run_in_dependency_order():
    _cluster, ex = small_executor()
    first = ex.call_async("MatMul")
    second = ex.call_async("AES128", parents=[first])
    third = ex.call_async("CascSHA", parents=[second])
    done, not_done = ex.wait([first, second, third])
    assert not not_done
    assert first.t_done <= second.t_invoked <= second.t_done
    assert second.t_done <= third.t_invoked <= third.t_done


# -- client retries ---------------------------------------------------------


def test_client_timeouts_retry_and_never_double_count():
    cluster, ex = small_executor(
        seed=5,
        workers=2,
        retries=RetryPolicy(
            max_retries=2, call_timeout_s=2.0, monitor_tick_s=0.5,
            backoff_base_s=0.25,
        ),
    )
    futures = ex.map("MatMul", 8)
    ex.wait(futures)
    ex.drain()  # let losing duplicate attempts finish
    assert all(f.done for f in futures)
    retried = [f for f in futures if f.client_retries]
    assert retried, "2 s budget on a 2-worker cluster must time out"
    for f in retried:
        assert len(f.keys) == f.client_retries + 1
        assert len(set(f.keys)) == len(f.keys)
        assert [r.retry for r in f.retry_history] == list(
            range(1, f.client_retries + 1)
        )
        assert all(r.reason == "timeout" for r in f.retry_history)
        assert all(r.backoff_s > 0 for r in f.retry_history)
        assert is_legal_sequence([s for s, _t in f.state_log])
    stats = ex.stats
    # Exactly one resolution per call, however many attempts raced.
    assert stats.resolved == len(futures)
    assert stats.succeeded + stats.failed == len(futures)
    assert stats.timeouts >= len(retried)
    # The raced-out originals still completed backend-side and were
    # absorbed as duplicates, not double deliveries.
    assert stats.duplicates_suppressed > 0
    assert stats.calls_tracked == sum(len(f.keys) for f in futures)


def test_exhausted_retry_budget_resolves_error():
    _cluster, ex = small_executor(
        seed=5,
        workers=1,
        retries=RetryPolicy(max_retries=1, call_timeout_s=0.5,
                            monitor_tick_s=0.25, backoff_base_s=0.1),
    )
    futures = ex.map("MatMul", 4)
    ex.wait(futures)
    failed = [f for f in futures if not f.success]
    assert failed, "0.5 s budget cannot be met on one worker"
    for f in failed:
        assert f.error == "timeout"
        assert f.client_retries == 1  # budget spent, then ERROR
    assert ex.stats.failed == len(failed)


def test_track_running_surfaces_running_transitions():
    _cluster, ex = small_executor(track_running=True)
    futures = ex.map("MatMul", 4)
    ex.wait(futures)
    states = [
        [s for s, _t in f.state_log] for f in futures
    ]
    assert any(FutureState.RUNNING in log for log in states)
    assert all(is_legal_sequence(log) for log in states)


# -- completion hooks -------------------------------------------------------


def test_evict_finished_still_fires_client_callbacks():
    """Regression (satellite): `on_job_done` fires before eviction, so
    the SDK works unchanged on memory-bounded evicting runs."""
    cluster, ex = small_executor()
    cluster.orchestrator.evict_finished = True
    futures = ex.map("MatMul", 6)
    done, not_done = ex.wait(futures)
    assert not not_done
    assert all(f.success for f in futures)
    for f in futures:
        assert f.result() is not None
        assert f.key not in cluster.orchestrator.jobs  # evicted
    assert ex.stats.succeeded == 6


def test_multiple_on_job_done_subscribers_coexist():
    cluster, ex = small_executor()
    seen = []
    cluster.orchestrator.on_job_done(
        lambda job, record: seen.append((job.job_id, record is not None))
    )
    futures = ex.map("AES128", 3)
    ex.wait(futures)
    assert sorted(key for key, _ok in seen) == sorted(
        f.key for f in futures
    )
    assert all(ok for _key, ok in seen)


# -- federation backend -----------------------------------------------------


def one_region_federation():
    return FederatedCluster(
        [RegionSpec("eu", "eu", worker_count=4, seed=5)]
    )


def test_federation_backend_resolves_via_gateway():
    fed = one_region_federation()
    ex = FunctionExecutor(fed)
    futures = ex.map("MatMul", 4)
    done, not_done = ex.wait(futures)
    assert not not_done
    for f in futures:
        assert f.success
        assert f.result().delivered
        assert f.output_bytes == profile_for("MatMul").output_bytes
    assert ex.stats.succeeded == 4


def test_federation_backend_rejects_chaining():
    fed = one_region_federation()
    ex = FunctionExecutor(fed)
    parent = ex.call_async("MatMul")
    with pytest.raises(ValueError):
        ex.call_async("CascSHA", parents=[parent])
