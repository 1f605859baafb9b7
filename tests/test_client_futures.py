"""Property tests: the ResponseFuture state machine.

The future is the client's only handle on a call, so its lifecycle has
to be airtight under *any* interleaving of invocations, retries,
RUNNING sightings, duplicate resolutions, and terminal errors.
Hypothesis drives randomly generated operation sequences through a
bare future and asserts the recorded state log is always legal; the
executor-level tests then check the same invariant holds when a real
simulation produces the interleavings.
"""

import pytest
from hypothesis import given, strategies as st

from repro.client import (
    FutureError,
    FutureState,
    IllegalTransition,
    LEGAL_TRANSITIONS,
    ResponseFuture,
    RetryRecord,
)


def is_legal_sequence(states):
    """Whether a recorded state sequence obeys the transition relation."""
    if not states or states[0] is not FutureState.NEW:
        return False
    return all(
        after in LEGAL_TRANSITIONS[before]
        for before, after in zip(states, states[1:])
    )


# The operations the executor/monitor pair can drive a future through.
# Guards mirror the call sites: nothing re-invokes or times a future
# out once it is done, and mark_running is a no-op unless INVOKED.
OPS = st.lists(
    st.sampled_from(["invoke", "running", "success", "error"]),
    min_size=0,
    max_size=12,
)


def _drive(future, ops):
    """Apply ops with the same done-guards the monitor/executor use."""
    now = 0.0
    key = 0
    for op in ops:
        if future.done:
            break
        now += 1.0
        if op == "invoke":
            future.mark_invoked(f"job-{key}", now)
            key += 1
        elif op == "running":
            if future.state in (FutureState.INVOKED, FutureState.RUNNING):
                future.mark_running(now)
        elif op == "success":
            if future.state is not FutureState.NEW:
                future.mark_success("record", 64, now)
        elif op == "error":
            future.mark_error("boom", now)
    return future


@given(ops=OPS)
def test_any_interleaving_yields_a_legal_sequence(ops):
    future = _drive(ResponseFuture(0, "MatMul", 0.0), ops)
    states = [state for state, _t in future.state_log]
    assert is_legal_sequence(states)
    # Timestamps never go backwards.
    times = [t for _state, t in future.state_log]
    assert times == sorted(times)
    # A terminal state, once entered, is the last entry.
    for state in (FutureState.SUCCESS, FutureState.ERROR):
        if state in states:
            assert states[-1] is state
            assert states.count(state) == 1


@given(ops=OPS)
def test_keys_accumulate_one_per_invocation(ops):
    future = _drive(ResponseFuture(3, "AES128", 0.0), ops)
    states = [state for state, _t in future.state_log]
    assert len(future.keys) == states.count(FutureState.INVOKED)
    if future.keys:
        assert future.key == future.keys[-1]
        assert len(set(future.keys)) == len(future.keys)


def test_success_from_new_is_illegal():
    future = ResponseFuture(0, "MatMul", 0.0)
    with pytest.raises(IllegalTransition):
        future.mark_success("record", 1, 1.0)


def test_terminal_states_admit_nothing():
    future = ResponseFuture(0, "MatMul", 0.0)
    future.mark_invoked("job-0", 1.0)
    future.mark_success("record", 8, 2.0)
    with pytest.raises(IllegalTransition):
        future.mark_invoked("job-1", 3.0)
    with pytest.raises(IllegalTransition):
        future.mark_error("late", 3.0)
    assert LEGAL_TRANSITIONS[FutureState.SUCCESS] == frozenset()
    assert LEGAL_TRANSITIONS[FutureState.ERROR] == frozenset()


def test_is_legal_sequence_rejects_malformed_logs():
    S = FutureState
    assert not is_legal_sequence([])
    assert not is_legal_sequence([S.INVOKED])  # must start at NEW
    assert not is_legal_sequence([S.NEW, S.SUCCESS])  # skips INVOKED
    assert not is_legal_sequence([S.NEW, S.INVOKED, S.SUCCESS, S.INVOKED])
    assert is_legal_sequence([S.NEW, S.ERROR])  # failed-parent chain
    assert is_legal_sequence(
        [S.NEW, S.INVOKED, S.RUNNING, S.INVOKED, S.SUCCESS]  # client retry
    )


def test_result_raises_until_resolved():
    future = ResponseFuture(0, "FloatOps", 0.0)
    with pytest.raises(RuntimeError):
        future.result()
    future.mark_invoked("job-0", 1.0)
    future.mark_error("gave up", 2.0)
    with pytest.raises(FutureError):
        future.result()
    assert future.result(raise_on_error=False) is None
    assert future.error == "gave up"
    assert future.latency_s == 2.0


def test_done_callbacks_fire_once_and_immediately_when_late():
    future = ResponseFuture(0, "MatMul", 0.0)
    seen = []
    future.add_done_callback(seen.append)
    future.mark_invoked("job-0", 1.0)
    future.mark_success("record", 16, 2.0)
    assert seen == [future]
    future.add_done_callback(seen.append)  # already resolved: fires now
    assert seen == [future, future]


def test_retry_history_is_ordered():
    future = ResponseFuture(0, "MatMul", 0.0)
    future.mark_invoked("job-0", 1.0)
    future.record_retry(
        RetryRecord(retry=1, failed_key="job-0", reason="timeout",
                    t_scheduled=2.0, backoff_s=0.5)
    )
    future.mark_invoked("job-1", 2.5)
    assert future.client_retries == 1
    assert [r.retry for r in future.retry_history] == [1]
    assert future.keys == ["job-0", "job-1"]
