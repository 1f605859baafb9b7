"""The streaming (bounded-RSS) megatrace fast path.

Two claims carry the 10^8-invocation run: the chunked Poisson trace is
bit-identical to the eager columnar generator, and turning streaming on
changes *no* simulation value — only wall-clock and resident memory."""

import pytest

from repro.experiments import megatrace
from repro.sim.rng import RandomStreams
from repro.workloads.traces import (
    ChunkedPoissonTrace,
    poisson_trace,
)


def eager_pairs(rate, duration, seed):
    trace = poisson_trace(
        rate, duration, streams=RandomStreams(seed), columnar=True
    )
    return list(trace.iter_pairs())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "rate,duration",
    [
        (3.0, 50.0),
        (40.0, 600.0),  # > _CHUNK arrivals: exercises chunk chaining
    ],
)
def test_chunked_trace_is_bit_identical_to_eager(rate, duration, seed):
    chunked = ChunkedPoissonTrace(
        rate_per_s=rate, duration_s=duration, seed=seed
    )
    assert list(chunked.iter_pairs()) == eager_pairs(rate, duration, seed)


def test_chunked_stripes_partition_the_eager_trace():
    chunked = ChunkedPoissonTrace(rate_per_s=25.0, duration_s=400.0, seed=3)
    full = eager_pairs(25.0, 400.0, 3)
    stripes = [chunked.stripe(i, 4) for i in range(4)]
    seen = [list(s.iter_pairs()) for s in stripes]
    # Round-robin: stripe i holds events i, i+4, i+8, ... exactly.
    for index, events in enumerate(seen):
        assert events == full[index::4]
    assert sorted(t for events in seen for t, _ in events) == [
        t for t, _ in full
    ]
    with pytest.raises(ValueError, match="re-stripe"):
        stripes[0].stripe(0, 2)


def test_chunked_trace_validates_parameters():
    with pytest.raises(ValueError):
        ChunkedPoissonTrace(rate_per_s=0.0, duration_s=10.0, seed=1)
    with pytest.raises(ValueError):
        ChunkedPoissonTrace(
            rate_per_s=1.0, duration_s=10.0, seed=1, stripe_index=2,
            stripe_count=2,
        )


def fingerprint(result):
    return (
        result.invocations,
        result.sim_duration_s,
        result.throughput_per_min,
        result.mean_latency_s,
        result.p99_latency_s,
        result.joules_per_function,
        result.records_retained,
    )


def test_streaming_megatrace_matches_eager_serial():
    eager = megatrace.run(invocations=3_000, worker_count=24, seed=11,
                          streaming=False)
    streaming = megatrace.run(invocations=3_000, worker_count=24, seed=11,
                              streaming=True)
    assert fingerprint(streaming) == fingerprint(eager)


def test_streaming_megatrace_matches_eager_partitioned():
    eager = megatrace.run(
        invocations=3_000, worker_count=24, seed=11, shards=3,
        streaming=False,
    )
    streaming = megatrace.run(
        invocations=3_000, worker_count=24, seed=11, shards=3,
        streaming=True,
    )
    assert fingerprint(streaming) == fingerprint(eager)


def test_streaming_auto_threshold():
    # Below the threshold the eager path is chosen; the flag overrides.
    assert megatrace.STREAMING_THRESHOLD == 10_000_000
    result = megatrace.run(invocations=1_000, worker_count=8, seed=2)
    assert result.invocations > 0  # auto mode ran eager without error
    assert result.streaming is False


def rendered_row(result, metric):
    (row,) = [
        line for line in megatrace.render(result).splitlines()
        if line.startswith(metric)
    ]
    return row


@pytest.mark.parametrize("shards", [1, 2])
def test_render_names_the_arrival_path_that_ran(shards):
    eager, streaming = (
        megatrace.run(invocations=500, worker_count=8, seed=2,
                      shards=shards, streaming=flag)
        for flag in (False, True)
    )
    assert (eager.streaming, streaming.streaming) == (False, True)
    assert "eager" in rendered_row(eager, "arrival path")
    assert "streaming" in rendered_row(streaming, "arrival path")
    # The always-on sketch telemetry is not the streaming path.
    for result in (eager, streaming):
        assert "streaming" not in rendered_row(result, "records retained")
