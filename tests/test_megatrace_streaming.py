"""The streaming (bounded-RSS) megatrace fast path.

Two claims carry the 10^8-invocation run: the chunked Poisson trace is
bit-identical to the eager ``poisson_trace`` generator, and the
streaming replay (chunked arrivals, compacting power traces) changes
*no* simulation value.  Megatrace once also had an eager replay path
(materialized trace, full power traces); the literals below were
recorded from it and the streaming path, which agreed bit for bit."""

import hashlib

import pytest

from repro.experiments import megatrace
from repro.sim.rng import RandomStreams
from repro.workloads.traces import (
    ChunkedPoissonTrace,
    poisson_trace,
)


def eager_pairs(rate, duration, seed):
    trace = poisson_trace(rate, duration, streams=RandomStreams(seed))
    return list(trace.iter_pairs())


def pairs_digest(pairs):
    return hashlib.sha256(repr(list(pairs)).encode()).hexdigest()


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


#: (rate, duration, seed) -> (arrivals, sha256 of the pairs' repr).
RECORDED_DIGESTS = {
    (3.0, 50.0, 0): (
        149, "0734e4d619d51ad0a0f4429dae756277f6524613daa116bbe751d69da110db3c"
    ),
    (40.0, 600.0, 7): (
        24106,
        "20f6171d3a22d118d96dfcfb80a2918defc6d230452a65516065fe2ebe56b7a1",
    ),
}


@pytest.mark.parametrize("rate,duration,seed", sorted(RECORDED_DIGESTS))
def test_chunked_trace_matches_recorded_digest(rate, duration, seed):
    """Both forms share one chunk sampler, so pin its output to the
    digest recorded when each form ran its own sampling loop."""
    chunked = ChunkedPoissonTrace(
        rate_per_s=rate, duration_s=duration, seed=seed
    )
    pairs = list(chunked.iter_pairs())
    assert (len(pairs), pairs_digest(pairs)) == RECORDED_DIGESTS[
        (rate, duration, seed)
    ]


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
    result = megatrace.run(invocations=3_000, worker_count=24, seed=11)
    assert fingerprint(result) == (
        3044,
        447.8438163784326,
        407.8207475922082,
        3.3650682110492474,
        8.572719941286548,
        5.773676039879285,
        0,
    )


def test_streaming_megatrace_matches_eager_partitioned():
    result = megatrace.run(
        invocations=3_000, worker_count=24, seed=11, shards=3
    )
    assert fingerprint(result) == (
        3044,
        446.93416604975846,
        408.6507899234228,
        3.6282635627361453,
        9.27938776312187,
        5.772809052054424,
        0,
    )
