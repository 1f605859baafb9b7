"""Shard-merge algebra for the streaming telemetry primitives.

The sharded runner (:mod:`repro.shard`) folds per-shard collectors into
one result, so the underlying accumulators must behave like a
commutative monoid on the observables that matter: splitting a stream
into any number of shards, merging in any order, and any grouping of
the merges must agree with the single-pass aggregate.  These tests pin
that down for :class:`~repro.core.telemetry.QuantileSketch` (integer
buckets — bit-identical under any merge tree), which is also all a
collector keeps per worker platform.
"""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.core.telemetry import QuantileSketch

values = st.lists(
    st.floats(min_value=0.0, max_value=1e4),
    min_size=1,
    max_size=80,
)
#: Shard boundaries: each value routes to shard ``i % shards``.
shard_counts = st.integers(min_value=3, max_value=6)

PROBES = (0.0, 25.0, 50.0, 90.0, 99.0, 100.0)


def sketch_of(samples):
    sketch = QuantileSketch()
    for value in samples:
        sketch.add(value)
    return sketch


def split_round_robin(samples, shards):
    return [samples[i::shards] for i in range(shards)]


def sketch_state(sketch):
    """The full observable state of a sketch."""
    return (
        sketch.count,
        sketch._zero_count,
        dict(sketch._buckets),
        tuple(sketch.quantile(p) for p in PROBES) if sketch.count else (),
    )


@settings(max_examples=60, deadline=None)
@given(samples=values, shards=shard_counts)
def test_sketch_merge_is_order_independent(samples, shards):
    """Any permutation of shard merges yields the identical sketch."""
    parts = split_round_robin(samples, shards)
    reference = sketch_of(samples)
    # Bound the factorial blow-up; 3! = 6 orders already exercises
    # non-commutativity if there were any.
    for order in list(permutations(range(shards)))[:6]:
        merged = QuantileSketch()
        for index in order:
            merged.merge(sketch_of(parts[index]))
        assert sketch_state(merged) == sketch_state(reference)


@settings(max_examples=60, deadline=None)
@given(samples=values, shards=shard_counts)
def test_sketch_merge_is_associative(samples, shards):
    """((a+b)+c)+... == a+(b+(c+...)) == pairwise tree, exactly."""
    parts = [sketch_of(part) for part in split_round_robin(samples, shards)]

    left = QuantileSketch()
    for part in parts:
        left.merge(part)

    def tree_merge(sketches):
        if len(sketches) == 1:
            return sketches[0]
        mid = len(sketches) // 2
        a = tree_merge(sketches[:mid])
        b = tree_merge(sketches[mid:])
        a.merge(b)
        return a

    right = tree_merge(
        [sketch_of(part) for part in split_round_robin(samples, shards)]
    )
    assert sketch_state(left) == sketch_state(right)
    assert sketch_state(left) == sketch_state(sketch_of(samples))
