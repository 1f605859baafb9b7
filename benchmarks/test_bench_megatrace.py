"""Benchmark: the megatrace fast-path replay (bounded-memory proof).

Sized at 100k arrivals so the bench stays in tens of seconds; the
full million-invocation run is the same code path scaled 10x (see
``python -m repro megatrace --invocations 100``).
"""

import multiprocessing

from benchmarks.conftest import emit
from repro.experiments import megatrace

INVOCATIONS = 100_000


def run_in_child(**kwargs):
    """``megatrace.run`` in a fresh interpreter, so the result's peak
    RSS is this run's alone, not the high-water mark of whatever ran
    earlier in the pytest process.  The child is spawned, not forked: a
    forked child would start with the parent's resident pages."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(megatrace.run, kwds=kwargs)


def test_bench_megatrace(benchmark):
    result = benchmark.pedantic(
        run_in_child,
        kwargs={"invocations": INVOCATIONS},
        rounds=5,
        iterations=1,
    )
    emit(megatrace.render(result))
    # A Poisson trace of the target duration delivers ~INVOCATIONS
    # arrivals (the exact count is a random draw), all completed.
    assert abs(result.invocations - INVOCATIONS) / INVOCATIONS < 0.02
    # Fast-path wall-clock: ~12 s on a laptop core; 60 s is the
    # regression trip-wire for slow CI machines.
    assert result.wall_clock_s < 60.0
    assert result.events_per_wall_s > 2_000
    # Bounded memory: streaming telemetry retains no per-record state,
    # the sketch stays within its log-bucket bound, and process RSS
    # never approaches what 100k boxed records would cost.
    assert result.records_retained == 0
    assert result.sketch_buckets < 2_000
    assert result.peak_rss_mib < 1024.0


def test_bench_megatrace_streaming_rss_bound(benchmark):
    """The 10^8-invocation code path, held to a fixed memory bound.

    Every megatrace runs exactly what a 10^8 run executes — chunked
    arrival generation (no materialized trace) plus autocompacting power
    traces — so asserting RSS here pins the only property that run
    depends on.  A full 10^8 replay on this path measured ~160 MiB peak
    RSS over ~2.5 h (recorded in ``BENCH_scale.json``); memory is
    O(in-flight + workers), so this 200k-arrival bench sees the same
    plateau and 512 MiB is the trip-wire.
    """
    result = benchmark.pedantic(
        run_in_child,
        kwargs={"invocations": 200_000},
        rounds=1,
        iterations=1,
    )
    emit(megatrace.render(result))
    assert abs(result.invocations - 200_000) / 200_000 < 0.02
    assert result.records_retained == 0
    assert result.peak_rss_mib < 512.0
