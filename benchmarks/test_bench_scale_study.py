"""Benchmark: the scale study (prototype architecture at fleet size)."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import scale_study


def test_bench_scale_study(benchmark):
    # Five rounds because one round is well under 10 s.
    result = benchmark.pedantic(
        scale_study.run,
        kwargs={
            "worker_counts": (10, 200, 600),
            "jobs_per_worker": 3,
        },
        rounds=5,
        iterations=1,
    )
    emit(scale_study.render(result))
    points = {p.worker_count: p for p in result.points}
    # The testbed never feels the OP; 600 workers clearly do.
    assert points[10].scaling_efficiency > 0.98
    assert points[600].control_plane_utilization > 0.4
    assert points[600].scaling_efficiency < points[10].scaling_efficiency
    # The fabric stays cold even at the busiest point.
    busiest = max(p.throughput_per_min for p in result.points)
    assert result.op_link_utilization(busiest) < 0.05
