"""Benchmark: the energy study (cap frontier + tenant budget runs)."""

from benchmarks.conftest import emit
from repro.experiments import energy_study


def test_bench_energy_study(benchmark):
    result = benchmark.pedantic(
        energy_study.run,
        kwargs={"duration_s": 120.0},
        rounds=5,
        iterations=1,
    )
    emit(energy_study.render(result))
    frontier = result.frontier()
    # Tighter caps save energy monotonically and pay p99 monotonically.
    saved = [entry.energy_saved_j for entry in frontier]
    paid = [entry.p99_paid_s for entry in frontier]
    assert saved == sorted(saved)
    assert paid == sorted(paid)
    # The ledger conserves energy on every budgeted run.
    for point in result.budget_points():
        assert abs(point.reconciliation_residual_j) <= 1e-9
