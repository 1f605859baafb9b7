"""Tests for the energy study: cap frontier + tenant budget sweep."""

import pytest

from repro.experiments import energy_study


def small_run(**overrides):
    kwargs = dict(duration_s=60.0)
    kwargs.update(overrides)
    return energy_study.run(**kwargs)


def test_caps_must_include_uncapped_baseline():
    with pytest.raises(ValueError):
        energy_study.run(caps=(1.5, 1.0), duration_s=60.0)


def test_frontier_is_monotone():
    result = small_run()
    frontier = result.frontier()
    assert frontier[0].point.cap_watts is None
    assert frontier[0].energy_saved_j == 0.0
    assert frontier[0].p99_paid_s == 0.0
    saved = [entry.energy_saved_j for entry in frontier]
    paid = [entry.p99_paid_s for entry in frontier]
    # Tighter caps save more energy and pay more tail latency.
    assert saved == sorted(saved)
    assert paid == sorted(paid)
    assert saved[-1] > 0
    assert paid[-1] > 0


def test_budget_points_conserve_energy_and_escalate_throttling():
    result = small_run()
    points = result.budget_points()
    assert [p.budget_scale for p in points] == sorted(
        (p.budget_scale for p in points), reverse=True
    )
    for point in points:
        assert abs(point.reconciliation_residual_j) <= 1e-9
        assert point.tenant_joules  # attribution reached every tenant
        total = sum(joules for _, joules in point.tenant_joules)
        assert total > 0
    # Tighter budgets throttle at least as hard.
    delayed = [p.jobs_delayed for p in points]
    assert delayed == sorted(delayed)


@pytest.mark.parametrize("jobs", [2, 4])
def test_run_is_deterministic_across_jobs(jobs):
    serial = small_run(jobs=1)
    fanned = small_run(jobs=jobs)
    assert serial.points == fanned.points


def test_frontier_is_deterministic_across_shards():
    serial = small_run()
    sharded = small_run(shards=2)
    assert serial.frontier_points() == sharded.frontier_points()
    # Budget points always run serial (the ledger is per-process state).
    assert serial.budget_points() == sharded.budget_points()


def test_render_mentions_every_point(tmp_path):
    result = small_run(trace_path=str(tmp_path / "energy-trace.json"))
    text = energy_study.render(result)
    assert "none" in text
    for point in result.budget_points():
        assert f"{point.budget_scale:.1f}x" in text
    assert (tmp_path / "energy-trace.json").exists()
