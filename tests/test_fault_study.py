"""The fault study's fixed-seed checks: no job lost under chaos, and the
sweep bit-identical however many processes run it."""

from repro.experiments import fault_study


def test_fixed_seed_sweep_loses_no_job():
    result = fault_study.run(
        fault_rate_scales=(0.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        seed=7,
    )
    assert result.total_jobs_lost == 0, (
        f"{result.total_jobs_lost} jobs lost"
    )
    for point in result.points:
        assert point.jobs_delivered == point.jobs_submitted
    assert fault_study.render(result)


def test_sweep_is_bit_identical_across_jobs():
    kwargs = dict(
        fault_rate_scales=(0.0, 1.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        seed=7,
    )
    serial = fault_study.run(jobs=1, **kwargs)
    parallel = fault_study.run(jobs=4, **kwargs)
    assert serial.points == parallel.points, (
        "fault study is not bit-identical across --jobs"
    )
