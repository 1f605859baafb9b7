"""Tests for the shared experiment runner: run_map, seeds, determinism."""

import os
from dataclasses import dataclass

import pytest

from repro.experiments import fig4_vmsweep, scale_study
from repro.experiments.runner import TaskExecutionError, derive_seed, run_map


@dataclass(frozen=True)
class Task:
    x: int
    seed: int = 0


def _square(task: Task) -> int:
    return task.x * task.x


def _square_unless_three(task: Task) -> int:
    if task.x == 3:
        raise ValueError(f"cannot square {task.x}")
    return task.x * task.x


def _square_and_mark(task: Task) -> int:
    # Side channel observable from the parent even when run in a pool.
    path = os.environ["RUNNER_TEST_MARK_DIR"]
    with open(os.path.join(path, f"mark-{task.x}"), "w") as handle:
        handle.write(str(task.x))
    return task.x * task.x


# -- seeds -------------------------------------------------------------------


def test_derive_seed_rejects_unhashable_types():
    with pytest.raises(TypeError):
        derive_seed(1, object())


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "point", 4) == derive_seed(1, "point", 4)
    assert derive_seed(1, "point", 4) != derive_seed(1, "point", 5)
    assert derive_seed(1, "point", 4) != derive_seed(2, "point", 4)
    assert 0 <= derive_seed(1, "x") < 2**63


def test_derive_seed_is_content_based():
    # Content, not identity or insertion order, picks the seed.
    assert derive_seed(1, Task(3)) == derive_seed(1, Task(3))
    assert derive_seed(1, Task(3)) != derive_seed(1, Task(4))
    assert derive_seed(1, {"a": 1, "b": 2}) == derive_seed(1, {"b": 2, "a": 1})
    assert derive_seed(1, 1.0) != derive_seed(1, 1.0000000001)


# -- run_map -----------------------------------------------------------------


def test_run_map_serial_preserves_order():
    tasks = [Task(x) for x in (5, 3, 1)]
    assert run_map(tasks, _square) == [25, 9, 1]


def test_run_map_parallel_matches_serial():
    tasks = [Task(x) for x in range(6)]
    serial = run_map(tasks, _square, jobs=1)
    parallel = run_map(tasks, _square, jobs=4)
    assert serial == parallel == [x * x for x in range(6)]


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_map_failure_carries_originating_task(jobs):
    tasks = [Task(x) for x in (1, 3, 5)]
    with pytest.raises(TaskExecutionError) as info:
        run_map(tasks, _square_unless_three, jobs=jobs)
    assert info.value.task == Task(3)
    assert info.value.index == 1
    assert isinstance(info.value.__cause__, ValueError)
    assert "Task(x=3" in str(info.value)


def test_run_map_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_map([Task(1)], _square, jobs=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_map_second_call_recomputes(tmp_path, monkeypatch, jobs):
    mark_dir = tmp_path / "marks"
    mark_dir.mkdir()
    monkeypatch.setenv("RUNNER_TEST_MARK_DIR", str(mark_dir))
    tasks = [Task(x) for x in (1, 2)]

    first = run_map(tasks, _square_and_mark, jobs=jobs)
    assert first == [1, 4]
    assert sorted(p.name for p in mark_dir.iterdir()) == ["mark-1", "mark-2"]

    for mark in mark_dir.iterdir():
        mark.unlink()
    second = run_map(tasks, _square_and_mark, jobs=jobs)
    assert second == first
    # Every point ran again: no result outlives the call that made it.
    assert sorted(p.name for p in mark_dir.iterdir()) == ["mark-1", "mark-2"]


# -- experiment determinism --------------------------------------------------


FIG4_KWARGS = dict(
    vm_counts=(1, 2), invocations_per_function=2, measure_microfaas=False
)


def test_fig4_parallel_and_cache_identical_to_serial():
    serial = fig4_vmsweep.run(jobs=1, **FIG4_KWARGS)
    parallel = fig4_vmsweep.run(jobs=4, **FIG4_KWARGS)
    assert serial.points == parallel.points


SCALE_KWARGS = dict(worker_counts=(10, 20), jobs_per_worker=1)


def test_scale_study_parallel_and_cache_identical_to_serial():
    serial = scale_study.run(jobs=1, **SCALE_KWARGS)
    parallel = scale_study.run(jobs=2, **SCALE_KWARGS)
    assert serial.points == parallel.points
