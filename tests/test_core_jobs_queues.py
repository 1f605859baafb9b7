"""Unit tests for jobs, queues, GPIO, and lifecycle policy."""

import pytest

from repro.core import (
    GpioBank,
    Job,
    JobStatus,
    RunToCompletionPolicy,
    WorkerQueue,
)
from repro.sim import Environment


def make_job(job_id=0):
    return Job(job_id=job_id, function="FloatOps", input_bytes=100, output_bytes=50)


# -- Job lifecycle ----------------------------------------------------------------


def test_job_validation():
    with pytest.raises(ValueError):
        Job(job_id=0, function="", input_bytes=1, output_bytes=1)
    with pytest.raises(ValueError):
        Job(job_id=0, function="f", input_bytes=-1, output_bytes=1)


def test_job_happy_path_transitions():
    job = make_job()
    job.t_submit = 0.0
    job.transition(JobStatus.QUEUED, 1.0)
    job.transition(JobStatus.RUNNING, 2.0)
    job.transition(JobStatus.COMPLETED, 5.0)
    assert job.queue_wait_s == 1.0
    assert job.end_to_end_s == 5.0
    assert job.is_finished


def test_job_illegal_transitions_rejected():
    job = make_job()
    with pytest.raises(ValueError):
        job.transition(JobStatus.RUNNING, 1.0)  # must be queued first
    job.transition(JobStatus.QUEUED, 1.0)
    with pytest.raises(ValueError):
        job.transition(JobStatus.COMPLETED, 2.0)  # must run first
    job.transition(JobStatus.RUNNING, 2.0)
    job.transition(JobStatus.FAILED, 3.0)
    with pytest.raises(ValueError):
        job.transition(JobStatus.RUNNING, 4.0)  # terminal


def test_job_metrics_require_progress():
    job = make_job()
    with pytest.raises(ValueError):
        _ = job.queue_wait_s
    with pytest.raises(ValueError):
        _ = job.end_to_end_s


# -- WorkerQueue --------------------------------------------------------------------


def test_queue_fifo_dispatch():
    env = Environment()
    queue = WorkerQueue(env, worker_id=3)
    popped = []

    def worker():
        for _ in range(2):
            job = yield queue.pop()
            popped.append(job.job_id)

    env.process(worker())
    queue.push(make_job(1))
    queue.push(make_job(2))
    env.run()
    assert popped == [1, 2]
    assert queue.jobs_dequeued == 2


def test_queue_push_stamps_job():
    env = Environment()
    queue = WorkerQueue(env, worker_id=5)
    job = make_job()
    queue.push(job)
    assert job.worker_id == 5
    assert job.status is JobStatus.QUEUED
    assert job.t_queued == 0.0


def test_queue_depth_and_peak():
    env = Environment()
    queue = WorkerQueue(env, worker_id=0)
    for i in range(3):
        queue.push(make_job(i))
    assert queue.depth == 3
    assert queue.peak_depth == 3


def test_queue_enqueue_hook_fires():
    env = Environment()
    queue = WorkerQueue(env, worker_id=0)
    seen = []
    queue.on_enqueue(lambda job: seen.append(job.job_id))
    queue.push(make_job(9))
    assert seen == [9]


def test_queue_push_without_pending_pop_schedules_no_event():
    env = Environment()
    queue = WorkerQueue(env, worker_id=0)
    before = env._sequence
    queue.push(make_job(1))
    queue.push(make_job(2))
    assert env._sequence == before
    assert queue.depth == 2
    assert queue.jobs_enqueued == 2


def test_queue_push_hands_jobs_to_pending_pops_in_fifo_order():
    env = Environment()
    queue = WorkerQueue(env, worker_id=0)
    first, second = queue.pop(), queue.pop()
    before = env._sequence
    queue.push(make_job(1))
    # The only event a push makes is the waiting pop's.
    assert env._sequence == before + 1
    queue.push(make_job(2))
    queue.push(make_job(3))
    assert first.triggered and second.triggered
    env.run()
    assert (first.value.job_id, second.value.job_id) == (1, 2)
    assert queue.jobs_dequeued == 2
    assert queue.depth == 1
    assert queue.peak_depth == 1


def test_queue_cancel_pop_and_drain():
    env = Environment()
    queue = WorkerQueue(env, worker_id=0)
    withdrawn = queue.pop()
    queue.cancel_pop(withdrawn)
    queue.push(make_job(1))
    queue.push(make_job(2))
    assert not withdrawn.triggered
    assert [job.job_id for job in queue.drain()] == [1, 2]
    assert queue.depth == 0
    env.run()
    assert queue.jobs_dequeued == 0


# -- GpioBank -----------------------------------------------------------------------


class FakeBoard:
    def __init__(self):
        self.powered = False
        self.on_calls = 0

    def on(self):
        self.powered = True
        self.on_calls += 1


def wire(bank, worker_id, board):
    bank.connect(worker_id, board.on, lambda: board.powered)


def test_gpio_power_on_pulse():
    bank = GpioBank()
    board = FakeBoard()
    wire(bank, 0, board)
    assert bank.assert_power_on(0) is True
    assert board.powered
    assert bank.assert_power_on(0) is False  # already on: no pulse
    assert board.on_calls == 1


def test_gpio_duplicate_wiring_rejected():
    bank = GpioBank()
    board = FakeBoard()
    wire(bank, 0, board)
    with pytest.raises(ValueError):
        wire(bank, 0, board)


def test_gpio_unknown_line():
    with pytest.raises(KeyError):
        GpioBank().assert_power_on(7)


def test_gpio_powered_count():
    bank = GpioBank()
    boards = [FakeBoard() for _ in range(4)]
    for i, board in enumerate(boards):
        wire(bank, i, board)
    bank.assert_power_on(1)
    bank.assert_power_on(3)
    assert sum(board.powered for board in boards) == 2
    assert bank.worker_count == 4


def test_gpio_actuation_validation():
    with pytest.raises(ValueError):
        GpioBank(actuation_s=-1.0)


def test_gpio_pulse_counting():
    bank = GpioBank()
    board = FakeBoard()
    wire(bank, 0, board)
    bank.assert_power_on(0)
    bank.assert_power_on(0)  # already on: no pulse
    board.powered = False  # the board powers itself off
    bank.assert_power_on(0)
    assert bank.line(0).pulses == 2


# -- RunToCompletionPolicy -------------------------------------------------------------


def test_policy_paper_default():
    policy = RunToCompletionPolicy.paper_default()
    assert policy.reboot_between_jobs
    assert policy.power_off_when_idle
    assert policy.idle_grace_s == 0.0


def test_policy_validation():
    with pytest.raises(ValueError):
        RunToCompletionPolicy(idle_grace_s=-1.0)
