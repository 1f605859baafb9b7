"""The recovery supervisor's in-flight index.

Under a :class:`RecoveryPolicy` the orchestrator keeps the logical jobs
not yet resolved in an insertion-ordered index, and each supervisor
tick scans that index instead of every job ever submitted.  A job
enters where it enters ``jobs`` and leaves where it resolves: first
result, first failure, give-up, shed, or hand-off to another shard.
"""

from repro.client import FunctionExecutor
from repro.cluster import MicroFaaSCluster
from repro.core.job import Job, JobStatus
from repro.core.orchestrator import Orchestrator
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.core.telemetry import InvocationRecord
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.sim.kernel import Environment


def bare_orchestrator(**policy):
    """An orchestrator with two queues and no worker processes: jobs
    stay where they are pushed until a test resolves them."""
    orchestrator = Orchestrator(Environment(), recovery=RecoveryPolicy(**policy))
    orchestrator.add_worker()
    orchestrator.add_worker()
    return orchestrator


def running(orchestrator, function="CascSHA"):
    job = orchestrator.submit_function(function)
    job.transition(JobStatus.RUNNING, orchestrator.env.now)
    return job


def record_of(job):
    return InvocationRecord(
        job_id=job.job_id, function=job.function, worker_id=0,
        platform="arm", t_queued=0.0, t_started=0.0, t_completed=0.0,
        boot_s=0.0, working_s=0.0, overhead_s=0.0,
    )


def test_no_index_without_a_recovery_policy():
    assert Orchestrator(Environment())._in_flight is None
    cluster = MicroFaaSCluster(worker_count=2, seed=1)
    cluster.run_saturated(invocations_per_function=1)
    assert cluster.orchestrator._in_flight is None


def test_index_follows_submission_order():
    orchestrator = bare_orchestrator()
    jobs = [orchestrator.submit_function("CascSHA") for _ in range(3)]
    pinned = orchestrator.submit_assigned(orchestrator.make_job("AES128"), 1)
    assert list(orchestrator._in_flight) == [
        job.job_id for job in jobs + [pinned]
    ]


def test_recovery_run_resolves_every_job_out_of_the_index():
    cluster = MicroFaaSCluster(
        worker_count=6,
        seed=1,
        policy=LeastLoadedPolicy(),
        recovery=RecoveryPolicy(hedge_after_s=2.0, attempt_timeout_s=6.0),
    )
    plan = ChaosPlan.sample(
        ChaosProfile(scale=2.0),
        worker_count=6,
        horizon_s=120.0,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    orchestrator = cluster.orchestrator
    resolutions = []
    orchestrator.on_job_done(
        lambda job, record: resolutions.append(
            (job.job_id in orchestrator._in_flight,
             len(orchestrator._in_flight))
        )
    )
    client = FunctionExecutor(cluster)
    for _ in range(4):
        client.wait(client.map(["CascSHA", "AES128", "HTMLGen"] * 3))
    assert orchestrator.resubmissions + orchestrator.hedges > 0
    # Losing hedges delivered late and were suppressed; none came back.
    assert orchestrator.duplicates_suppressed > 0
    assert [indexed for indexed, _ in resolutions] == [False] * 36
    # Each round's still-running jobs stayed indexed.
    assert max(size for _, size in resolutions) == 8
    assert orchestrator._in_flight == {}
    assert len(orchestrator.jobs) == 36


def test_complete_removes_and_a_late_duplicate_does_not_re_add():
    orchestrator = bare_orchestrator()
    job = running(orchestrator)
    hedge = job.spawn_attempt()
    hedge.transition(JobStatus.QUEUED, 0.0)
    hedge.transition(JobStatus.RUNNING, 0.0)
    record = record_of(job)
    orchestrator.complete(job, record)
    assert orchestrator._in_flight == {}
    orchestrator.complete(hedge, record)
    assert orchestrator.duplicates_suppressed == 1
    assert orchestrator._in_flight == {}


def test_fail_removes_and_a_late_duplicate_does_not_re_add():
    orchestrator = bare_orchestrator()
    job = running(orchestrator)
    other = running(orchestrator)
    retry = job.spawn_attempt()
    retry.transition(JobStatus.QUEUED, 0.0)
    retry.transition(JobStatus.RUNNING, 0.0)
    orchestrator.fail(job, "boom")
    assert list(orchestrator._in_flight) == [other.job_id]
    orchestrator.fail(retry, "boom again")
    assert list(orchestrator._in_flight) == [other.job_id]


def test_give_up_removes_the_job():
    orchestrator = bare_orchestrator(job_deadline_s=1.0)
    job = orchestrator.submit_function("CascSHA")  # never served
    orchestrator.env.run()
    assert orchestrator.jobs_lost == 1
    assert job.failure == "deadline exceeded"
    assert orchestrator._in_flight == {}


class ShedEverything:
    def admit(self, job, now):
        return ("shed", 0.0)


def test_shed_removes_the_job():
    orchestrator = bare_orchestrator()
    orchestrator.budgets = ShedEverything()
    job = orchestrator.make_job("CascSHA")
    job.tenant = "tenant-a"
    orchestrator.submit(job)
    assert orchestrator.jobs_shed == 1
    assert orchestrator._in_flight == {}


def test_release_removes_and_adopt_re_enters():
    orchestrator = bare_orchestrator()
    first = orchestrator.submit_function("CascSHA")
    second = orchestrator.submit_function("AES128")
    orchestrator.release_job(first.job_id)
    assert list(orchestrator._in_flight) == [second.job_id]
    # The shard that takes the job over rebuilds it from its state.
    orchestrator.adopt_job(
        Job(first.job_id, first.function, first.input_bytes,
            first.output_bytes),
        1,
    )
    assert list(orchestrator._in_flight) == [second.job_id, first.job_id]

