"""The recovery supervisor's scans against full walks.

Each tick the job scan runs its loop only from a conservative due
instant on, and the stuck-worker scan visits only the boards that can
be off owing work.  Patched back to walking every in-flight job and
every queue at every tick, a run must come out the same: the records,
the recovery counters and the stuck clocks seen after every tick.
"""

import math

import pytest

from repro.cluster import MicroFaaSCluster
from repro.core.orchestrator import Orchestrator
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.reliability.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
    ChaosProfile,
)
from repro.workloads.base import ALL_FUNCTION_NAMES


def _walk_every_job(self, policy, now):
    self._scan_due = -math.inf
    _scan_jobs(self, policy, now)


def _walk_every_queue(self, policy, now):
    for queue in self.queues:
        wid = queue.worker_id
        if wid in self.dead_workers:
            self._board_stuck_since.pop(wid, None)
            continue
        if queue.outstanding > 0 and not self._is_powered(wid):
            since = self._board_stuck_since.setdefault(wid, now)
            if now - since >= policy.stuck_worker_grace_s:
                self._board_stuck_since.pop(wid, None)
                self._recover_stuck_worker(wid)
        else:
            self._board_stuck_since.pop(wid, None)


_scan_jobs = Orchestrator._scan_jobs
_scan_stuck_workers = Orchestrator._scan_stuck_workers
_recover_stuck_worker = Orchestrator._recover_stuck_worker


#: Every scenario drains well before this instant.
HORIZON_S = 600.0


def _cluster(workers, recovery):
    return MicroFaaSCluster(
        worker_count=workers, seed=1, policy=LeastLoadedPolicy(),
        recovery=recovery,
    )


def _strand(cluster, worker_id, at, batch):
    """From ``at``, once board ``worker_id`` is off, a stuck line takes
    its worker process down (as a GPIO fault on an off board does,
    undetected); a moment later ``batch`` arrives and some of it lands
    there."""
    env = cluster.env
    sbc = cluster.sbcs[worker_id]

    def strand():
        yield env.timeout(at)
        while sbc.is_powered:
            yield env.timeout(0.25)
        cluster.gpio.break_line(worker_id)
        cluster.workers[worker_id].process.interrupt("stuck line")
        yield env.timeout(0.5)
        cluster.orchestrator.submit_batch(batch)

    env.process(strand())


def _stuck_line_mid_queue(cluster):
    _strand(cluster, 1, 0.5, ALL_FUNCTION_NAMES[:8])


def _stuck_cascade(cluster):
    """Recovering stranded board 0 hands its job to stranded board 2,
    later in worker-id order: the same scan starts board 2's clock."""
    _strand(cluster, 0, 0.5, ["FloatOps", "MatMul", "RegExMatch"])
    _strand(cluster, 2, 1.2, [])


def _crash_detected_after_grace(cluster):
    """A crash the chaos engine detects only after the stuck grace."""
    ChaosEngine(cluster, detection_delay_s=5.0).apply(ChaosPlan((
        ChaosEvent(ChaosKind.WORKER_CRASH, 2.0, 0, 3.0),
    )))
    cluster.orchestrator.submit_batch(ALL_FUNCTION_NAMES[:8])


def _last_alive_stuck(cluster):
    """Board 0 is down for a long repair when board 1 is stranded: the
    scan may not kill the last alive worker, so board 1 stays on the
    stuck clock until board 0 returns."""
    ChaosEngine(cluster).apply(ChaosPlan((
        ChaosEvent(ChaosKind.WORKER_CRASH, 1.0, 0, 20.0),
    )))
    cluster.orchestrator.submit_batch(ALL_FUNCTION_NAMES[:2])
    _strand(cluster, 1, 8.0, ALL_FUNCTION_NAMES[2:6])


def _sampled_chaos(cluster):
    """Every fault kind at a high rate, hedges and timeout retries."""
    plan = ChaosPlan.sample(
        ChaosProfile(scale=6.0), worker_count=len(cluster.workers),
        horizon_s=120.0, streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    cluster.orchestrator.submit_batch(ALL_FUNCTION_NAMES * 3)


SCENARIOS = {
    "stuck-line-mid-queue": (_stuck_line_mid_queue, 3, RecoveryPolicy()),
    "stuck-cascade": (_stuck_cascade, 3, RecoveryPolicy()),
    "crash-detected-after-grace": (
        _crash_detected_after_grace, 3, RecoveryPolicy()
    ),
    "last-alive-stuck": (_last_alive_stuck, 2, RecoveryPolicy()),
    "sampled-chaos": (
        _sampled_chaos, 6,
        RecoveryPolicy(hedge_after_s=2.0, attempt_timeout_s=6.0),
    ),
}


def _run(name, walk, monkeypatch):
    """Run a scenario, the scans patched to full walks when ``walk``;
    returns what it observed and how many stuck boards it recovered."""
    scenario, workers, recovery = SCENARIOS[name]
    ticks = []
    recovered = []

    def probe(self, policy, now):
        (_walk_every_queue if walk else _scan_stuck_workers)(
            self, policy, now
        )
        ticks.append((now, dict(self._board_stuck_since),
                      sorted(self.dead_workers)))

    def count(self, worker_id):
        recovered.append((self.env.now, worker_id))
        _recover_stuck_worker(self, worker_id)

    with monkeypatch.context() as patch:
        if walk:
            patch.setattr(Orchestrator, "_scan_jobs", _walk_every_job)
        patch.setattr(Orchestrator, "_scan_stuck_workers", probe)
        patch.setattr(Orchestrator, "_recover_stuck_worker", count)
        cluster = _cluster(workers, recovery)
        scenario(cluster)
        # Bounded: a board never recovered strands its jobs for good.
        cluster.env.run(until=HORIZON_S)
    orchestrator = cluster.orchestrator
    counters = (orchestrator.pending, orchestrator.resubmissions,
                orchestrator.timeout_retries, orchestrator.hedges,
                orchestrator.duplicates_suppressed, orchestrator.jobs_lost)
    records = [repr(r) for r in orchestrator.telemetry.records]
    return (records, counters, ticks, recovered), recovered


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scans_match_full_walks(name, monkeypatch):
    walked, recovered = _run(name, True, monkeypatch)
    scanned, _ = _run(name, False, monkeypatch)
    assert walked[1][0] == 0, "the full walks left jobs pending"
    assert scanned == walked
    if name != "sampled-chaos":
        assert recovered, "the scenario never recovered a stuck board"


def test_job_scan_skips_ticks_with_nothing_due():
    """Submissions at 0 under the default policy: nothing can hedge
    before 8 s, so the job scan's loop runs at no earlier tick."""
    cluster = _cluster(3, RecoveryPolicy())
    orchestrator = cluster.orchestrator
    ticks, loops = [], []

    def spy(policy, now):
        ticks.append(now)
        if now >= orchestrator._scan_due:
            loops.append(now)
        _scan_jobs(orchestrator, policy, now)

    orchestrator._scan_jobs = spy
    orchestrator.submit_batch(ALL_FUNCTION_NAMES[:6])
    cluster.env.run()
    assert ticks[0] == 0.5
    assert all(now >= 8.0 for now in loops)
    assert len(loops) < len(ticks)
