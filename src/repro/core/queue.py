"""Per-worker job queues.

The OP "maintains a job queue for each worker" (Sec. IV-D).  A
:class:`WorkerQueue` wraps a simulation :class:`~repro.sim.resources.Store`
with job bookkeeping: depth statistics and the enqueue hook the
orchestrator uses to trigger GPIO power-on for sleeping workers.  The
outstanding-work count lives in the orchestrator's
:class:`~repro.core.scheduler.SchedulingState`, which the queue updates
on every push and finish.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.job import Job, JobStatus
from repro.core.platform import ARM
from repro.core.scheduler import SchedulingState
from repro.sim.kernel import Environment
from repro.sim.resources import Store


class WorkerQueue:
    """FIFO job queue owned by one worker."""

    def __init__(
        self,
        env: Environment,
        worker_id: int,
        platform: str = ARM,
        state: Optional[SchedulingState] = None,
    ):
        self.env = env
        self.worker_id = worker_id
        #: Worker platform tag (see :mod:`repro.core.platform`) —
        #: the per-worker dimension platform-aware assignment policies
        #: read when choosing among heterogeneous candidates.
        self.platform = platform
        self._store = Store(env)
        self.jobs_enqueued = 0
        self.jobs_dequeued = 0
        if state is None:
            # A standalone queue (no orchestrator) keeps a private state.
            state = SchedulingState()
            state.add_workers(worker_id + 1, platform)
        self._state = state
        self.peak_depth = 0
        self._on_enqueue: List[Callable[[Job], None]] = []

    @property
    def depth(self) -> int:
        """Jobs currently waiting."""
        return len(self._store)

    @property
    def outstanding(self) -> int:
        """Jobs assigned here and not yet completed (queued + in-flight).

        This is the load signal join-shortest-queue policies need —
        depth alone misses the job the worker is executing.
        """
        return self._state.loads[self.worker_id]

    def on_enqueue(self, callback: Callable[[Job], None]) -> None:
        """Register a hook fired on every enqueue (e.g. GPIO power-on)."""
        self._on_enqueue.append(callback)

    def push(self, job: Job) -> None:
        """Enqueue a job (the store is unbounded, so this never blocks).

        No ``StorePut`` event is made: the put of an unbounded store
        succeeds at once and nobody waits on it, so it would only cost
        a heap push and pop.  A waiting :meth:`pop` is satisfied exactly
        as ``Store.put`` would: oldest getter first, head of the FIFO.
        """
        job.worker_id = self.worker_id
        job.transition(JobStatus.QUEUED, self.env.now)
        store = self._store
        items = store.items
        items.append(job)
        getters = store._getters
        while getters and items:
            getters.popleft().succeed(items.pop(0))
        self.jobs_enqueued += 1
        self._state.add_load(self.worker_id, 1)
        self.peak_depth = max(self.peak_depth, self.depth)
        for callback in self._on_enqueue:
            callback(job)

    def pop(self):
        """Event that fires with the next job (worker-side)."""
        event = self._store.get()
        event.callbacks.append(self._count_dequeue)
        return event

    def _count_dequeue(self, _event) -> None:
        self.jobs_dequeued += 1

    def cancel_pop(self, event) -> None:
        """Withdraw a pending :meth:`pop` (e.g. the worker died)."""
        self._store.cancel(event)

    def job_finished(self) -> None:
        """One assigned job completed/failed/left: drop it from the
        outstanding count."""
        if self._state.loads[self.worker_id] <= 0:
            raise RuntimeError(
                f"queue {self.worker_id}: outstanding underflow"
            )
        self._state.add_load(self.worker_id, -1)

    def drain(self) -> List[Job]:
        """Remove and return every queued job (dead-worker recovery)."""
        drained = list(self._store.items)
        self._store.items.clear()
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerQueue #{self.worker_id} depth={self.depth}>"


class RemoteQueueStub:
    """Queue-shaped placeholder for a worker another shard simulates.

    Blueprint-built shards (see :mod:`repro.cluster.blueprint`) keep
    every global worker id in ``orchestrator.queues`` so ids stay
    aligned with the serial build, but a remote worker never receives
    work locally — all policy decisions route through the coordinator
    before any queue is touched.  The stub carries only the identity
    and the always-zero load counters policies would read; any attempt
    to actually enqueue or dequeue on it is a sharding bug and raises.
    """

    __slots__ = ("worker_id", "platform")

    # Load counters are class attributes: always zero, and read-only
    # through instances (writes raise AttributeError via __slots__).
    depth = 0
    outstanding = 0
    jobs_enqueued = 0
    jobs_dequeued = 0
    peak_depth = 0

    def __init__(self, worker_id: int, platform: str = ARM):
        self.worker_id = worker_id
        self.platform = platform

    def push(self, job) -> None:
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard; "
            "jobs must not be enqueued on its stub queue"
        )

    def pop(self):
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard"
        )

    def drain(self):
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteQueueStub #{self.worker_id}>"


__all__ = ["RemoteQueueStub", "WorkerQueue"]
