"""Replay arrival traces against any cluster.

Works on every :class:`~repro.cluster.harness.ClusterHarness`
composition (MicroFaaS, conventional, hybrid) through its ``env``,
``orchestrator`` and ``result_snapshot``.  A trace is anything with
``iter_pairs()``/``duration_s``: a
:class:`~repro.workloads.traces.ColumnarTrace` or the lazy
:class:`~repro.workloads.traces.ChunkedPoissonTrace` megatrace-scale
runs use.  :func:`_batches` is the one same-instant grouping that this
replay, the sharded replay and the federation gateway share.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.cluster.result import ClusterResult
from repro.workloads.traces import Trace


def _batches(
    pairs: Iterable[Tuple[float, str]]
) -> Iterator[Tuple[float, List[str]]]:
    """Group ``(time, function)`` pairs into same-instant batches."""
    batch_time: Optional[float] = None
    batch: List[str] = []
    for time_s, function in pairs:
        if batch_time is not None and time_s != batch_time:
            yield batch_time, batch
            batch = []
        batch_time = time_s
        batch.append(function)
    if batch_time is not None:
        yield batch_time, batch


def replay_trace(cluster, trace: Trace) -> ClusterResult:
    """Submit every trace event at its timestamp, then drain.

    Arrivals sharing a timestamp are submitted as one batch behind a
    single timeout event (they were already simultaneous — batching
    changes the event count, not the submission order), so a dense
    trace costs one scheduler event per distinct arrival time.

    The measurement window runs from t=0 to the later of the trace end
    and the last completion — idle stretches count against energy, which
    is exactly where energy proportionality earns its keep.
    """
    batches = _batches(trace.iter_pairs())
    # A lazy trace is unsized, so emptiness shows on the first batch.
    first = next(batches, None)
    if first is None:
        raise ValueError("empty trace")
    env = cluster.env
    orchestrator = cluster.orchestrator

    def submitter():
        for time_s, batch in chain((first,), batches):
            delay = time_s - env.now
            if delay > 0:
                yield env.timeout(delay)
            orchestrator.submit_batch(batch)

    def runner():
        yield env.process(submitter(), name="trace-submitter")
        yield orchestrator.wait_all()

    env.run(until=env.process(runner(), name="trace-runner"))
    duration = max(env.now, trace.duration_s)
    if env.now < duration:
        env.run(until=duration)  # let the tail of the window elapse
    return cluster.result_snapshot(duration)


__all__ = ["replay_trace"]
