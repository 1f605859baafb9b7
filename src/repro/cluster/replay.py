"""Replay arrival traces against any cluster.

Works on every :class:`~repro.cluster.harness.ClusterHarness`
composition (MicroFaaS, conventional, hybrid) through its ``env``,
``orchestrator`` and ``result_snapshot``.  Traces
are duck-typed too: anything with ``iter_pairs()``/``duration_s`` —
an :class:`~repro.workloads.traces.ArrivalTrace` or the columnar
representation megatrace-scale runs use — replays the same way.
"""

from __future__ import annotations

from typing import List

from repro.cluster.result import ClusterResult
from repro.workloads.traces import Trace


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
    # Streaming traces (e.g. ChunkedPoissonTrace) are unsized — emptiness
    # there surfaces from the iterator instead.
    if hasattr(type(trace), "__len__") and len(trace) == 0:
        raise ValueError("empty trace")
    env = cluster.env
    orchestrator = cluster.orchestrator

    def submitter():
        batch_time = None
        batch: List[str] = []
        for time_s, function in trace.iter_pairs():
            if batch_time is not None and time_s != batch_time:
                delay = batch_time - env.now
                if delay > 0:
                    yield env.timeout(delay)
                orchestrator.submit_batch(batch)
                batch = []
            batch_time = time_s
            batch.append(function)
        if batch_time is None:
            raise ValueError("empty trace")
        delay = batch_time - env.now
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
