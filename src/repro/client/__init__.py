"""`repro.client` — a Lithops-style FunctionExecutor SDK.

The programming-model front door over the cluster/federation stack
(ROADMAP item 2)::

    from repro.client import FunctionExecutor
    from repro.cluster import MicroFaaSCluster

    ex = FunctionExecutor(MicroFaaSCluster(10, seed=1))
    futures = ex.map("MatMul", 100)
    done, _ = ex.wait(futures)
    records = [f.result() for f in done]

Layers: :class:`FunctionExecutor` (call_async / map / map_reduce /
wait) → invokers (sync or same-tick batching) → backend
adapters (any harness cluster, or a federation gateway) → a
:class:`JobMonitor` fed by push-style ``on_job_done`` hooks →
:class:`ResponseFuture` state machines, with an optional client-side
:class:`RetryPolicy` layered on the orchestrator's recovery stack.
"""

from repro.client.backends import (
    CallSpec,
    ClusterBackend,
    FederationBackend,
    as_backend,
)
from repro.client.executor import (
    ALL_COMPLETED,
    ALWAYS,
    ANY_COMPLETED,
    FunctionExecutor,
)
from repro.client.futures import (
    FutureError,
    FutureState,
    IllegalTransition,
    LEGAL_TRANSITIONS,
    ResponseFuture,
    RetryRecord,
)
from repro.client.invokers import BatchInvoker, SyncInvoker, make_invoker
from repro.client.monitor import JobMonitor, MonitorStats
from repro.client.retries import RetryPolicy

__all__ = [
    "ALL_COMPLETED",
    "ALWAYS",
    "ANY_COMPLETED",
    "BatchInvoker",
    "CallSpec",
    "ClusterBackend",
    "FederationBackend",
    "FunctionExecutor",
    "FutureError",
    "FutureState",
    "IllegalTransition",
    "JobMonitor",
    "LEGAL_TRANSITIONS",
    "MonitorStats",
    "ResponseFuture",
    "RetryPolicy",
    "RetryRecord",
    "SyncInvoker",
    "as_backend",
    "make_invoker",
]
