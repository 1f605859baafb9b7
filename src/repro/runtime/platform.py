"""The local FaaS platform facade."""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.protocol import InvokeMessage, encode_message
from repro.runtime.localworker import LocalWorker, WorkItem
from repro.workloads.base import ServiceBundle, get_function


@dataclass(frozen=True)
class InvocationOutcome:
    """Result plus measured wall latency of one live invocation."""

    function: str
    result: Dict[str, Any]
    latency_s: float


class LocalFaaSPlatform:
    """Invoke the 17 Table I functions for real on a thread pool.

    Usage::

        with LocalFaaSPlatform(workers=4) as platform:
            outcome = platform.invoke("CascSHA", scale=0.1)
    """

    def __init__(self, workers: int = 4, seed: int = 0):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.services = ServiceBundle()
        self.services.seed_defaults()
        self._service_lock = threading.Lock()
        self._jobs: "queue.Queue" = queue.Queue()
        self._rng = random.Random(seed)
        self.workers: List[LocalWorker] = [
            LocalWorker(i, self._jobs, self.services, self._service_lock)
            for i in range(workers)
        ]
        self._closed = False
        self._next_job_id = 0
        self._stats_lock = threading.Lock()
        self._latencies: Dict[str, List[float]] = {}

    # -- invocation ------------------------------------------------------------------

    def invoke_async(
        self,
        function_name: str,
        payload: Optional[Dict[str, Any]] = None,
        scale: float = 1.0,
    ) -> "Future":
        """Submit one invocation; returns a future of the result dict."""
        if self._closed:
            raise RuntimeError("platform is shut down")
        function = get_function(function_name)
        if payload is None:
            payload = function.generate_input(
                random.Random(self._rng.getrandbits(63)), scale=scale
            )
        frame = encode_message(
            InvokeMessage(
                job_id=self._next_job_id,
                function=function_name,
                payload=payload,
            )
        )
        self._next_job_id += 1
        future: "Future" = Future()
        self._jobs.put(WorkItem(frame=frame, future=future))
        return future

    def invoke(
        self,
        function_name: str,
        payload: Optional[Dict[str, Any]] = None,
        scale: float = 1.0,
        timeout: Optional[float] = 60.0,
    ) -> InvocationOutcome:
        """Invoke and wait, returning the result with measured latency."""
        started = time.perf_counter()
        future = self.invoke_async(function_name, payload=payload, scale=scale)
        result = future.result(timeout=timeout)
        latency = time.perf_counter() - started
        with self._stats_lock:
            self._latencies.setdefault(function_name, []).append(latency)
        return InvocationOutcome(
            function=function_name, result=result, latency_s=latency
        )

    def invoke_many(
        self,
        function_name: str,
        count: int,
        scale: float = 1.0,
        timeout: Optional[float] = 120.0,
    ) -> List[InvocationOutcome]:
        """Fan out ``count`` invocations and gather every outcome."""
        if count < 1:
            raise ValueError("count must be >= 1")
        started = time.perf_counter()
        futures = [
            self.invoke_async(function_name, scale=scale) for _ in range(count)
        ]
        outcomes = []
        for future in futures:
            result = future.result(timeout=timeout)
            outcomes.append(
                InvocationOutcome(
                    function=function_name,
                    result=result,
                    latency_s=time.perf_counter() - started,
                )
            )
        return outcomes

    # -- stats ------------------------------------------------------------------------

    def mean_latency_s(self, function_name: str) -> float:
        """Mean measured latency of a function's sync invocations."""
        with self._stats_lock:
            values = self._latencies.get(function_name)
            if not values:
                raise KeyError(f"no invocations recorded for {function_name!r}")
            return sum(values) / len(values)

    # -- lifecycle ---------------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop all workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.stop()
        if wait:
            for worker in self.workers:
                worker.thread.join(timeout=10.0)

    def __enter__(self) -> "LocalFaaSPlatform":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = ["InvocationOutcome", "LocalFaaSPlatform"]
