"""Worker threads for the live local platform."""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.protocol import (
    InvokeMessage,
    ResultMessage,
    decode_message,
    encode_message,
)
from repro.workloads.base import ServiceBundle, get_function


@dataclass
class WorkItem:
    """One invocation travelling to a worker thread.

    Carries the *encoded wire frame* (what the OP would put on the TCP
    connection), so every live invocation exercises the full protocol
    codec in both directions.
    """

    frame: bytes
    future: Future
    submitted_at: float = field(default_factory=time.perf_counter)


_STOP = object()


class LocalWorker:
    """A single-tenant worker thread.

    Mirrors the MicroFaaS execution model in spirit: it processes one
    job at a time to completion and clears its per-job scratch dict
    between jobs (the thread-pool analogue of rebooting).
    """

    def __init__(
        self,
        worker_id: int,
        jobs: queue.Queue,
        services: ServiceBundle,
        service_lock: threading.Lock,
    ):
        self.worker_id = worker_id
        self.jobs = jobs
        self.services = services
        self.service_lock = service_lock
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        self.scratch: Dict[str, Any] = {}
        self.thread = threading.Thread(
            target=self._run, name=f"local-worker-{worker_id}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        while True:
            item = self.jobs.get()
            if item is _STOP:
                self.jobs.task_done()
                return
            started = time.perf_counter()
            try:
                message = decode_message(item.frame)
                if not isinstance(message, InvokeMessage):
                    raise TypeError(f"worker received {type(message).__name__}")
                function = get_function(message.function)
                # Network-bound functions mutate shared services; the
                # lock stands in for the backend's own serialization.
                if function.category == "network":
                    with self.service_lock:
                        result = function.run(message.payload, self.services)
                else:
                    result = function.run(message.payload, self.services)
                # Round-trip the result through the wire format, exactly
                # as the OP would receive it.
                reply = encode_message(
                    ResultMessage(job_id=message.job_id, result=result)
                )
                decoded = decode_message(reply)
                item.future.set_result(decoded.result)
                self.jobs_completed += 1
            except BaseException as exc:  # surface to the caller
                item.future.set_exception(exc)
                self.jobs_failed += 1
            finally:
                self.busy_seconds += time.perf_counter() - started
                # "Reboot": drop any scratch state before the next tenant.
                self.scratch.clear()
                self.jobs.task_done()

    def stop(self) -> None:
        """Ask the worker to exit after draining queued items."""
        self.jobs.put(_STOP)


__all__ = ["LocalWorker", "WorkItem"]
