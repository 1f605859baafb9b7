"""Invokers: how accepted calls become backend submissions.

The executor accepts calls; an invoker decides *when* the backend
sees them:

- :class:`SyncInvoker` submits every call immediately, one at a time
  — the simplest mapping, one heap push per call.
- :class:`BatchInvoker` (the default) buffers same-tick submissions
  and flushes them as **one** backend batch inside a kernel bulk
  window, so an SDK ``map`` of N calls rides the batched-arrival fast
  path exactly like ``orchestrator.submit_batch`` — same submission
  order, same event timing, one heap merge instead of N pushes.

Both invokers bind each submitted call back to its future through the
``bind(future, handle)`` callback the executor installs, at the
simulated instant the backend accepted it.  The executor flushes the
batching invoker before every ``wait`` and whenever a
chained call must observe prior submissions, so buffering is never
visible to client code.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.client.backends import CallSpec
from repro.client.futures import ResponseFuture

#: ``bind(future, handle)`` — installed by the executor.
BindCallback = Callable[[ResponseFuture, object], None]


class SyncInvoker:
    """Submit every call to the backend the moment it arrives."""

    name = "sync"

    def __init__(self, backend, bind: BindCallback):
        self.backend = backend
        self.bind = bind

    def invoke(self, future: ResponseFuture, spec: CallSpec) -> None:
        self.bind(future, self.backend.submit(spec))

    def invoke_many(
        self, pairs: List[Tuple[ResponseFuture, CallSpec]]
    ) -> None:
        for future, spec in pairs:
            self.invoke(future, spec)

    def flush(self) -> None:
        pass

    @property
    def pending(self) -> int:
        return 0


class BatchInvoker:
    """Group same-tick submissions into one backend batch."""

    name = "batch"

    def __init__(self, backend, bind: BindCallback):
        self.backend = backend
        self.bind = bind
        self._buffer: List[Tuple[ResponseFuture, CallSpec]] = []
        #: Batches flushed / calls carried (throughput stats).
        self.batches_flushed = 0
        self.calls_flushed = 0

    def invoke(self, future: ResponseFuture, spec: CallSpec) -> None:
        self._buffer.append((future, spec))

    def invoke_many(
        self, pairs: List[Tuple[ResponseFuture, CallSpec]]
    ) -> None:
        self._buffer.extend(pairs)

    def flush(self) -> None:
        """Submit the whole buffer as one backend batch, in order."""
        if not self._buffer:
            return
        buffered, self._buffer = self._buffer, []
        handles = self.backend.submit_batch([spec for _, spec in buffered])
        self.batches_flushed += 1
        self.calls_flushed += len(buffered)
        for (future, _spec), handle in zip(buffered, handles):
            self.bind(future, handle)

    @property
    def pending(self) -> int:
        return len(self._buffer)


def make_invoker(kind: str, backend, bind: BindCallback):
    """Build an invoker by name (``"batch"`` or ``"sync"``)."""
    if kind == "batch":
        return BatchInvoker(backend, bind)
    if kind == "sync":
        return SyncInvoker(backend, bind)
    raise ValueError(f"unknown invoker {kind!r} (want 'batch' or 'sync')")


__all__ = ["BatchInvoker", "BindCallback", "SyncInvoker", "make_invoker"]
