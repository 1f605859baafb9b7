"""The FunctionExecutor: a Lithops-style front door for the cluster.

One executor drives one backend (any harness-built cluster, or a
federation via its gateway) through futures::

    ex = FunctionExecutor(MicroFaaSCluster(10, seed=1))
    futures = ex.map("MatMul", 100)
    done, _ = ex.wait(futures)            # runs the simulation
    records = [f.result() for f in done]

Pieces (see ARCHITECTURE.md, "Client programming model"):

- an **invoker** turns accepted calls into backend submissions — the
  default :class:`~repro.client.invokers.BatchInvoker` groups
  same-tick submissions into one `submit_batch` bulk window;
- the **monitor** receives pushed resolutions through the backend's
  ``on_job_done`` hook and resolves futures — nothing polls;
- a client :class:`~repro.client.retries.RetryPolicy` relaunches
  failed/timed-out calls as fresh backend jobs (same idempotency
  key; first resolution wins, duplicates are counted, delivered work
  is never double-counted);
- **futures-as-inputs chaining**: ``call_async(fn, parents=[...])``
  invokes when every parent resolves, billing the parents' output
  bytes as extra input through the backend transfer model.

Determinism: with the default (no retry policy, no RUNNING tracking)
the SDK schedules zero extra simulation events and draws no RNG, so
an SDK-driven ``map`` is bit-identical to the equivalent
``submit_batch`` replay; retry jitter, when enabled, is hash-derived
per call id.  Client trace spans (``client_submit`` / ``client_wait``
/ ``client_retry``) nest as annotations into the
:mod:`repro.obs` span tree of each traced job.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.client.backends import CallSpec, as_backend
from repro.client.futures import ResponseFuture, RetryRecord
from repro.client.invokers import make_invoker
from repro.client.monitor import JobMonitor
from repro.client.retries import RetryPolicy
from repro.obs import trace as obs
from repro.sim.kernel import SimulationError

#: ``wait(return_when=...)`` modes (concurrent.futures vocabulary).
ALL_COMPLETED = "ALL_COMPLETED"
ANY_COMPLETED = "ANY_COMPLETED"
ALWAYS = "ALWAYS"

_RETURN_WHEN = frozenset({ALL_COMPLETED, ANY_COMPLETED, ALWAYS})


class FunctionExecutor:
    """Futures-based executor over one cluster/federation backend."""

    def __init__(
        self,
        backend,
        invoker: str = "batch",
        retries: Optional[RetryPolicy] = None,
        track_running: bool = False,
        executor_id: int = 0,
    ):
        self.backend = as_backend(backend)
        self.env = self.backend.env
        self.retries = retries
        self.executor_id = executor_id
        self.monitor = JobMonitor(
            self.env, self.backend, on_failure=self._on_call_failure
        )
        if (retries is not None and retries.call_timeout_s is not None) or (
            track_running
        ):
            self.monitor.configure_ticks(
                timeout_s=(
                    retries.call_timeout_s if retries is not None else None
                ),
                tick_s=(
                    retries.monitor_tick_s if retries is not None else 0.5
                ),
                track_running=track_running,
            )
        self.invoker = make_invoker(invoker, self.backend, self._bind)
        #: Every future this executor created, in call order.
        self.futures: List[ResponseFuture] = []
        self._next_call_id = 0
        self._specs = {}

    # -- binding -------------------------------------------------------------

    def _bind(self, future: ResponseFuture, handle) -> None:
        """A backend job now exists for the call: advance the future to
        INVOKED, start monitoring its key, and annotate its trace."""
        now = self.env.now
        key = self.backend.key_of(handle)
        future.mark_invoked(key, now)
        future.trace_id = self.backend.trace_id_of(handle)
        self.monitor.track(future, key)
        if future.trace_id is not None:
            if future.client_retries:
                self.backend.annotate(
                    future.trace_id, obs.CLIENT_RETRY, now,
                    attrs={
                        "call_id": future.call_id,
                        "retry": future.client_retries,
                    },
                )
            else:
                self.backend.annotate(
                    future.trace_id, obs.CLIENT_SUBMIT, now,
                    attrs={"call_id": future.call_id},
                )

    def _spec(
        self,
        future: ResponseFuture,
        function: str,
        extra_input_bytes: int,
        geo: Optional[str],
        priority: int,
    ) -> CallSpec:
        spec = CallSpec(
            function=function,
            extra_input_bytes=extra_input_bytes,
            idempotency_key=(
                f"client/{self.executor_id}/{future.call_id}"
            ),
            geo=geo,
            priority=priority,
        )
        self._specs[future.call_id] = spec
        return spec

    # -- call surface --------------------------------------------------------

    def call_async(
        self,
        function: str,
        *,
        parents: Sequence[ResponseFuture] = (),
        geo: Optional[str] = None,
        priority: int = 1,
    ) -> ResponseFuture:
        """Accept one call; returns its future immediately.

        With ``parents``, the call invokes at the simulated instant
        the last parent resolves, and the parents' output bytes are
        billed as extra input (the minimal DAG primitive).  A failed
        parent fails the call without invoking it.
        """
        future = ResponseFuture(
            self._next_call_id, function, self.env.now,
            parents=tuple(parents),
        )
        self._next_call_id += 1
        self.futures.append(future)
        if parents:
            if not self.backend.supports_chaining:
                raise ValueError(
                    f"{self.backend.kind} backend does not support "
                    "futures-as-inputs chaining"
                )
            self._chain(future, tuple(parents), geo, priority)
        else:
            self.invoker.invoke(
                future, self._spec(future, function, 0, geo, priority)
            )
        return future

    def _chain(
        self,
        future: ResponseFuture,
        parents: Tuple[ResponseFuture, ...],
        geo: Optional[str],
        priority: int,
    ) -> None:
        state = {"pending": len(parents)}

        def parent_done(parent: ResponseFuture) -> None:
            if future.done:
                return  # an earlier parent already failed the call
            if not parent.success:
                self.monitor.resolve_error(
                    future,
                    f"parent call {parent.call_id} failed: {parent.error}",
                )
                return
            state["pending"] -= 1
            if state["pending"] == 0:
                # Invoke *now*, at the resolution instant — chained
                # calls bypass the batching buffer so the dependency
                # fires in simulated time, not at the next flush.
                extra = sum(p.output_bytes for p in parents)
                spec = self._spec(
                    future, future.function, extra, geo, priority
                )
                self._bind(future, self.backend.submit(spec))

        for parent in parents:
            parent.add_done_callback(parent_done)

    def map(
        self,
        functions: Union[str, Iterable[str]],
        count: Optional[int] = None,
        *,
        geo: Optional[str] = None,
        priority: int = 1,
    ) -> List[ResponseFuture]:
        """Fan out: one call per function name.

        ``map("MatMul", 100)`` issues 100 invocations of one function;
        ``map(["FloatOps", "AES128", ...])`` issues one per listed
        name, in order.  Over the default batching invoker the whole
        fan-out reaches the backend as a single bulk-window batch.
        """
        if isinstance(functions, str):
            if count is None:
                raise ValueError("map(name, count) needs a count")
            names = [functions] * count
        else:
            if count is not None:
                raise ValueError("count only applies to a single name")
            names = list(functions)
        pairs = []
        for name in names:
            future = ResponseFuture(self._next_call_id, name, self.env.now)
            self._next_call_id += 1
            self.futures.append(future)
            pairs.append(
                (future, self._spec(future, name, 0, geo, priority))
            )
        self.invoker.invoke_many(pairs)
        return [future for future, _spec in pairs]

    def map_reduce(
        self,
        map_functions: Union[str, Iterable[str]],
        reduce_function: str,
        count: Optional[int] = None,
        *,
        geo: Optional[str] = None,
        priority: int = 1,
    ) -> ResponseFuture:
        """Fan out, then chain one reduce call on every map future.

        Returns the reduce future; its ``parents`` are the map
        futures.  The reduce call invokes when the last map resolves,
        with every map output billed into its input transfer.
        """
        maps = self.map(map_functions, count, geo=geo, priority=priority)
        return self.call_async(
            reduce_function, parents=maps, geo=geo, priority=priority
        )

    # -- wait surface --------------------------------------------------------

    def wait(
        self,
        futures: Optional[Sequence[ResponseFuture]] = None,
        return_when: str = ALL_COMPLETED,
        timeout: Optional[float] = None,
    ) -> Tuple[List[ResponseFuture], List[ResponseFuture]]:
        """Run the simulation until the wait condition holds.

        ``return_when``:

        - ``ALL_COMPLETED`` (default) — every waited future resolved;
        - ``ANY_COMPLETED`` — at least one resolved;
        - ``ALWAYS`` — never advances the simulation; returns the
          current partition (after flushing the invoker).

        ``timeout`` (simulated seconds) bounds the wait; on expiry the
        partition is returned as-is.  Returns ``(done, not_done)``,
        both in the order the futures were passed (or created, when
        ``futures`` is None — the default waits on every call this
        executor ever accepted).
        """
        if return_when not in _RETURN_WHEN:
            raise ValueError(f"unknown return_when {return_when!r}")
        waited = list(futures) if futures is not None else list(self.futures)
        self.invoker.flush()
        now = self.env.now
        for future in waited:
            if not future.done and future.trace_id is not None:
                self.backend.annotate(
                    future.trace_id, obs.CLIENT_WAIT, now,
                    attrs={
                        "call_id": future.call_id,
                        "return_when": return_when,
                    },
                )
        if return_when == ALWAYS or not waited:
            return self._partition(waited)
        target = 1 if return_when == ANY_COMPLETED else len(waited)
        deadline = None if timeout is None else self.env.now + timeout
        env = self.env
        while sum(1 for f in waited if f.done) < target:
            event = self.monitor.group_event(waited, target)
            if deadline is not None:
                remaining = deadline - env.now
                if remaining <= 0:
                    break
                event = env.any_of([event, env.timeout(remaining)])
            try:
                env.run(until=event)
            except SimulationError:
                # The event queue drained with the condition unmet —
                # nothing left in the simulation can resolve these
                # futures (e.g. a chained call whose parents are not
                # being driven).  Surface the partition as-is.
                break
            if deadline is not None and env.now >= deadline:
                break
        return self._partition(waited)

    @staticmethod
    def _partition(
        waited: List[ResponseFuture],
    ) -> Tuple[List[ResponseFuture], List[ResponseFuture]]:
        done = [f for f in waited if f.done]
        not_done = [f for f in waited if not f.done]
        return done, not_done

    def drain(self) -> None:
        """Run until the backend itself is idle (late duplicate
        attempts included), so energy/trace windows seal.  Use after
        ``wait`` when a recovery policy may still have hedges in
        flight."""
        self.invoker.flush()
        event = self.backend.drain_event()
        if not event.triggered:
            self.env.run(until=event)

    # -- client retries ------------------------------------------------------

    def _on_call_failure(self, future: ResponseFuture, reason: str) -> None:
        """Monitor hook: a backend job failed or timed out."""
        policy = self.retries
        if policy is None or not policy.should_retry(future.client_retries):
            self.monitor.resolve_error(future, reason)
            return
        retry = future.client_retries + 1
        delay = policy.backoff_s(retry, future.call_id)
        future.record_retry(
            RetryRecord(
                retry=retry,
                failed_key=future.key,
                reason=reason,
                t_scheduled=self.env.now,
                backoff_s=delay,
            )
        )
        self.env.process(
            self._retry_later(future, delay),
            name=f"client-retry-{future.call_id}",
        )

    def _retry_later(self, future: ResponseFuture, delay: float):
        if delay > 0:
            yield self.env.timeout(delay)
        if future.done:
            return  # a duplicate of the original delivered meanwhile
        spec = self._specs[future.call_id]
        self._bind(future, self.backend.submit(spec))

    # -- stats ---------------------------------------------------------------

    @property
    def stats(self):
        """The monitor's lifetime counters."""
        return self.monitor.stats


__all__ = [
    "ALL_COMPLETED",
    "ALWAYS",
    "ANY_COMPLETED",
    "FunctionExecutor",
]
