"""Response futures: the client-visible handle on one invocation.

A :class:`ResponseFuture` tracks one *call* — the client-level unit —
through a deterministic state machine::

    NEW ──► INVOKED ──► RUNNING ──► SUCCESS
              │  ▲         │   │
              │  └─────────┘   └──► ERROR
              │   (client retry)

- ``NEW``: accepted by the executor, not yet handed to the backend
  (a batching invoker buffers it, or parent futures are unresolved).
- ``INVOKED``: a backend job exists for the call.  A *client retry*
  (the backend job failed or timed out, and the
  :class:`~repro.client.retries.RetryPolicy` has budget) re-enters
  ``INVOKED`` with a fresh backend job; each hop is recorded in
  :attr:`retry_history`.
- ``RUNNING``: the monitor observed the backend attempt executing
  (opt-in; backends that cannot expose attempt starts skip it —
  the state is optional, never required, in the legal sequences).
- ``SUCCESS``/``ERROR``: terminal.  Exactly one result is delivered
  per call, however many backend attempts raced for it.

Every transition is validated against :data:`LEGAL_TRANSITIONS` and
appended to :attr:`state_log` with its simulated timestamp, so
property tests can assert that *any* interleaving of completions,
retries, and timeouts yields a legal sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class FutureState(enum.Enum):
    """Client-side lifecycle states of one call."""

    NEW = "new"
    INVOKED = "invoked"
    RUNNING = "running"
    SUCCESS = "success"
    ERROR = "error"


#: The full transition relation.  ``INVOKED → INVOKED`` and
#: ``RUNNING → INVOKED`` are client retries (a fresh backend job for
#: the same call); the terminal states admit nothing.
LEGAL_TRANSITIONS = {
    FutureState.NEW: frozenset({FutureState.INVOKED, FutureState.ERROR}),
    FutureState.INVOKED: frozenset(
        {
            FutureState.RUNNING,
            FutureState.SUCCESS,
            FutureState.ERROR,
            FutureState.INVOKED,
        }
    ),
    FutureState.RUNNING: frozenset(
        {FutureState.SUCCESS, FutureState.ERROR, FutureState.INVOKED}
    ),
    FutureState.SUCCESS: frozenset(),
    FutureState.ERROR: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A future was driven through a transition outside the relation."""


@dataclass(frozen=True)
class RetryRecord:
    """One client-side retry hop in a future's history."""

    #: 1-based retry number (the first retry is 1).
    retry: int
    #: Backend key of the attempt that failed/timed out.
    failed_key: Any
    #: Why the client retried ("failure: ..." or "timeout").
    reason: str
    #: Simulated time the retry was scheduled, and the backoff paid.
    t_scheduled: float
    backoff_s: float


class ResponseFuture:
    """Handle on one client call; resolved by the job monitor."""

    __slots__ = (
        "call_id",
        "function",
        "state",
        "state_log",
        "key",
        "keys",
        "retry_history",
        "client_retries",
        "t_created",
        "t_invoked",
        "t_done",
        "trace_id",
        "output_bytes",
        "parents",
        "_value",
        "_error",
        "_done_callbacks",
    )

    def __init__(self, call_id: int, function: str, t_created: float,
                 parents: Tuple["ResponseFuture", ...] = ()):
        self.call_id = call_id
        self.function = function
        self.state = FutureState.NEW
        #: Every state entered, with its simulated timestamp.
        self.state_log: List[Tuple[FutureState, float]] = [
            (FutureState.NEW, t_created)
        ]
        #: Current backend key (e.g. orchestrator job id), and every
        #: key this call ever launched (retries append).
        self.key: Optional[Any] = None
        self.keys: List[Any] = []
        self.retry_history: List[RetryRecord] = []
        self.client_retries = 0
        self.t_created = t_created
        self.t_invoked: Optional[float] = None
        self.t_done: Optional[float] = None
        #: Trace id of the current backend job (None when unsampled).
        self.trace_id: Optional[Any] = None
        #: Output payload size of the delivered result (drives the
        #: input billing of dependent calls).
        self.output_bytes: int = 0
        self.parents: Tuple["ResponseFuture", ...] = tuple(parents)
        self._value: Any = None
        self._error: Optional[str] = None
        self._done_callbacks: List[Callable[["ResponseFuture"], None]] = []

    # -- state machine -------------------------------------------------------

    def _transition(self, new: FutureState, now: float) -> None:
        if new not in LEGAL_TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"call {self.call_id}: {self.state.value} -> {new.value}"
            )
        self.state = new
        self.state_log.append((new, now))

    def mark_invoked(self, key: Any, now: float) -> None:
        self._transition(FutureState.INVOKED, now)
        self.key = key
        self.keys.append(key)
        if self.t_invoked is None:
            self.t_invoked = now

    def mark_running(self, now: float) -> None:
        if self.state is FutureState.RUNNING or self.done:
            return
        self._transition(FutureState.RUNNING, now)

    def mark_success(self, value: Any, output_bytes: int, now: float) -> None:
        self._transition(FutureState.SUCCESS, now)
        self._value = value
        self.output_bytes = output_bytes
        self.t_done = now
        self._fire_done()

    def mark_error(self, reason: str, now: float) -> None:
        self._transition(FutureState.ERROR, now)
        self._error = reason
        self.t_done = now
        self._fire_done()

    def _fire_done(self) -> None:
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)

    # -- inspection ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in (FutureState.SUCCESS, FutureState.ERROR)

    @property
    def success(self) -> bool:
        return self.state is FutureState.SUCCESS

    @property
    def error(self) -> Optional[str]:
        """Terminal failure reason (None unless state is ERROR)."""
        return self._error

    @property
    def latency_s(self) -> Optional[float]:
        """Client-perceived latency: creation to resolution."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_created

    def result(self, raise_on_error: bool = True) -> Any:
        """The delivered result (an invocation record, or the backend's
        native handle).  Raises :class:`FutureError` on an ERROR future
        unless ``raise_on_error`` is False, and :class:`RuntimeError`
        when the future is not resolved yet — call
        :meth:`~repro.client.executor.FunctionExecutor.wait` first."""
        if self.state is FutureState.ERROR:
            if raise_on_error:
                raise FutureError(
                    f"call {self.call_id} ({self.function}): {self._error}"
                )
            return None
        if self.state is not FutureState.SUCCESS:
            raise RuntimeError(
                f"call {self.call_id} is {self.state.value}; wait() first"
            )
        return self._value

    def add_done_callback(
        self, callback: Callable[["ResponseFuture"], None]
    ) -> None:
        """Run ``callback(future)`` at resolution (immediately if the
        future is already resolved) — the chaining primitive."""
        if self.done:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    def record_retry(self, record: RetryRecord) -> None:
        self.client_retries += 1
        self.retry_history.append(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResponseFuture {self.call_id} {self.function} "
            f"{self.state.value}>"
        )


class FutureError(RuntimeError):
    """Raised by :meth:`ResponseFuture.result` on an ERROR future."""


__all__ = [
    "FutureError",
    "FutureState",
    "IllegalTransition",
    "LEGAL_TRANSITIONS",
    "ResponseFuture",
    "RetryRecord",
]
