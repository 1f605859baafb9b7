"""The job monitor: push-driven tracking of in-flight calls.

One :class:`JobMonitor` per executor.  It subscribes to the backend's
``on_job_done`` hook at construction — results are *pushed* into the
monitor at the simulated instant they resolve; nothing ever polls
``result_snapshot``.  The monitor:

- maps every backend key (each client retry launches a fresh key) to
  its future, delivering exactly the first resolution per call and
  counting later ones as suppressed duplicates;
- hands failures to the executor's retry logic instead of resolving
  the future, so a call only reaches ERROR when its client retry
  budget is spent;
- wakes ``wait()`` through one-shot resolution events (no busy loop:
  each ``wait`` group arms callbacks on exactly the futures it
  covers);
- optionally runs a tick process (only when the retry policy enables
  timeouts or RUNNING detection is requested — otherwise the monitor
  schedules **zero** simulation events) that times out overdue calls
  and surfaces RUNNING transitions from backend attempt starts;
- keeps throughput/progress stats over everything it tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.client.futures import FutureState, ResponseFuture
from repro.sim.kernel import Environment, Event


@dataclass
class MonitorStats:
    """Lifetime counters for one executor's monitor."""

    calls_tracked: int = 0
    resolved: int = 0
    succeeded: int = 0
    failed: int = 0
    #: Late resolutions of keys whose call already resolved (a client
    #: retry raced its original and both delivered).
    duplicates_suppressed: int = 0
    #: Client-side timeouts the tick scan declared.
    timeouts: int = 0
    #: First/last resolution times (simulated) for throughput.
    t_first_resolved: Optional[float] = None
    t_last_resolved: Optional[float] = None

    def progress(self) -> float:
        """Resolved fraction of everything tracked so far."""
        if self.calls_tracked == 0:
            return 1.0
        return self.resolved / self.calls_tracked

    def throughput_per_min(self) -> Optional[float]:
        """Resolutions per minute over the observed resolution window."""
        if (
            self.t_first_resolved is None
            or self.t_last_resolved is None
            or self.t_last_resolved <= self.t_first_resolved
        ):
            return None
        window = self.t_last_resolved - self.t_first_resolved
        return self.resolved * 60.0 / window


class JobMonitor:
    """Tracks in-flight calls via backend completion callbacks."""

    def __init__(self, env: Environment, backend,
                 on_failure: Callable[[ResponseFuture, str], None]):
        self.env = env
        self.backend = backend
        #: Executor hook: decide retry-vs-ERROR for a failed call.
        #: (The monitor resolves successes itself.)
        self.on_failure = on_failure
        self._futures: Dict[Any, ResponseFuture] = {}
        self._in_flight: Dict[Any, ResponseFuture] = {}
        #: When each in-flight key was invoked (client timeouts are
        #: per backend job, so retries re-arm the clock).
        self._invoked_at: Dict[Any, float] = {}
        self.stats = MonitorStats()
        self._tick_running = False
        self._track_running = False
        self._timeout_s: Optional[float] = None
        self._tick_s = 0.5
        backend.connect(self._on_backend_done)

    # -- tracking ------------------------------------------------------------

    def track(self, future: ResponseFuture, key: Any) -> None:
        """Watch one backend key on behalf of ``future``.  Every client
        retry of a call tracks its fresh key here too; the first key to
        resolve wins the call."""
        self._futures[key] = future
        self._in_flight[key] = future
        self._invoked_at[key] = self.env.now
        self.stats.calls_tracked += 1
        if (self._timeout_s is not None or self._track_running) and (
            not self._tick_running
        ):
            self._tick_running = True
            self.env.process(self._tick(), name="client-monitor")

    def configure_ticks(
        self,
        timeout_s: Optional[float],
        tick_s: float,
        track_running: bool,
    ) -> None:
        """Arm the periodic scan (called once by the executor when its
        retry policy wants timeouts, or RUNNING detection is on)."""
        self._timeout_s = timeout_s
        self._tick_s = tick_s
        self._track_running = track_running

    # -- resolution push -----------------------------------------------------

    def _on_backend_done(
        self, key: Any, ok: bool, value: Any, reason: Optional[str],
        output_bytes: int,
    ) -> None:
        future = self._futures.get(key)
        if future is None:
            return  # not one of ours (another executor on the backend)
        self._in_flight.pop(key, None)
        self._invoked_at.pop(key, None)
        if future.done:
            self.stats.duplicates_suppressed += 1
            return
        if ok:
            self._resolve(future, value, output_bytes)
        else:
            # The executor decides: client retry (future re-enters
            # INVOKED with a fresh key) or terminal ERROR.
            self.on_failure(future, reason or "failed")

    def _resolve(self, future: ResponseFuture, value: Any,
                 output_bytes: int) -> None:
        now = self.env.now
        future.mark_success(value, output_bytes, now)
        self._note_resolved(now, succeeded=True)

    def resolve_error(self, future: ResponseFuture, reason: str) -> None:
        """Terminal failure (called by the executor once retries are
        spent, or when a chained call's parent failed)."""
        now = self.env.now
        future.mark_error(reason, now)
        self._note_resolved(now, succeeded=False)

    def _note_resolved(self, now: float, succeeded: bool) -> None:
        stats = self.stats
        stats.resolved += 1
        if succeeded:
            stats.succeeded += 1
        else:
            stats.failed += 1
        if stats.t_first_resolved is None:
            stats.t_first_resolved = now
        stats.t_last_resolved = now

    def forget(self, key: Any) -> None:
        """Stop watching a key (its call timed out client-side; a late
        resolution will still be counted as a duplicate)."""
        self._in_flight.pop(key, None)
        self._invoked_at.pop(key, None)

    # -- wait support --------------------------------------------------------

    def group_event(
        self, futures: List[ResponseFuture], target: int
    ) -> Event:
        """Event firing once ``target`` of ``futures`` are resolved
        (counting the already-resolved).  ``target`` must be
        achievable; callers clamp it to ``len(futures)``."""
        event = Event(self.env)
        done = sum(1 for future in futures if future.done)
        if done >= target:
            event.succeed(done)
            return event
        remaining = target - done
        state = {"remaining": remaining}

        def on_done(_future, _state=state, _event=event):
            _state["remaining"] -= 1
            if _state["remaining"] == 0 and not _event.triggered:
                _event.succeed(target)

        for future in futures:
            if not future.done:
                future.add_done_callback(on_done)
        return event

    # -- periodic scan -------------------------------------------------------

    def _tick(self):
        """Timeout + RUNNING scan; runs only while calls are in flight
        and only when armed (a default executor schedules nothing)."""
        try:
            while self._in_flight:
                yield self.env.timeout(self._tick_s)
                now = self.env.now
                if self._track_running:
                    for key, future in self._in_flight.items():
                        if future.state is FutureState.INVOKED:
                            started = self.backend.running_since(key)
                            if started is not None:
                                future.mark_running(now)
                if self._timeout_s is not None:
                    overdue = [
                        (key, future)
                        for key, future in self._in_flight.items()
                        if not future.done
                        and now - self._invoked_at[key] >= self._timeout_s
                    ]
                    for key, future in overdue:
                        self.forget(key)
                        self.stats.timeouts += 1
                        self.on_failure(future, "timeout")
        finally:
            # Re-armed by the next track() if more work arrives.
            self._tick_running = False


__all__ = ["JobMonitor", "MonitorStats"]
