"""Core event loop and process machinery for the simulation kernel.

The design follows the classic discrete-event pattern: a priority queue of
``(time, priority, sequence, event)`` tuples, where each event carries a
list of callbacks.  Generator-based processes interact with the loop by
yielding events; when a yielded event fires, the process is resumed with
the event's value (or the event's exception is thrown into it).

Four fast paths keep large runs cheap without changing a single firing
(the regression suite pins bit-identical results against the per-event
loop):

- **Same-timestamp drains.**  ``run`` pops contiguous same-time runs
  from the heap in one pass, paying the horizon check and the clock
  write once per distinct timestamp instead of once per event
  (:meth:`Environment.step` fires exactly one event).  Events still
  pop one at a time through the heap — a callback may schedule an
  urgent event at the current instant, and the heap is what keeps it
  ordered before its siblings.
- **Carrier pooling.**  :class:`Timeout` and :class:`_Resume` are
  one-shot carriers created in the tens of millions by megatrace-scale
  runs.  After a carrier fires, the loop recycles it onto a per-
  environment free list — but only when ``sys.getrefcount`` proves the
  kernel held the last reference, so user code that keeps a timeout
  (``t = env.timeout(5); yield t; t.value``) or a condition that lists
  one is never handed a reused object.
- **Bulk scheduling.**  :meth:`Environment.begin_bulk` /
  :meth:`Environment.end_bulk` defer heap insertion for batched
  submitters: N events collect in a side list and merge with one
  ``heapify`` (or N pushes when the batch is small relative to the
  heap — whichever is cheaper).  Sequence numbers are allocated exactly
  as the unbatched path would, so pop order is unchanged.  Inside a
  bulk window nothing may step or peek the queue.
- **Absolute-time timeouts.**  :meth:`Environment.timeout_at` schedules
  a pooled :class:`Timeout` at an absolute instant.  A process whose
  next few phase ends are fixed (and unobserved) computes the last one
  with the same float additions a chain of relative timeouts would
  perform, and waits once instead of once per phase — one heap push,
  one pop and one generator resume instead of several.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

#: Per-environment cap on each carrier free list; beyond this, retired
#: carriers are left to the garbage collector (bounds idle memory).
_POOL_MAX = 4096

#: Scheduling priority for "urgent" events (fire before normal events that
#: share the same timestamp).  Used internally for process resumption so a
#: process observes the state left behind by the event that woke it.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    Parameters
    ----------
    cause:
        Arbitrary value describing why the interrupt happened.  Retrieved
        via :attr:`cause` inside the interrupted process.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    Events start *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules them on the environment's queue.  Processes wait on events by
    yielding them.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not via :meth:`fail`)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event fired with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if not self._triggered:
            raise SimulationError("event value not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6g}>"


class _Resume(object):
    """Pre-triggered resume carrier for :meth:`Process._wait_on`.

    Stands in for the trampoline :class:`Event` when a process waits on an
    already-processed event: it carries only what :meth:`Environment.step`
    and :meth:`Process._resume` touch (``callbacks``, the value/exception
    payload, and the processed flag), so the hot wait-on-finished path
    allocates one small slotted object instead of a full event.
    """

    __slots__ = ("callbacks", "_value", "_exception", "_processed")

    #: Class-level: a resume carrier is born triggered and never re-fires.
    _triggered = True

    def __init__(
        self,
        value: Any,
        exception: Optional[BaseException],
        callback: Callable[["Event"], None],
    ):
        self.callbacks: Optional[list] = [callback]
        self._value = value
        self._exception = exception
        self._processed = False


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._triggered = True
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal event used to start a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._triggered = True
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A generator-based simulated process.

    A process is itself an event that fires when the generator returns,
    carrying the generator's return value; other processes can therefore
    wait for its completion by yielding it.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered as an urgent event at the current time.
        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed is allowed (the interrupt wins).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        failure = Event(self.env)
        failure._triggered = True
        failure._exception = Interrupt(cause)
        failure.callbacks.append(self._resume)
        # Detach from the event we were waiting on so the normal resume
        # callback becomes a no-op when that event eventually fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self.env._schedule(failure, URGENT, 0.0)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        try:
            if event._exception is None:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._exception)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            self.env._schedule(self, NORMAL, 0.0)
            return
        except BaseException as exc:
            self._triggered = True
            self._exception = exc
            self.env._schedule(self, NORMAL, 0.0)
            return
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}"
            )
        if next_event.env is not self.env:
            raise SimulationError("cannot wait on event from another environment")
        self._wait_on(next_event)

    def _wait_on(self, event: Event) -> None:
        callbacks = event.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current time via
            # a lightweight carrier instead of a full trampoline Event.
            env = self.env
            pool = env._resume_pool
            if pool:
                resume = pool.pop()
                resume.callbacks = [self._resume]
                resume._value = event._value
                resume._exception = event._exception
                resume._processed = False
            else:
                resume = _Resume(event._value, event._exception, self._resume)
            env._schedule(resume, URGENT, 0.0)
            self._target = resume
        else:
            callbacks.append(self._resume)
            self._target = event


class ConditionEvent(Event):
    """Base for :class:`AnyOf` event composition."""

    __slots__ = ("events", "_fired_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
        self._fired_count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
            if self._triggered:
                break

    def _condition_met(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self._fired_count += 1
        if event._exception is not None:
            self.fail(event._exception)
        elif self._condition_met():
            self.succeed(
                {e: e._value for e in self.events if e.processed and e.ok}
            )


class AnyOf(ConditionEvent):
    """Fires when *any* constituent event fires."""

    __slots__ = ()

    def _condition_met(self) -> bool:
        return self._fired_count >= 1


class Environment:
    """The simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_sequence",
        "_bulk",
        "_bulk_depth",
        "_timeout_pool",
        "_resume_pool",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        #: Deferred-insertion buffer, non-None only inside a bulk window.
        self._bulk: Optional[list[tuple[float, int, int, Event]]] = None
        self._bulk_depth = 0
        #: Free lists of retired one-shot carriers, refilled by the event
        #: loop when it can prove it held the last reference.
        self._timeout_pool: list[Timeout] = []
        self._resume_pool: list[_Resume] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            # Recycled carriers were scrubbed when pooled; _triggered is
            # still True (a timeout is born triggered) and _exception is
            # None by construction (timeouts cannot fail()).
            timeout.callbacks = []
            timeout.delay = delay
            timeout._value = value
            timeout._processed = False
            self._schedule(timeout, NORMAL, delay)
            return timeout
        return Timeout(self, delay, value)

    def timeout_at(
        self, when: float, value: Any = None, priority: float = NORMAL
    ) -> Timeout:
        """Create an event that fires at the absolute time ``when``.

        The event is keyed at exactly ``when`` — not at
        ``now + (when - now)``, which can round to a neighbouring float —
        so a process can chain several phase ends by hand and land on
        the instant the chained relative timeouts would have reached.
        Events sharing an instant fire in ``priority`` order, then in
        scheduling order; a priority between :data:`URGENT` and
        :data:`NORMAL` pins a model-level same-instant order without
        overtaking process resumption.
        """
        now = self._now
        if when < now:
            raise ValueError(f"timeout_at({when}) is in the past (now={now})")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._processed = False
        else:
            # Bypass Timeout.__init__: it schedules relative to now.
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            timeout._value = value
            timeout._triggered = True
        timeout.delay = when - now
        self._sequence += 1
        entry = (when, priority, self._sequence, timeout)
        if self._bulk is None:
            heappush(self._queue, entry)
        else:
            self._bulk.append(entry)
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling and execution -------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._sequence += 1
        if self._bulk is None:
            heappush(
                self._queue, (self._now + delay, priority, self._sequence, event)
            )
        else:
            self._bulk.append(
                (self._now + delay, priority, self._sequence, event)
            )

    def begin_bulk(self) -> None:
        """Open a bulk-scheduling window.

        Events scheduled inside the window collect in a side list and are
        merged into the heap by :meth:`end_bulk` — one ``heapify`` instead
        of N ``heappush`` calls when the batch is large.  Sequence numbers
        are allocated normally, so the eventual pop order is identical to
        unbatched scheduling.  The queue must not be stepped or peeked
        while a window is open; windows nest (only the outermost merge
        touches the heap).
        """
        if self._bulk is None:
            self._bulk = []
        self._bulk_depth += 1

    def end_bulk(self) -> None:
        """Close a bulk window, merging deferred events into the heap."""
        if self._bulk_depth <= 0:
            raise SimulationError("end_bulk() without begin_bulk()")
        self._bulk_depth -= 1
        if self._bulk_depth:
            return
        entries = self._bulk
        self._bulk = None
        if not entries:
            return
        queue = self._queue
        total = len(queue) + len(entries)
        # N pushes cost ~N·log(total); extend+heapify costs ~total.  Pick
        # whichever is cheaper for this batch/heap size ratio.
        if len(entries) * total.bit_length() < total:
            for entry in entries:
                heappush(queue, entry)
        else:
            queue.extend(entries)
            heapify(queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        self._now, _priority, _seq, event = heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif event._exception is not None and not isinstance(
            event._exception, Interrupt
        ):
            # An event failed with nobody listening: surface the error
            # rather than letting it pass silently.
            raise event._exception
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
            if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                event._value = None
                pool.append(event)
        elif cls is _Resume:
            pool = self._resume_pool
            if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                event._value = None
                event._exception = None
                pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue drains;
            a number — run until that simulated time;
            an :class:`Event` — run until that event fires, returning its
            value.
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        queue = self._queue
        pop = heappop
        timeout_pool = self._timeout_pool
        resume_pool = self._resume_pool
        bound = float("inf") if stop_at is None else stop_at
        # Inlined event loop: the outer iteration advances the clock and
        # checks the horizon once per distinct timestamp; the inner drain
        # fires the contiguous same-time run.  Stop conditions are checked
        # between every pair of events, exactly like the step()-per-event
        # loop, so the set of events fired before stopping is unchanged.
        while queue:
            if stop_event is not None and stop_event._processed:
                break
            head = queue[0]
            batch_time = head[0]
            if batch_time > bound:
                break
            self._now = batch_time
            event = pop(queue)[3]
            head = None
            while True:
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None and not isinstance(
                    event._exception, Interrupt
                ):
                    raise event._exception
                cls = event.__class__
                if cls is Timeout:
                    if (
                        len(timeout_pool) < _POOL_MAX
                        and getrefcount(event) == 2
                    ):
                        event._value = None
                        timeout_pool.append(event)
                elif cls is _Resume:
                    if (
                        len(resume_pool) < _POOL_MAX
                        and getrefcount(event) == 2
                    ):
                        event._value = None
                        event._exception = None
                        resume_pool.append(event)
                if not queue or queue[0][0] != batch_time:
                    break
                if stop_event is not None and stop_event._processed:
                    break
                event = pop(queue)[3]
        if stop_event is not None:
            if not stop_event._triggered:
                raise SimulationError("run(until=event) exhausted queue first")
            return stop_event.value
        if stop_at is not None:
            # Single exit for the timed case: whether the queue drained or
            # the next event lies beyond the horizon, the clock lands on
            # exactly ``stop_at``.
            self._now = stop_at
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment t={self._now:.6g} queued={len(self._queue)}>"
