"""Queued resources for the simulation kernel.

Two classic resource types:

- :class:`Resource` — a fixed number of slots claimed/released by processes
  (e.g. CPU cores, switch ports).
- :class:`Store` — a FIFO buffer of Python objects (e.g. job queues).

All requests are events, so processes simply ``yield resource.request()``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.kernel import Environment, Event


class Request(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently claimed."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim succeeds."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Releasing an ungranted (still-queued) request cancels it instead.
        """
        if request in self.users:
            self.users.remove(request)
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            req = self._waiting.popleft()
            self.users.append(req)
            req.succeed(req)


class StorePut(Event):
    """Pending insertion into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]):
        super().__init__(store.env)
        self.predicate = predicate


class Store:
    """A FIFO buffer of arbitrary items with optional capacity.

    ``get`` accepts an optional predicate, turning the store into a filter
    queue (first matching item wins).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires once there is room."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Remove and return the first (matching) item; fires when found."""
        event = StoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def cancel(self, event: Event) -> None:
        """Withdraw a pending put or get request."""
        if isinstance(event, StorePut):
            try:
                self._putters.remove(event)
            except ValueError:
                pass
        elif isinstance(event, StoreGet):
            try:
                self._getters.remove(event)
            except ValueError:
                pass
        else:
            raise TypeError(f"not a store event: {event!r}")

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit queued putters while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters (possibly filtered).
            remaining: deque[StoreGet] = deque()
            while self._getters:
                get = self._getters.popleft()
                index = self._find(get.predicate)
                if index is None:
                    remaining.append(get)
                else:
                    item = self.items.pop(index)
                    get.succeed(item)
                    progress = True
            self._getters = remaining

    def _find(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if predicate(item):
                return index
        return None


__all__ = [
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
]
