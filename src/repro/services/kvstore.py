"""A Redis-style in-memory key-value store (RedisInsert/RedisUpdate backend).

Implements the slice of Redis the two workloads send over the wire:
string ``SET`` with the ``EX``/``NX``/``XX`` options and ``GET``, behind
a Redis-like command-list protocol (:meth:`KeyValueStore.execute`).  A
key whose ``EX`` has run out reads as missing and is dropped on that
read.

Time is injected (``clock``) so the store works identically under the
simulation clock and the wall clock.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Tuple


class KvError(Exception):
    """Protocol error, as a Redis client would receive."""


class KeyValueStore:
    """An in-memory string key-value store with expiry."""

    def __init__(self, clock: Callable[[], float] = _time.monotonic):
        self._clock = clock
        #: key -> (value, absolute expiry time or None)
        self._data: Dict[str, Tuple[str, Optional[float]]] = {}

    def set(
        self,
        key: str,
        value: str,
        ex: Optional[float] = None,
        nx: bool = False,
        xx: bool = False,
    ) -> bool:
        """SET.  ``nx`` = only if absent, ``xx`` = only if present.

        Returns True if the value was stored.
        """
        if nx and xx:
            raise KvError("NX and XX are mutually exclusive")
        if ex is not None and ex <= 0:
            raise KvError("EX must be positive")
        exists = self.get(key) is not None
        if (nx and exists) or (xx and not exists):
            return False
        expires_at = None if ex is None else self._clock() + ex
        self._data[key] = (str(value), expires_at)
        return True

    def get(self, key: str) -> Optional[str]:
        """GET: the value, or None when missing/expired."""
        entry = self._data.get(key)
        if entry is None:
            return None
        value, expires_at = entry
        if expires_at is not None and self._clock() >= expires_at:
            del self._data[key]
            return None
        return value

    def execute(self, command: List[str]) -> Optional[object]:
        """Execute a Redis-style command list, e.g. ``["SET", "k", "v"]``.

        This is the wire-level entry point the workload clients use.
        """
        if not command:
            raise KvError("empty command")
        op, args = command[0].upper(), command[1:]
        if op == "GET":
            if len(args) != 1:
                raise KvError(f"GET takes one key, got {len(args)} arguments")
            return self.get(args[0])
        if op == "SET":
            return self._cmd_set(args)
        raise KvError(f"unknown command {op!r}")

    def _cmd_set(self, args: List[str]) -> bool:
        if len(args) < 2:
            raise KvError("SET needs a key and a value")
        key, value = args[0], args[1]
        ex: Optional[float] = None
        nx = xx = False
        options = [token.upper() for token in args[2:]]
        i = 0
        while i < len(options):
            token = options[i]
            if token == "EX":
                if i + 1 >= len(options):
                    raise KvError("EX needs a value")
                ex = float(args[2 + i + 1])
                i += 2
            elif token == "NX":
                nx = True
                i += 1
            elif token == "XX":
                xx = True
                i += 1
            else:
                raise KvError(f"unknown SET option {token!r}")
        return self.set(key, value, ex=ex, nx=nx, xx=xx)


__all__ = ["KeyValueStore", "KvError"]
