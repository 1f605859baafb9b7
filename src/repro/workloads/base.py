"""Workload function base class, registry, and service bundle.

A workload function has three responsibilities:

- ``generate_input(rng, scale)`` — produce a deterministic invocation
  payload (the orchestrator ships this to the worker);
- ``run(payload, services)`` — actually execute (used by the live
  runtime and by tests);
- metadata (name, category, description) matching Table I.

Functions self-register via the :func:`register` decorator; the cluster
simulation, live platform, experiments, and benchmarks all resolve them
through :func:`get_function` / :func:`registry`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

from repro.services import KeyValueStore, MessageQueue, ObjectStore

if TYPE_CHECKING:
    import sqlite3

Payload = Dict[str, Any]

#: Table I's two workload classes.
CPU_BOUND = "cpu"
NETWORK_BOUND = "network"


def _sql_server() -> sqlite3.Connection:
    """An in-memory SQLite database whose rows read by column name.

    Worker threads share it, so it is not pinned to the opening thread;
    callers serialize their statements (``LocalWorker``'s service lock).
    """
    # Imported on first use: the simulation imports this module for the
    # registry and never opens a database, and loading the SQLite
    # library would grow each of its processes by about 1.7 MB.
    import sqlite3

    connection = sqlite3.connect(":memory:", check_same_thread=False)
    connection.row_factory = sqlite3.Row
    return connection


@dataclass
class ServiceBundle:
    """The backend services a worker can reach over the cluster network."""

    kv: KeyValueStore = field(default_factory=KeyValueStore)
    sql: sqlite3.Connection = field(default_factory=_sql_server)
    cos: ObjectStore = field(default_factory=ObjectStore)
    mq: MessageQueue = field(default_factory=MessageQueue)

    def seed_defaults(self) -> None:
        """Create the fixtures the network-bound workloads expect.

        Mirrors the testbed setup: a seeded SQL table, an object-store
        bucket with sample objects, and an MQ topic with a backlog.
        """
        if not self.sql.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'records'"
        ).fetchone():
            self.sql.execute(
                "CREATE TABLE records (id INTEGER PRIMARY KEY, "
                "payload TEXT, version INTEGER, score REAL)"
            )
            rng = random.Random(1234)
            rows = ", ".join(
                f"({i}, 'rec-{i:05d}-{rng.randrange(10**6):06d}', 1, "
                f"{rng.uniform(0, 100):.3f})"
                for i in range(500)
            )
            self.sql.execute(f"INSERT INTO records VALUES {rows}")
        if "faas-data" not in self.cos.list_buckets():
            self.cos.create_bucket("faas-data")
            rng = random.Random(5678)
            for i in range(8):
                data = bytes(rng.randrange(256) for _ in range(16384))
                self.cos.put_object("faas-data", f"objects/sample-{i}", data)
        if "jobs" not in self.mq.list_topics():
            self.mq.create_topic("jobs", partitions=4)
            for i in range(32):
                self.mq.produce("jobs", f"backlog-message-{i}", key=str(i % 8))


class WorkloadFunction(abc.ABC):
    """One serverless function from the workload suite."""

    #: Unique Table I name, e.g. ``"CascSHA"``.
    name: str = ""
    #: ``CPU_BOUND`` or ``NETWORK_BOUND``.
    category: str = ""
    #: Table I one-line description.
    description: str = ""
    #: Whether the function is adapted from FunctionBench (Table I stars).
    from_functionbench: bool = False

    @abc.abstractmethod
    def generate_input(self, rng: random.Random, scale: float = 1.0) -> Payload:
        """Build a deterministic invocation payload.

        ``scale`` grows/shrinks the work (1.0 = the paper's default size).
        """

    @abc.abstractmethod
    def run(self, payload: Payload, services: ServiceBundle) -> Payload:
        """Execute the function for real, returning its result payload."""


_REGISTRY: Dict[str, WorkloadFunction] = {}


def register(cls):
    """Class decorator: instantiate and register a workload function."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} has no name")
    if instance.category not in (CPU_BOUND, NETWORK_BOUND):
        raise ValueError(
            f"{instance.name}: category must be {CPU_BOUND!r} or "
            f"{NETWORK_BOUND!r}"
        )
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate workload function {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return cls


def registry() -> Dict[str, WorkloadFunction]:
    """All registered functions by name."""
    return dict(_REGISTRY)


def get_function(name: str) -> WorkloadFunction:
    """Look up one function by its Table I name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown workload function {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


#: The 17 Table I names in presentation order (populated by imports).
ALL_FUNCTION_NAMES: List[str] = [
    "FloatOps",
    "CascSHA",
    "CascMD5",
    "MatMul",
    "HTMLGen",
    "AES128",
    "Decompress",
    "RegExSearch",
    "RegExMatch",
    "RedisInsert",
    "RedisUpdate",
    "SQLSelect",
    "SQLUpdate",
    "COSGet",
    "COSPut",
    "MQProduce",
    "MQConsume",
]

__all__ = [
    "ALL_FUNCTION_NAMES",
    "CPU_BOUND",
    "NETWORK_BOUND",
    "Payload",
    "ServiceBundle",
    "WorkloadFunction",
    "get_function",
    "register",
    "registry",
]
