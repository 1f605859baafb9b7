"""Backend services the network-bound workloads exercise.

The paper's testbed dedicates extra SBCs to hosting Redis, PostgreSQL,
MinIO, and Kafka for the network-bound workload functions (Table I).
None of those servers are available here, so the live functions talk
to in-process stand-ins that serve exactly what they call:

- :mod:`repro.services.kvstore` — a Redis-style key-value store:
  ``SET`` (``EX``/``NX``/``XX``) and ``GET`` over a command-list
  protocol, with expiry on read.
- the SQL server is Python's :mod:`sqlite3`: an in-memory database that
  :class:`repro.workloads.base.ServiceBundle` opens and seeds.
- :mod:`repro.services.objectstore` — a MinIO-style bucket/object store
  with MD5 ETags.
- :mod:`repro.services.mq` — a Kafka-style partitioned log with
  key-hashed routing and per-group consumer offsets.

:mod:`repro.services.backend` models the same services inside the
simulation instead: per-service concurrency and outages
(:class:`BackendFleet`).
"""

from repro.services.backend import BackendCapacityModel, BackendFleet
from repro.services.kvstore import KeyValueStore, KvError
from repro.services.mq import MessageQueue, MqError
from repro.services.objectstore import ObjectStore, ObjectStoreError

__all__ = [
    "BackendCapacityModel",
    "BackendFleet",
    "KeyValueStore",
    "KvError",
    "MessageQueue",
    "MqError",
    "ObjectStore",
    "ObjectStoreError",
]
