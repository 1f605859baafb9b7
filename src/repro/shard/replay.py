"""The shard coordinator's placement policy, by its historical name.

The coordinator owns every assignment decision of a sharded run.  It
makes them with the same policy objects the serial orchestrator uses
(:mod:`repro.core.scheduler`), over a
:class:`~repro.core.scheduler.SchedulingState` it feeds from the
shards' completion and liveness reports instead of from live queues.
"""

from __future__ import annotations

from repro.core.scheduler import LeastLoadedPolicy

#: Least-loaded placement — the same class serial runs use; the name
#: stays for the benchmark's per-layer table.
LeastLoadedReplayer = LeastLoadedPolicy

__all__ = ["LeastLoadedReplayer"]
