"""Control-plane capacity model for the orchestration platform.

The paper runs its OP on a *dedicated SBC* (Sec. IV-D) — a single-core
1 GHz board running Python.  Each invocation costs the OP real CPU:
assigning the job and serializing its input (*dispatch*), then parsing
and recording the result (*collect*).  At 10 workers (~3.3 jobs/s)
this is invisible; at datacenter scale it becomes the control plane's
scaling wall, which the scale-study experiment measures.

The model is a shared simulation resource (the OP's cores) plus
per-invocation service times; workers claim it around their transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Environment
from repro.sim.resources import Resource


@dataclass(frozen=True)
class ControlPlaneModel:
    """Per-invocation OP costs.

    Defaults model CPython on the OP's single Cortex-A8 core: ~3 ms to
    assign/serialize a dispatch and ~2 ms to ingest a result — a
    capacity of 200 invocations/s, i.e. roughly 600 saturated workers.
    """

    dispatch_s: float = 3e-3
    collect_s: float = 2e-3
    cores: int = 1

    def __post_init__(self) -> None:
        if self.dispatch_s < 0 or self.collect_s < 0:
            raise ValueError("service times cannot be negative")
        if self.cores < 1:
            raise ValueError("the OP needs at least one core")

    @property
    def capacity_jobs_per_s(self) -> float:
        """Saturation throughput of the control plane alone."""
        per_job = self.dispatch_s + self.collect_s
        if per_job == 0:
            return float("inf")
        return self.cores / per_job


class ControlPlane:
    """The OP's shared CPU, claimed per dispatch/collect."""

    def __init__(self, env: Environment, model: ControlPlaneModel):
        self.env = env
        self.model = model
        self.cpu = Resource(env, capacity=model.cores)
        self.dispatches = 0
        self.collections = 0
        self.busy_seconds = 0.0

    def dispatch(self):
        """Process helper: the OP prepares one invocation."""
        yield from self._work(self.model.dispatch_s)
        self.dispatches += 1

    def collect(self):
        """Process helper: the OP ingests one result."""
        yield from self._work(self.model.collect_s)
        self.collections += 1

    def _work(self, seconds: float):
        if seconds <= 0:
            return
        request = self.cpu.request()
        yield request
        try:
            yield self.env.timeout(seconds)
            self.busy_seconds += seconds
        finally:
            self.cpu.release(request)

    @property
    def queue_length(self) -> int:
        return self.cpu.queue_length

    def utilization(self, duration_s: float) -> float:
        """Busy fraction over a window."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return min(1.0, self.busy_seconds / (duration_s * self.model.cores))


__all__ = ["ControlPlane", "ControlPlaneModel"]
