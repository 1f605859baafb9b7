"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps public functions of the simulator from outside the
program: each wrapped call opens a span, and a span's *self time* is its
duration minus the time covered by the wrapped calls it made.  Spans
are folded into per-name aggregates as they close (calls, self time,
and outermost inclusive time), so memory stays constant however many
calls a run makes; the aggregates are written out when the run ends.

Layer names are the ``repro`` packages (``sim``, ``core``,
``hardware``, ...); a metric is ``<layer>.<boundary>``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

#: Wrapped boundaries: span name -> ``(module, owner, attribute, kind)``.
#: ``owner`` is a class name, or ``None`` for a module-level function;
#: ``kind`` is ``"call"`` or ``"iter"`` (a generator: each ``next`` is
#: one span, so the consumer's work between items is not charged).
TARGETS: Dict[str, Tuple[Tuple[str, object, str, str], ...]] = {
    "sim": (
        ("repro.sim.kernel", "Environment", "run", "call"),
        ("repro.sim.kernel", "Environment", "step", "call"),
    ),
    "core.submit": (
        ("repro.core.orchestrator", "Orchestrator", "submit_batch", "call"),
        ("repro.core.orchestrator", "Orchestrator", "submit", "call"),
        # Sharded runs: the coordinator has already placed the job.
        ("repro.core.orchestrator", "Orchestrator", "submit_assigned", "call"),
    ),
    "core.complete": (
        ("repro.core.orchestrator", "Orchestrator", "complete", "call"),
    ),
    "core.select": tuple(
        ("repro.core.scheduler", name, "select", "call")
        for name in (
            "RandomSamplingPolicy",
            "RoundRobinPolicy",
            "LeastLoadedPolicy",
            "PackingPolicy",
            "EnergyAwarePolicy",
            "CarbonAwarePolicy",
        )
    ),
    "core.telemetry": (
        ("repro.core.telemetry", "TelemetryCollector", "record", "call"),
    ),
    "hardware.set_state": (
        ("repro.hardware.power", "PowerStateMachine", "set_state", "call"),
    ),
    "hardware.record": (
        ("repro.hardware.power", "PowerTrace", "record", "call"),
    ),
    "hardware.energy": (
        ("repro.hardware.power", "PowerTrace", "energy_joules", "call"),
    ),
    "net.transfer": (
        ("repro.net.transfer", "TransferModel", "transfer", "call"),
        ("repro.net.transfer", "TransferModel", "invocation_overhead_s", "call"),
    ),
    "net.route": (
        ("repro.net.topology", "NetworkTopology", "path", "call"),
        ("repro.net.topology", "NetworkTopology", "path_properties", "call"),
    ),
    "cluster.build": (
        ("repro.cluster.harness", "ClusterHarness", "__init__", "call"),
        ("repro.shard.runtime", "ClusterSpec", "build", "call"),
    ),
    "cluster.blueprint": (
        ("repro.shard.runtime", "ClusterSpec", "blueprint", "call"),
    ),
    "workloads.trace_gen": (
        ("repro.workloads.traces", None, "poisson_trace", "call"),
        ("repro.workloads.traces", "ColumnarTrace", "iter_pairs", "iter"),
        ("repro.workloads.traces", "ChunkedPoissonTrace", "iter_pairs", "iter"),
    ),
    "energy.bill": (
        ("repro.energy.controlplane", "EnergyLedger", "bill_attempt", "call"),
        (
            "repro.energy.controlplane",
            "EnergyLedger",
            "bill_crashed_attempt",
            "call",
        ),
    ),
    "obs": tuple(
        ("repro.obs.trace", "TraceRecorder", name, "call")
        for name in (
            "sample",
            "begin_trace",
            "span",
            "annotate",
            "begin_attempt",
            "end_attempt",
            "mark_delivered",
            "drain",
            "traces",
        )
    ),
    "client.map": (("repro.client.executor", "FunctionExecutor", "map", "call"),),
    "client.wait": (
        ("repro.client.executor", "FunctionExecutor", "wait", "call"),
    ),
    "shard.inject": (
        ("repro.shard.executors", "InlineExecutor", "inject", "call"),
    ),
    "shard.advance": (
        ("repro.shard.executors", "InlineExecutor", "advance", "call"),
    ),
    "shard.replay": tuple(
        ("repro.shard.replay", "LeastLoadedReplayer", name, "call")
        for name in ("select", "on_load_change", "on_alive_change")
    ),
}


@dataclass
class SpanTotals:
    """Aggregate of every closed span with one name."""

    calls: int = 0
    self_s: float = 0.0
    #: Inclusive time of the outermost spans only, so a name that nests
    #: in itself (a harness built inside a spec build) counts once.
    inclusive_s: float = 0.0


class LayerProfiler:
    """Span stack plus per-name totals; install/uninstall the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: Dict[str, SpanTotals] = {}
        # One frame per open span: [name, start, child_time].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # -- span arithmetic -----------------------------------------------------

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child = self._stack.pop()
        duration = end - start
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = SpanTotals()
        totals.calls += 1
        totals.self_s += duration - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            totals.inclusive_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrappers ------------------------------------------------------------

    def wrap_call(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_()
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper (once per profiler)."""
        if self._saved:
            raise RuntimeError("profiler already installed")
        for name, sites in TARGETS.items():
            for module_name, owner_name, attr, kind in sites:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrap = self.wrap_iter if kind == "iter" else self.wrap_call
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
