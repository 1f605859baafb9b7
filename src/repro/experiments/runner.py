"""Shared experiment execution: an order-preserving parallel map.

Every sweep-shaped experiment in this reproduction fans a set of
mutually independent simulation points (a VM count, a cluster size, a
workload name) through the same pattern: build a cluster, run it,
collect a small result record.  This module factors that pattern out:

- :func:`run_map` maps a picklable task-spec list over a worker
  function, optionally across a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Each task spec carries its own seed, so parallel execution is
  bit-identical to serial execution regardless of completion order.
  Every call computes every point afresh.
- :func:`map_traced` is :func:`run_map` for the studies that honour
  ``--trace``: the chosen point records spans inside the sweep, in
  whichever process computes it, and its sealed traces come back
  beside its numbers to be written to one file.  No point is
  simulated twice, and tracing draws from its own RNG stream, so the
  traced point's numbers are the untraced ones.
- :func:`derive_seed` derives per-task seeds deterministically from a
  base seed plus arbitrary task components, for experiments that need
  distinct-but-reproducible streams per point.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields, is_dataclass, replace
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.obs.export import write_trace_file
from repro.obs.trace import FinishedTrace, TraceConfig, merge_traces

__all__ = [
    "TaskExecutionError",
    "derive_seed",
    "map_traced",
    "run_map",
]


class TaskExecutionError(RuntimeError):
    """A :func:`run_map` worker raised; carries the originating task.

    A traceback surfacing from a ``ProcessPoolExecutor`` names the
    worker function but not which of the N task specs it was chewing
    on — useless for a sweep where only one parameter combination
    trips the bug.  The failing spec rides along as :attr:`task` (and
    its position in the submitted list as :attr:`index`); the original
    exception stays chained as ``__cause__``.
    """

    def __init__(self, task: Any, index: int, cause: BaseException):
        super().__init__(
            f"task {index} ({task!r}) failed: {type(cause).__name__}: {cause}"
        )
        self.task = task
        self.index = index


# -- deterministic seeds ----------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic, order-independent structure.

    Supports the value types task specs are built from: dataclasses,
    mappings, sequences, sets, and scalars.  Floats hash by their exact
    bit pattern (``float.hex``), so "close" values never collide.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            "dc",
            f"{type(obj).__module__}.{type(obj).__qualname__}",
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in fields(obj)
            ),
        )
    if isinstance(obj, dict):
        return (
            "map",
            tuple(
                sorted(
                    (repr(_canonical(k)), _canonical(v))
                    for k, v in obj.items()
                )
            ),
        )
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(item) for item in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(item)) for item in obj)))
    if isinstance(obj, float):
        return ("f", obj.hex())
    if isinstance(obj, bytes):
        return ("b", obj.hex())
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(
        f"cannot derive a seed from {type(obj).__name__!r}; task "
        "specs must be dataclasses, mappings, sequences, or scalars"
    )


def derive_seed(base_seed: int, *components: Any) -> int:
    """Derive a 63-bit per-task seed from a base seed and task identity.

    The same ``(base_seed, components)`` always yields the same seed, in
    any process, so experiments that want a distinct stream per point
    stay reproducible under any execution order.
    """
    material = repr((int(base_seed), _canonical(tuple(components))))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_map(
    tasks: Iterable[Any],
    fn: Callable[[Any], Any],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """Map ``fn`` over independent ``tasks`` and return results in order.

    Parameters
    ----------
    tasks:
        Picklable task specs, each carrying its own seed.
    fn:
        Module-level worker taking one task spec.  Must be picklable
        for ``jobs > 1``.
    jobs:
        Worker-process count; ``None`` means ``os.cpu_count()``.
        ``1`` runs everything in-process (no pool, no pickling).

    Parallel execution is bit-identical to serial because each task is
    self-contained and seeded by spec.  A raising worker surfaces as a
    :class:`TaskExecutionError` naming the task.
    """
    task_list = list(tasks)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    if jobs > 1 and len(task_list) > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(task_list)))
        mapper = pool.map
    else:
        pool, mapper = nullcontext(), map
    results: List[Any] = []
    with pool:
        computed = mapper(fn, task_list)
        for index, task in enumerate(task_list):
            try:
                results.append(next(computed))
            except Exception as exc:
                raise TaskExecutionError(task, index, exc) from exc
    return results


def map_traced(
    tasks: Iterable[Any],
    fn: Callable[[Any], Tuple[Any, List[FinishedTrace]]],
    jobs: Optional[int] = 1,
    trace_path: Optional[str] = None,
    traced: Any = None,
) -> List[Any]:
    """:func:`run_map` over points that can record spans; returns the points.

    Each task has a ``trace`` field (a :class:`TraceConfig`, or
    ``None`` for no recorder).  ``fn`` builds its cluster with it and
    returns ``(point, traces)``: the point and the cluster's sealed
    traces (empty when untraced).

    With ``trace_path`` set, ``traced`` (the sweep's chosen element of
    ``tasks``) records with the default :class:`TraceConfig`, and so
    does every task built with a ``trace`` of its own.  The traced
    points' spans are written to ``trace_path``
    (:func:`~repro.obs.export.write_trace_file`): one point's in its
    recorder's order, several merged by start time.
    """
    task_list = list(tasks)
    if trace_path is not None and traced is not None:
        index = task_list.index(traced)
        task_list[index] = replace(traced, trace=TraceConfig())
    outs = run_map(task_list, fn, jobs=jobs)
    if trace_path is not None:
        sources = [
            traces
            for task, (_, traces) in zip(task_list, outs)
            if task.trace is not None
        ]
        write_trace_file(
            sources[0] if len(sources) == 1 else merge_traces(sources),
            trace_path,
        )
    return [point for point, _ in outs]
