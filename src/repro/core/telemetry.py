"""Telemetry: per-invocation records and aggregate metrics.

Workers report one :class:`InvocationRecord` per completed job, carrying
the phase breakdown the paper plots: boot time, *Working* time (function
body incl. backend waits), and *Overhead* (input/result transfer plus
session).  The collector computes the aggregates Sec. V reports —
throughput in func/min, per-function means, and the working/overhead
split of Fig. 3.

Two collection modes share one API:

- **exact** (the default, and the original behaviour): every record is
  retained, percentiles are computed from fully sorted data, and memory
  grows O(N) with completed jobs.  Small runs — everything up to the
  10-SBC testbed experiments — use this.
- **streaming** (``TelemetryCollector(exact=False)``): records are *not*
  retained.  The collector maintains per-function running accumulators
  (count and sum for working, overhead and runtime), the running
  first start and last completion that bound the measurement window,
  and a log-bucketed :class:`QuantileSketch` per latency metric for
  p95/p99.  Memory is O(1) per completed job, which is what lets the
  megatrace experiment replay millions of invocations.

Means are **bit-identical** between the modes: both accumulate the same
left-to-right float additions (``sum(list)`` and a running ``total +=``
perform the same IEEE operations in the same order).  Quantiles in
streaming mode carry the sketch's documented relative-error bound
(:attr:`QuantileSketch.relative_error_bound`) instead of being exact.

Sorting discipline: every exact-mode percentile routes through one
internal sorting site with a per-metric cache, so an aggregate pass over
a frozen collector sorts each series exactly once no matter how many
percentiles are requested (see :data:`SORT_COUNT`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Module-level counter of full sorts performed by exact-mode percentile
#: paths.  Tests use it to assert the sort-once discipline; it carries no
#: semantic meaning.
SORT_COUNT = 0


@dataclass(frozen=True)
class InvocationRecord:
    """Phase breakdown of one completed invocation."""

    job_id: int
    function: str
    worker_id: int
    platform: str  # "arm" or "x86"
    t_queued: float
    t_started: float
    t_completed: float
    boot_s: float
    working_s: float
    overhead_s: float

    def __post_init__(self) -> None:
        if self.t_completed < self.t_started:
            raise ValueError("completion before start")
        for name in ("boot_s", "working_s", "overhead_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}")

    @property
    def runtime_s(self) -> float:
        """Fig. 3 runtime: working plus overhead (boot excluded)."""
        return self.working_s + self.overhead_s

    @property
    def cycle_s(self) -> float:
        """Full worker occupancy: boot + working + overhead."""
        return self.boot_s + self.working_s + self.overhead_s

    @property
    def queue_wait_s(self) -> float:
        return self.t_started - self.t_queued


def _sorted_once(values: Sequence[float]) -> List[float]:
    """The single sorting site for exact percentile paths."""
    global SORT_COUNT
    SORT_COUNT += 1
    return sorted(values)


def _percentile_of_sorted(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not ordered:
        raise ValueError("no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def _percentile(values: Sequence[float], p: float) -> float:
    if not values:
        raise ValueError("no values")
    return _percentile_of_sorted(_sorted_once(values), p)


def _nearest_rank_of_sorted(ordered: Sequence[float], p: float) -> float:
    """Rounded-rank percentile (the fault study's historical convention)."""
    if not ordered:
        raise ValueError("no values")
    index = min(
        len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1))))
    )
    return ordered[index]


def percentiles(
    values: Sequence[float], ps: Sequence[float], method: str = "linear"
) -> List[float]:
    """Several percentiles of ``values`` with exactly one sort.

    The sort-once companion to :func:`_percentile` for callers (e.g. the
    fault study's tail metrics) that need one or more quantiles of the
    same series.  ``method`` is ``"linear"`` (interpolated, the
    collector's convention) or ``"nearest"`` (rounded rank).
    """
    if not values:
        raise ValueError("no values")
    if method == "linear":
        pick = _percentile_of_sorted
    elif method == "nearest":
        pick = _nearest_rank_of_sorted
    else:
        raise ValueError(f"unknown percentile method {method!r}")
    ordered = _sorted_once(values)
    return [pick(ordered, p) for p in ps]


class QuantileSketch:
    """Log-bucketed streaming quantile estimator with a hard error bound.

    Values are hashed into geometric buckets ``[gamma^i, gamma^(i+1))``;
    a quantile query walks the cumulative bucket counts to the target
    rank and returns the geometric midpoint of the bucket holding it.
    The returned estimate ``q`` therefore satisfies

        q / sqrt(gamma)  <=  true nearest-rank quantile  <=  q * sqrt(gamma)

    i.e. a relative error of at most ``sqrt(gamma) - 1`` (~1 % at the
    default ``gamma = 1.02``).  Memory is bounded by the number of
    occupied buckets, itself bounded by the dynamic range: values are
    clamped into ``[min_value, max_value]``, giving at most
    ``log(max/min)/log(gamma)`` buckets (~1,400 at the defaults) no
    matter how many samples are added.

    This is the DDSketch/HDR-histogram family rather than P²: unlike P²
    it answers *any* quantile after the fact and its error bound is a
    provable invariant, which is what the property tests pin down.
    """

    __slots__ = ("gamma", "min_value", "max_value", "_log_gamma",
                 "_buckets", "_zero_count", "count")

    def __init__(
        self,
        gamma: float = 1.02,
        min_value: float = 1e-6,
        max_value: float = 1e6,
    ):
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        if not 0 < min_value < max_value:
            raise ValueError("need 0 < min_value < max_value")
        self.gamma = gamma
        self.min_value = min_value
        self.max_value = max_value
        self._log_gamma = math.log(gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative error for values inside the clamp range."""
        return math.sqrt(self.gamma) - 1.0

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the sketch's whole memory footprint."""
        return len(self._buckets)

    def add(self, value: float) -> None:
        """Record one sample (non-positive values count as zero)."""
        self.count += 1
        if value <= self.min_value:
            # Zeros and sub-resolution values share one underflow bucket;
            # they are reported as ``min_value`` by quantile queries.
            self._zero_count += 1
            return
        clamped = min(value, self.max_value)
        # floor, not int(): truncation-toward-zero would shift sub-1
        # values (negative logs) one bucket up and break the bound.
        index = math.floor(math.log(clamped) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, p: float) -> float:
        """Nearest-rank p-th percentile estimate (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise ValueError("no values")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        if rank <= self._zero_count:
            return self.min_value
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return math.exp((index + 0.5) * self._log_gamma)
        # Float slack on the last bucket: return its midpoint.
        index = max(self._buckets)
        return math.exp((index + 0.5) * self._log_gamma)

    def fraction_at_or_below(self, threshold: float) -> float:
        """Estimated CDF at ``threshold`` (error: one bucket's width)."""
        if self.count == 0:
            raise ValueError("no values")
        if threshold <= self.min_value:
            return self._zero_count / self.count
        boundary = math.floor(math.log(min(threshold, self.max_value))
                              / self._log_gamma)
        below = self._zero_count + sum(
            count for index, count in self._buckets.items()
            if index <= boundary
        )
        return below / self.count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch of identical geometry into this one."""
        if (other.gamma, other.min_value, other.max_value) != (
            self.gamma, self.min_value, self.max_value
        ):
            raise ValueError("cannot merge sketches of differing geometry")
        self.count += other.count
        self._zero_count += other._zero_count
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count


class _RunningStat:
    """Count and sum of one metric stream.

    The running ``total`` performs the same left-to-right additions as
    ``sum()`` over the equivalent list, so means computed here are
    bit-identical to the exact-mode list path.
    """

    __slots__ = ("count", "total")

    def __init__(self):
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no values")
        return self.total / self.count

    def merge(self, other: "_RunningStat") -> None:
        """Fold another stat's count and sum into this one."""
        self.count += other.count
        self.total += other.total


class _FunctionAccumulator:
    """Streaming per-function aggregates (one Fig. 3 bar group)."""

    __slots__ = ("working", "overhead", "runtime", "runtime_sketch")

    def __init__(self, gamma: float):
        self.working = _RunningStat()
        self.overhead = _RunningStat()
        self.runtime = _RunningStat()
        self.runtime_sketch = QuantileSketch(gamma=gamma)

    def add(self, record: InvocationRecord) -> None:
        runtime = record.runtime_s
        self.working.add(record.working_s)
        self.overhead.add(record.overhead_s)
        self.runtime.add(runtime)
        self.runtime_sketch.add(runtime)

    def merge(self, other: "_FunctionAccumulator") -> None:
        self.working.merge(other.working)
        self.overhead.merge(other.overhead)
        self.runtime.merge(other.runtime)
        self.runtime_sketch.merge(other.runtime_sketch)


@dataclass(frozen=True)
class FunctionStats:
    """Aggregates for one function (one group of Fig. 3 bars)."""

    function: str
    count: int
    mean_working_s: float
    mean_overhead_s: float
    mean_runtime_s: float
    p95_runtime_s: float


class TelemetryCollector:
    """Accumulates invocation records and computes Sec. V aggregates.

    Parameters
    ----------
    exact:
        ``True`` (default) retains every record and computes exact
        percentiles; ``False`` runs in streaming mode with O(1) memory
        per completed job (see the module docstring for the contract).
    sketch_gamma:
        Bucket growth factor of the streaming quantile sketches.
    """

    def __init__(
        self,
        exact: bool = True,
        sketch_gamma: float = 1.02,
    ):
        self.exact = exact
        self.sketch_gamma = sketch_gamma
        self.records: List[InvocationRecord] = []
        # Running aggregates are maintained in *both* modes: they make
        # first_start/last_completion/mean_* O(1) in exact mode too, and
        # they are what the streaming==exact property tests compare.
        self._functions: Dict[str, _FunctionAccumulator] = {}
        # Per-platform latency sketches: heterogeneous (SBC + microVM)
        # clusters report latency and counts per worker platform.
        self._platforms: Dict[str, QuantileSketch] = {}
        self._cycle = _RunningStat()
        self._queue_wait = _RunningStat()
        self._latency = _RunningStat()
        self._queue_wait_sketch = QuantileSketch(gamma=sketch_gamma)
        self._latency_sketch = QuantileSketch(gamma=sketch_gamma)
        self._count = 0
        self._first_start = math.inf
        self._last_completion = -math.inf
        # Exact-mode sorted-series cache: metric key -> (version, sorted
        # values).  Invalidated by version bump on record(); guarantees
        # one sort per metric per aggregate pass.
        self._sorted_cache: Dict[str, Tuple[int, List[float]]] = {}
        self._version = 0

    def record(self, record: InvocationRecord) -> None:
        self._count += 1
        self._version += 1
        if record.t_started < self._first_start:
            self._first_start = record.t_started
        if record.t_completed > self._last_completion:
            self._last_completion = record.t_completed
        accumulator = self._functions.get(record.function)
        if accumulator is None:
            accumulator = _FunctionAccumulator(self.sketch_gamma)
            self._functions[record.function] = accumulator
        accumulator.add(record)
        self._cycle.add(record.cycle_s)
        queue_wait = record.queue_wait_s
        latency = record.t_completed - record.t_queued
        self._queue_wait.add(queue_wait)
        self._latency.add(latency)
        self._queue_wait_sketch.add(queue_wait)
        self._latency_sketch.add(latency)
        platform_sketch = self._platforms.get(record.platform)
        if platform_sketch is None:
            platform_sketch = QuantileSketch(gamma=self.sketch_gamma)
            self._platforms[record.platform] = platform_sketch
        platform_sketch.add(latency)
        if self.exact:
            self.records.append(record)

    @property
    def count(self) -> int:
        return self._count

    @property
    def functions_seen(self) -> List[str]:
        return sorted(self._functions)

    def merge(self, other: "TelemetryCollector") -> None:
        """Fold another collector's state into this one.

        The shard-combining primitive for ``run_map``-style parallel
        experiments: each shard collects independently, then the
        results merge without replaying records.

        Mode rules:

        - exact ← exact: record lists concatenate, so every exact-mode
          query (percentiles, windowed throughput) stays exact.
        - streaming ← anything: running sums and sketches add
          (sketch bucket counts are integers, so merged quantiles are
          identical to single-pass streaming); the other side's
          retained records are not kept.
        - exact ← streaming: raises — the streaming side's records are
          gone, so the merged collector could not honour its exactness
          contract.

        Means merge exactly (sums and counts add); the *sequence* of
        additions differs from single-collector order, so merged means
        agree with a replay to float-addition noise, not bit-for-bit.
        Sketch geometries must match (``sketch_gamma``).
        """
        if self.exact and not other.exact:
            raise RuntimeError(
                "cannot merge a streaming collector into an exact one: "
                "its per-record data was never retained"
            )
        if other._count == 0:
            return
        for name, accumulator in other._functions.items():
            mine = self._functions.get(name)
            if mine is None:
                mine = _FunctionAccumulator(self.sketch_gamma)
                self._functions[name] = mine
            mine.merge(accumulator)
        for name, platform_sketch in other._platforms.items():
            mine_platform = self._platforms.get(name)
            if mine_platform is None:
                mine_platform = QuantileSketch(gamma=self.sketch_gamma)
                self._platforms[name] = mine_platform
            mine_platform.merge(platform_sketch)
        self._cycle.merge(other._cycle)
        self._queue_wait.merge(other._queue_wait)
        self._latency.merge(other._latency)
        self._queue_wait_sketch.merge(other._queue_wait_sketch)
        self._latency_sketch.merge(other._latency_sketch)
        self._count += other._count
        if other._first_start < self._first_start:
            self._first_start = other._first_start
        if other._last_completion > self._last_completion:
            self._last_completion = other._last_completion
        self._version += 1
        if self.exact:
            self.records.extend(other.records)

    def _require_records(self) -> None:
        if self._count == 0:
            raise ValueError("no records")

    def _require_exact(self, what: str) -> None:
        if not self.exact:
            raise RuntimeError(
                f"{what} needs per-record data; this collector runs in "
                "streaming mode (construct with exact=True for small runs)"
            )

    def _sorted_series(self, key: str, values_fn) -> List[float]:
        """Sorted copy of one exact-mode series, cached per version."""
        cached = self._sorted_cache.get(key)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        ordered = _sorted_once(values_fn())
        self._sorted_cache[key] = (self._version, ordered)
        return ordered

    # -- measurement window ---------------------------------------------------

    def first_start(self) -> float:
        """Earliest service start (running minimum — no scan)."""
        self._require_records()
        return self._first_start

    def last_completion(self) -> float:
        """Latest completion (running maximum — no scan)."""
        self._require_records()
        return self._last_completion

    def throughput_per_min(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> float:
        """Completed functions per minute over the measured window.

        With default bounds this is O(1) in both modes: every record
        completes inside ``[first_start, last_completion]`` by
        construction.  Explicit sub-windows need the per-record
        completion times and are exact-mode only.
        """
        self._require_records()
        full_window = start is None and end is None
        start = self._first_start if start is None else start
        end = self._last_completion if end is None else end
        window = end - start
        if window <= 0:
            raise ValueError("empty measurement window")
        if full_window:
            completed = self._count
        else:
            self._require_exact("windowed throughput")
            completed = sum(
                1 for r in self.records if start <= r.t_completed <= end
            )
        return completed * 60.0 / window

    # -- per-function aggregates ----------------------------------------------

    def function_stats(self, function: str) -> FunctionStats:
        """Per-function aggregate (one Fig. 3 bar group)."""
        accumulator = self._functions.get(function)
        if accumulator is None:
            raise KeyError(f"no records for function {function!r}")
        if self.exact:
            ordered = self._sorted_series(
                f"runtime:{function}",
                lambda: [
                    r.runtime_s for r in self.records
                    if r.function == function
                ],
            )
            p95 = _percentile_of_sorted(ordered, 95)
        else:
            p95 = accumulator.runtime_sketch.quantile(95)
        return FunctionStats(
            function=function,
            count=accumulator.runtime.count,
            mean_working_s=accumulator.working.mean,
            mean_overhead_s=accumulator.overhead.mean,
            mean_runtime_s=accumulator.runtime.mean,
            p95_runtime_s=p95,
        )

    def all_function_stats(self) -> Dict[str, FunctionStats]:
        """Stats for every function seen."""
        return {
            name: self.function_stats(name)
            for name in sorted(self._functions)
        }

    # -- per-platform aggregates ----------------------------------------------

    @property
    def platforms_seen(self) -> List[str]:
        """Worker platforms that completed at least one job."""
        return sorted(self._platforms)

    def _platform_sketch(self, platform: str) -> QuantileSketch:
        sketch = self._platforms.get(platform)
        if sketch is None:
            raise KeyError(
                f"no records for platform {platform!r}; "
                f"seen: {sorted(self._platforms)}"
            )
        return sketch

    def platform_count(self, platform: str) -> int:
        """Completed jobs attributed to one worker platform."""
        return self._platform_sketch(platform).count

    def platform_percentile_latency_s(self, platform: str, p: float) -> float:
        """Latency percentile on one platform (exact or sketch)."""
        sketch = self._platform_sketch(platform)
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.exact:
            ordered = self._sorted_series(
                f"latency:platform:{platform}",
                lambda: [
                    r.t_completed - r.t_queued
                    for r in self.records
                    if r.platform == platform
                ],
            )
            return _percentile_of_sorted(ordered, p)
        return sketch.quantile(p)

    # -- cluster-level aggregates ---------------------------------------------

    def mean_cycle_s(self) -> float:
        """Mean full worker occupancy per job."""
        self._require_records()
        return self._cycle.mean

    def mean_queue_wait_s(self) -> float:
        self._require_records()
        return self._queue_wait.mean

    def percentile_queue_wait_s(self, p: float) -> float:
        self._require_records()
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.exact:
            ordered = self._sorted_series(
                "queue_wait", lambda: [r.queue_wait_s for r in self.records]
            )
            return _percentile_of_sorted(ordered, p)
        return self._queue_wait_sketch.quantile(p)

    def mean_latency_s(self) -> float:
        """Mean submission-to-completion latency."""
        self._require_records()
        return self._latency.mean

    def percentile_latency_s(self, p: float) -> float:
        """End-to-end latency percentile (exact or sketch-estimated)."""
        self._require_records()
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.exact:
            ordered = self._sorted_series(
                "latency",
                lambda: [r.t_completed - r.t_queued for r in self.records],
            )
            return _percentile_of_sorted(ordered, p)
        return self._latency_sketch.quantile(p)

    def end_to_end_latencies_s(self) -> List[float]:
        """Per-job submission-to-completion latencies (exact mode)."""
        self._require_exact("per-job latency series")
        return [r.t_completed - r.t_queued for r in self.records]

    def slo_attainment(self, threshold_s: float) -> float:
        """Fraction of jobs completing within ``threshold_s`` of
        submission (the latency-SLO view of a trace replay).

        Streaming mode answers from the latency sketch; the estimate is
        off by at most the mass of the one bucket straddling the
        threshold.
        """
        if threshold_s <= 0:
            raise ValueError("threshold must be positive")
        self._require_records()
        if self.exact:
            latencies = self.end_to_end_latencies_s()
            return sum(1 for l in latencies if l <= threshold_s) / len(
                latencies
            )
        return self._latency_sketch.fraction_at_or_below(threshold_s)


#: Public alias: the running count/sum/min/max accumulator is useful
#: beyond this module's internals (the federation gateway keeps one per
#: client geo for perceived-latency stats).
RunningStat = _RunningStat


__all__ = [
    "FunctionStats",
    "InvocationRecord",
    "QuantileSketch",
    "RunningStat",
    "SORT_COUNT",
    "TelemetryCollector",
    "percentiles",
]
