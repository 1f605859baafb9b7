"""Synthetic invocation arrival traces.

The paper drives its clusters with a fixed arrival process (jobs to
random queues every second).  Real FaaS platforms see Poisson-ish
arrivals with diurnal swings and bursts; this module generates such
traces so the clusters can be studied under realistic load (and so the
energy-proportionality advantage at low utilization becomes visible in
end-to-end runs).

All generators are deterministic given a :class:`RandomStreams` and
return a time-sorted :class:`ColumnarTrace` — a numpy time array plus a
function-index array, ~16 bytes per arrival — replayable against either
cluster via :func:`repro.cluster.replay.replay_trace`.  The one lazy
form, :class:`ChunkedPoissonTrace`, holds only its parameters and
generates a Poisson trace chunk by chunk during replay; both yield
``(time_s, function)`` pairs through ``iter_pairs``.

Sampling is pre-batched: gaps are drawn in chunks through
:meth:`RandomStreams.expovariate_batch` and accumulated with
``np.cumsum`` seeded by the running offset, which performs the same
left-to-right float additions as the scalar ``t += gap`` loop — so for
a given seed, batched traces are **bit-identical** to the pre-batching
scalar generators, and a :class:`ChunkedPoissonTrace` yields the same
times and functions as :func:`poisson_trace`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES

#: Gap draws per sampling chunk.  Big enough to amortize per-batch
#: overhead, small enough that over-drawing past the trace end is cheap.
_CHUNK = 8192


@dataclass(frozen=True)
class FunctionMix:
    """A weighted mix of function names to draw invocations from."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("empty function mix")
        bad = {f: w for f, w in self.weights.items() if w <= 0}
        if bad:
            raise ValueError(f"non-positive weights: {bad}")

    @classmethod
    def uniform(
        cls, functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES)
    ) -> "FunctionMix":
        return cls(weights={name: 1.0 for name in functions})

    @cached_property
    def names(self) -> Tuple[str, ...]:
        """Mix members in draw order (sorted for seed stability)."""
        return tuple(sorted(self.weights))

    @cached_property
    def _cumulative(self) -> List[float]:
        """Running weight sums in ``names`` order (the draw thresholds)."""
        thresholds: List[float] = []
        accumulated = 0.0
        for name in self.names:
            accumulated += self.weights[name]
            thresholds.append(accumulated)
        return thresholds

    @cached_property
    def _cumulative_array(self) -> np.ndarray:
        return np.asarray(self._cumulative)

    def sample(self, streams: RandomStreams, name: str = "mix") -> str:
        """One weighted draw."""
        total = self._cumulative[-1]
        point = streams.uniform(name, 0.0, total)
        index = bisect_left(self._cumulative, point)
        if index >= len(self.names):  # float slack past the last threshold
            index = len(self.names) - 1
        return self.names[index]

    def sample_indices(
        self, streams: RandomStreams, n: int, name: str = "mix"
    ) -> np.ndarray:
        """``n`` weighted draws as indices into :attr:`names`.

        Vectorized (one ``searchsorted`` over the cumulative thresholds)
        and bit-identical to ``n`` scalar :meth:`sample` calls: the same
        uniforms map through the same thresholds.
        """
        total = self._cumulative[-1]
        points = streams.uniform_batch(name, 0.0, total, n)
        indices = np.searchsorted(self._cumulative_array, points, side="left")
        return np.minimum(indices, len(self.names) - 1)


@dataclass(frozen=True)
class ColumnarTrace:
    """A time-sorted invocation trace in columnar form.

    ``times[i]`` pairs with ``functions[function_ids[i]]``.  Sixteen
    bytes per event regardless of trace length; replay goes through the
    same ``iter_pairs`` interface as :class:`ChunkedPoissonTrace`.
    """

    times: np.ndarray
    function_ids: np.ndarray
    functions: Tuple[str, ...]
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if len(self.times) != len(self.function_ids):
            raise ValueError("times and function_ids length mismatch")
        if len(self.times):
            if float(self.times[0]) < 0:
                raise ValueError("negative arrival time")
            if np.any(np.diff(self.times) < 0):
                raise ValueError("trace events out of order")
            if float(self.times[-1]) > self.duration_s:
                raise ValueError("event beyond trace duration")
            low, high = int(self.function_ids.min()), int(self.function_ids.max())
            if low < 0 or high >= len(self.functions):
                raise ValueError("function id out of range")

    def __len__(self) -> int:
        return len(self.times)

    def iter_pairs(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(time_s, function)`` in arrival order."""
        functions = self.functions
        times = self.times
        ids = self.function_ids
        for i in range(len(times)):
            yield float(times[i]), functions[ids[i]]


@dataclass(frozen=True)
class ChunkedPoissonTrace:
    """A Poisson trace generated lazily, chunk by chunk, during replay.

    Holds only its parameters — (rate, duration, seed, mix, stripe) —
    instead of materialized arrays, so a 10⁸-arrival megatrace costs a
    few hundred bytes of resident memory instead of ~1.6 GB.  The trace
    is **bit-identical** to ``poisson_trace(rate, duration,
    streams=RandomStreams(seed))``: gap and mix draws come from the same
    independent named streams ("poisson" / "mix"), and both read their
    arrival times from the one chunk sampler, :func:`_poisson_chunks`.

    Because arrivals are counted only as they stream past, the trace has
    no ``__len__``; replay detects emptiness from the iterator itself.
    """

    rate_per_s: float
    duration_s: float
    seed: int
    mix: Optional[FunctionMix] = None
    stripe_index: int = 0
    stripe_count: int = 1

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        if self.stripe_count < 1:
            raise ValueError("stripe count must be >= 1")
        if not 0 <= self.stripe_index < self.stripe_count:
            raise ValueError("stripe index out of range")

    def stripe(self, index: int, count: int) -> "ChunkedPoissonTrace":
        """The ``index``-th of ``count`` round-robin stripes.

        Takes events ``index, index + count, index + 2*count, ...`` —
        still time-sorted, same duration, and the stripes partition the
        trace exactly (every event lands in one stripe).  This is how a
        partitioned deployment splits traffic across independent
        orchestrators: round-robin keeps each stripe's arrival process
        statistically identical to a 1/``count``-thinned original.
        Striping an already-striped trace is not supported.
        """
        if self.stripe_count != 1:
            raise ValueError("cannot re-stripe a striped chunked trace")
        return ChunkedPoissonTrace(
            rate_per_s=self.rate_per_s,
            duration_s=self.duration_s,
            seed=self.seed,
            mix=self.mix,
            stripe_index=index,
            stripe_count=count,
        )

    def iter_pairs(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(time_s, function)`` in arrival order, generating each
        chunk of arrivals on demand and discarding it once replayed."""
        streams = RandomStreams(self.seed)
        mix = self.mix if self.mix is not None else FunctionMix.uniform()
        names = mix.names
        stride = self.stripe_count
        # Global index of the next event, modulo the stripe pattern.
        offset = self.stripe_index
        for chunk in _poisson_chunks(
            streams, "poisson", self.rate_per_s, self.duration_s
        ):
            ids = mix.sample_indices(streams, len(chunk))
            if stride == 1:
                for i in range(len(chunk)):
                    yield float(chunk[i]), names[ids[i]]
            else:
                for i in range(offset, len(chunk), stride):
                    yield float(chunk[i]), names[ids[i]]
                offset = (offset - len(chunk)) % stride


Trace = Union[ColumnarTrace, ChunkedPoissonTrace]


def _poisson_chunks(
    streams: RandomStreams, name: str, rate: float, limit: float
) -> Iterator[np.ndarray]:
    """Arrival times of a homogeneous Poisson process on ``(0, limit]``,
    one chunk of at most :data:`_CHUNK` times at a time.

    Each chunk's running sum is seeded with the previous chunk's last
    time as the cumsum's first element, so the additions happen in the
    exact order of the scalar ``t += expovariate()`` loop and the times
    are bit-identical to it.
    """
    t = 0.0
    while True:
        gaps = streams.expovariate_batch(name, rate, _CHUNK)
        cumulative = np.cumsum([t] + gaps)
        cut = int(np.searchsorted(cumulative, limit, side="right"))
        if cut < len(cumulative):
            yield cumulative[1:cut]
            return
        yield cumulative[1:]
        t = float(cumulative[-1])


def _accumulate_gaps(
    streams: RandomStreams, name: str, rate: float, limit: float
) -> List[float]:
    """Every time :func:`_poisson_chunks` yields, as one list."""
    times: List[float] = []
    for chunk in _poisson_chunks(streams, name, rate, limit):
        times.extend(chunk.tolist())
    return times


def _assemble(
    times: Sequence[float],
    mix: FunctionMix,
    streams: RandomStreams,
    duration_s: float,
) -> ColumnarTrace:
    """Draw one function per arrival and pack the columnar trace."""
    return ColumnarTrace(
        times=np.asarray(times),
        function_ids=mix.sample_indices(streams, len(times)),
        functions=mix.names,
        duration_s=duration_s,
    )


def poisson_trace(
    rate_per_s: float,
    duration_s: float,
    mix: Optional[FunctionMix] = None,
    streams: Optional[RandomStreams] = None,
    columnar: bool = True,  # ignored; simbench/workloads.py still passes it
) -> ColumnarTrace:
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps)."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    mix = mix if mix is not None else FunctionMix.uniform()
    streams = streams if streams is not None else RandomStreams(0)
    times = _accumulate_gaps(streams, "poisson", rate_per_s, duration_s)
    return _assemble(times, mix, streams, duration_s)


def diurnal_trace(
    trough_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    duration_s: float,
    mix: Optional[FunctionMix] = None,
    streams: Optional[RandomStreams] = None,
) -> ColumnarTrace:
    """Non-homogeneous Poisson with a sinusoidal day/night rate.

    Generated by thinning: candidates at the peak rate are kept with
    probability ``rate(t)/peak``.  The candidate and thinning draws come
    from separate named streams, so batching one never perturbs the
    other.
    """
    if not 0 < trough_rate_per_s <= peak_rate_per_s:
        raise ValueError("need 0 < trough <= peak rate")
    if period_s <= 0 or duration_s <= 0:
        raise ValueError("period and duration must be positive")
    mix = mix if mix is not None else FunctionMix.uniform()
    streams = streams if streams is not None else RandomStreams(0)
    mid = (peak_rate_per_s + trough_rate_per_s) / 2
    amplitude = (peak_rate_per_s - trough_rate_per_s) / 2
    candidates = _accumulate_gaps(
        streams, "diurnal", peak_rate_per_s, duration_s
    )
    keep = streams.uniform_batch("thin", 0.0, 1.0, len(candidates))
    sin = math.sin
    two_pi = 2 * math.pi
    # Keep the rate expression exactly as the scalar loop evaluated it
    # ((2*pi)*t)/period — reassociating would move results by an ulp.
    times = [
        t
        for t, u in zip(candidates, keep)
        if u <= (mid + amplitude * sin(two_pi * t / period_s)) / peak_rate_per_s
    ]
    return _assemble(times, mix, streams, duration_s)


def bursty_trace(
    idle_rate_per_s: float,
    burst_rate_per_s: float,
    mean_burst_s: float,
    mean_idle_s: float,
    duration_s: float,
    mix: Optional[FunctionMix] = None,
    streams: Optional[RandomStreams] = None,
) -> ColumnarTrace:
    """On/off (interrupted Poisson) arrivals: quiet spells punctuated by
    bursts — the short-lived, bursty nature Sec. II attributes to
    serverless functions.

    The gap rate depends on the phase the previous arrival landed in, so
    this one keeps the scalar state machine; only the per-draw stream
    lookups are hoisted.
    """
    if not 0 < idle_rate_per_s <= burst_rate_per_s:
        raise ValueError("need 0 < idle rate <= burst rate")
    if mean_burst_s <= 0 or mean_idle_s <= 0 or duration_s <= 0:
        raise ValueError("durations must be positive")
    mix = mix if mix is not None else FunctionMix.uniform()
    streams = streams if streams is not None else RandomStreams(0)
    arrivals_random = streams.stream("arrivals").random
    phase_random = streams.stream("phase").random
    log = math.log
    times: List[float] = []
    t = 0.0
    bursting = False
    # Phase lengths are drawn as expovariate(1/mean) — keep the division
    # by the reciprocal rate (not "* mean"): same floats as before.
    phase_end = -log(1.0 - phase_random()) / (1.0 / mean_idle_s)
    while t < duration_s:
        rate = burst_rate_per_s if bursting else idle_rate_per_s
        t += -log(1.0 - arrivals_random()) / rate
        while t > phase_end and phase_end < duration_s:
            bursting = not bursting
            mean = mean_burst_s if bursting else mean_idle_s
            phase_end += -log(1.0 - phase_random()) / (1.0 / mean)
        if t <= duration_s:
            times.append(t)
    return _assemble(times, mix, streams, duration_s)


__all__ = [
    "ChunkedPoissonTrace",
    "ColumnarTrace",
    "FunctionMix",
    "Trace",
    "bursty_trace",
    "diurnal_trace",
    "poisson_trace",
]
