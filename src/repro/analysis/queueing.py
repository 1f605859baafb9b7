"""Queueing models of the MicroFaaS cluster.

A worker's *service time* for one invocation is its full occupancy:
boot (1.51 s) + working + overhead.  The mix over the 17 calibrated
functions gives the first two moments; per-invocation jitter adds its
lognormal second moment.

Two routing disciplines map to two classic models:

- **random sampling** (the paper's policy): each of ``c`` workers is an
  independent M/G/1 queue fed ``λ/c`` — waits follow
  Pollaczek-Khinchine and blow up early because busy boards keep
  receiving jobs while others sleep;
- **least-loaded** (≈ join-shortest-queue): close to a single M/G/c
  queue — Erlang C with the Allen-Cunneen second-moment correction.

Both are validated against full cluster simulations in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.profiles import PROFILES

#: Matches the simulation's ARM-side overhead model.
_SESSION_S = 28e-3
_GOODPUT_BPS = 90e6
_RTT_S = 2 * (120e-6 + 60e-6 + 20e-6)
_BOOT_S = 1.51


def service_moments(
    functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
    jitter_sigma: float = 0.06,
) -> Tuple[float, float]:
    """(E[S], E[S^2]) of one invocation's worker occupancy.

    Functions are drawn uniformly; jitter multiplies the work phase by a
    mean-one lognormal with ``E[J^2] = exp(sigma^2)``.
    """
    if not functions:
        raise ValueError("need at least one function")
    if jitter_sigma < 0:
        raise ValueError("jitter sigma cannot be negative")
    second_factor = math.exp(jitter_sigma**2)
    first = 0.0
    second = 0.0
    for name in functions:
        profile = PROFILES[name]
        payload = profile.input_bytes + profile.output_bytes
        overhead = _SESSION_S + payload * 8 / _GOODPUT_BPS + _RTT_S
        fixed = _BOOT_S + overhead
        work = profile.work_arm_s
        # S = fixed + work * J with E[J] = 1.
        mean = fixed + work
        mean_square = (
            fixed**2 + 2 * fixed * work + work**2 * second_factor
        )
        first += mean
        second += mean_square
    return first / len(functions), second / len(functions)


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C: P(an arrival waits) for M/M/c at offered load ``a``.

    ``offered_load`` is ``lambda * E[S]`` in erlangs; must be below
    ``servers`` for stability.
    """
    if servers < 1:
        raise ValueError("need at least one server")
    if offered_load < 0:
        raise ValueError("offered load cannot be negative")
    if offered_load >= servers:
        raise ValueError(
            f"unstable: offered load {offered_load:.3f} >= {servers} servers"
        )
    # Sum a^k/k! computed iteratively for numeric safety.
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered_load / k
        total += term
    term *= offered_load / servers
    tail = term * servers / (servers - offered_load)
    return tail / (total + tail)


@dataclass(frozen=True)
class ClusterQueueModel:
    """Analytic latency model of an N-worker MicroFaaS cluster."""

    workers: int
    functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES)
    jitter_sigma: float = 0.06

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")

    @property
    def moments(self) -> Tuple[float, float]:
        return service_moments(self.functions, self.jitter_sigma)

    def utilization(self, arrival_rate_per_s: float) -> float:
        """rho = lambda E[S] / c."""
        mean, _ = self.moments
        return arrival_rate_per_s * mean / self.workers

    def capacity_per_s(self) -> float:
        """Saturation throughput (rho = 1)."""
        mean, _ = self.moments
        return self.workers / mean

    def random_split_wait_s(self, arrival_rate_per_s: float) -> float:
        """Mean queue wait under the paper's random-sampling policy.

        Each worker is M/G/1 at ``lambda/c``; Pollaczek-Khinchine:
        ``Wq = lambda_i E[S^2] / (2 (1 - rho))``.
        """
        rho = self._check_stable(arrival_rate_per_s)
        mean, second = self.moments
        per_worker_rate = arrival_rate_per_s / self.workers
        return per_worker_rate * second / (2 * (1 - rho))

    def central_queue_wait_s(self, arrival_rate_per_s: float) -> float:
        """Mean queue wait under least-loaded routing (~ M/G/c).

        Allen-Cunneen: ``Wq(M/G/c) ~= Wq(M/M/c) * (1 + C_s^2) / 2``.
        """
        rho = self._check_stable(arrival_rate_per_s)
        mean, second = self.moments
        scv = (second - mean**2) / mean**2
        offered = arrival_rate_per_s * mean
        p_wait = erlang_c(self.workers, offered)
        mmc_wait = p_wait * mean / (self.workers * (1 - rho))
        return mmc_wait * (1 + scv) / 2

    def imbalance_tax(self, arrival_rate_per_s: float) -> float:
        """Random-sampling wait over least-loaded wait at this load."""
        central = self.central_queue_wait_s(arrival_rate_per_s)
        if central == 0:
            return float("inf")
        return self.random_split_wait_s(arrival_rate_per_s) / central

    def mean_latency_s(
        self, arrival_rate_per_s: float, policy: str = "least-loaded"
    ) -> float:
        """Mean end-to-end latency: queue wait plus service."""
        mean, _ = self.moments
        if policy == "least-loaded":
            wait = self.central_queue_wait_s(arrival_rate_per_s)
        elif policy == "random-sampling":
            wait = self.random_split_wait_s(arrival_rate_per_s)
        else:
            raise KeyError(f"no analytic model for policy {policy!r}")
        return wait + mean

    def _check_stable(self, arrival_rate_per_s: float) -> float:
        if arrival_rate_per_s < 0:
            raise ValueError("arrival rate cannot be negative")
        rho = self.utilization(arrival_rate_per_s)
        if rho >= 1.0:
            raise ValueError(
                f"unstable: utilization {rho:.3f} >= 1 "
                f"(capacity {self.capacity_per_s():.3f}/s)"
            )
        return rho


__all__ = ["ClusterQueueModel", "erlang_c", "service_moments"]
