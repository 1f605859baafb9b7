"""SLO-driven fleet sizing.

Answers the operator's question: *how many boards do I need so that
mean end-to-end latency stays under X seconds at arrival rate λ?* —
using the analytic queue model, with simulation validation available in
the tests.  Because each MicroFaaS invocation pays the 1.51 s boot, the
floor on achievable latency is the mean service time itself (~3 s);
SLOs below that are rejected as infeasible.
"""

from __future__ import annotations

from repro.analysis.queueing import ClusterQueueModel


def size_for_slo(
    arrival_rate_per_s: float,
    slo_latency_s: float,
    policy: str = "least-loaded",
    max_workers: int = 2000,
    jitter_sigma: float = 0.06,
) -> int:
    """Smallest worker count meeting a mean-latency SLO at a given load.

    Raises
    ------
    ValueError
        If the SLO is below the service-time floor, or no fleet up to
        ``max_workers`` meets it.
    """
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if slo_latency_s <= 0:
        raise ValueError("SLO must be positive")
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    floor = ClusterQueueModel(workers=1, jitter_sigma=jitter_sigma).moments[0]
    if slo_latency_s <= floor:
        raise ValueError(
            f"SLO {slo_latency_s:.2f} s is below the service floor "
            f"{floor:.2f} s (every invocation pays the 1.51 s clean boot)"
        )
    for workers in range(1, max_workers + 1):
        model = ClusterQueueModel(workers=workers, jitter_sigma=jitter_sigma)
        if model.utilization(arrival_rate_per_s) >= 0.999:
            continue  # unstable: need more workers
        if model.mean_latency_s(arrival_rate_per_s, policy) <= slo_latency_s:
            return workers
    raise ValueError(
        f"no fleet up to {max_workers} workers meets {slo_latency_s:.2f} s "
        f"at {arrival_rate_per_s:.2f} jobs/s under {policy}"
    )


__all__ = ["size_for_slo"]
