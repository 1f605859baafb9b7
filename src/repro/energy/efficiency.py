"""Energy-efficiency analysis: the Fig. 4 peak search.  Measured
J/function lives on the results
(:attr:`repro.cluster.result.ClusterResult.joules_per_function`)."""

from __future__ import annotations

from typing import Sequence, Tuple


def peak_efficiency(
    points: Sequence[Tuple[int, float]],
) -> Tuple[int, float]:
    """Best (lowest J/function) point of a VM sweep.

    ``points`` are ``(vm_count, joules_per_function)`` pairs; returns the
    pair at the sweep's efficiency peak (the paper finds 16.1 J/func
    once the host saturates).
    """
    if not points:
        raise ValueError("empty sweep")
    for vm_count, jpf in points:
        if vm_count < 1 or jpf <= 0:
            raise ValueError(f"invalid sweep point ({vm_count}, {jpf})")
    return min(points, key=lambda p: p[1])


__all__ = ["peak_efficiency"]
