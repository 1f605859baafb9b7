"""Energy-efficiency analysis: the Fig. 4 peak search and the analytic
per-function energy model.  Measured J/function lives on the results
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


def per_function_energy_j(
    boot_s: float = 1.51,
    power_boot_w: float = 1.90,
    power_cpu_w: float = 2.20,
    power_io_w: float = 1.20,
) -> "dict[str, float]":
    """Analytic per-function MicroFaaS energy from the calibrated profiles.

    Splits each invocation into boot, CPU, and I/O phases at the SBC's
    per-state draws (overhead transfer time is I/O).  The mix-weighted
    mean of the result is the published 5.7 J/function; individual
    functions range from ~3 J (MQProduce) to ~11 J (MatMul).
    """
    from repro.workloads.base import ALL_FUNCTION_NAMES
    from repro.workloads.profiles import PROFILES

    session_s, goodput = 28e-3, 90e6
    energies = {}
    for name in ALL_FUNCTION_NAMES:
        profile = PROFILES[name]
        payload = profile.input_bytes + profile.output_bytes
        overhead_s = session_s + payload * 8 / goodput
        cpu_s = profile.work_arm_s * profile.cpu_fraction_arm
        io_s = profile.work_arm_s - cpu_s + overhead_s
        energies[name] = (
            boot_s * power_boot_w + cpu_s * power_cpu_w + io_s * power_io_w
        )
    return energies


__all__ = [
    "peak_efficiency",
    "per_function_energy_j",
]
