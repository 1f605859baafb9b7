"""Energy-proportionality analysis (Fig. 5).

Fig. 5 plots average cluster power against the number of *active*
workers: the SBC cluster's line passes near the origin and rises
linearly (each active board adds ~1.96 W; sleeping boards draw 0.128 W),
while the VM host starts at a 60 W idle floor and rises concavely.  The
metrics here quantify that contrast: the idle intercept, a linearity
R-squared, and Barroso-Hölzle-style proportionality indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.specs import (
    BEAGLEBONE_BLACK,
    RackServerSpec,
    SbcSpec,
    THINKMATE_RAX,
)
from repro.hardware.power import UtilizationPowerModel
from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.profiles import PROFILES


@dataclass(frozen=True)
class ProportionalitySeries:
    """One Fig. 5 line: power vs. active worker count."""

    label: str
    worker_counts: Tuple[int, ...]
    watts: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.worker_counts) != len(self.watts):
            raise ValueError("mismatched series lengths")
        if any(w < 0 for w in self.watts):
            raise ValueError("negative power")

    @property
    def idle_watts(self) -> float:
        """Power at zero active workers (the Fig. 5 intercept)."""
        for count, watts in zip(self.worker_counts, self.watts):
            if count == 0:
                return watts
        raise ValueError("series has no zero-worker point")

    @property
    def peak_watts(self) -> float:
        return max(self.watts)


def _mean_busy_sbc_watts(spec: SbcSpec) -> float:
    """Average draw of one fully busy SBC over the 17-function mix."""
    boot_s = 1.51
    total_time = 0.0
    total_energy = 0.0
    for name in ALL_FUNCTION_NAMES:
        profile = PROFILES[name]
        cpu_s = profile.work_arm_s * profile.cpu_fraction_arm
        io_s = profile.work_arm_s - cpu_s
        time = boot_s + profile.work_arm_s
        energy = (
            boot_s * spec.power.boot
            + cpu_s * spec.power.cpu_busy
            + io_s * spec.power.io_wait
        )
        total_time += time
        total_energy += energy
    return total_energy / total_time


def sbc_cluster_power_series(
    cluster_size: int = 10,
    spec: SbcSpec = BEAGLEBONE_BLACK,
) -> ProportionalitySeries:
    """Fig. 5's SBC line: n boards busy, the rest powered down."""
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    busy = _mean_busy_sbc_watts(spec)
    counts = tuple(range(cluster_size + 1))
    watts = tuple(
        n * busy + (cluster_size - n) * spec.power.off for n in counts
    )
    return ProportionalitySeries(
        label=f"{cluster_size}x SBC (MicroFaaS)",
        worker_counts=counts,
        watts=watts,
    )


def vm_host_power_series(
    max_vms: int = 12,
    spec: RackServerSpec = THINKMATE_RAX,
) -> ProportionalitySeries:
    """Fig. 5's VM line: n active VMs on one rack server.

    Each active VM contributes its mean vCPU demand (the calibrated
    1.287 CPU-s per 1.70 s cycle); the host's concave curve maps the
    resulting utilization to watts.
    """
    if max_vms < 1:
        raise ValueError("max_vms must be >= 1")
    model = UtilizationPowerModel(
        spec.idle_watts, spec.loaded_watts, spec.power_exponent
    )
    per_vm_busy_cores = 1.287 / (6 * 60 / 211.7)  # mean vCPU occupancy
    counts = tuple(range(max_vms + 1))
    watts = tuple(
        model.watts(n * per_vm_busy_cores / spec.cpu.cores) for n in counts
    )
    return ProportionalitySeries(
        label=f"microVMs on {spec.name}",
        worker_counts=counts,
        watts=watts,
    )


def linearity_r_squared(series: ProportionalitySeries) -> float:
    """R-squared of a least-squares line through the series."""
    xs = series.worker_counts
    ys = series.watts
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x values")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def proportionality_index(series: ProportionalitySeries) -> float:
    """1 - idle/peak: 1.0 is perfectly energy-proportional.

    The MicroFaaS cluster scores ~0.99 (boards off draw almost nothing);
    a conventional host scores ~0.6 at best (60 W idle out of 150 W).
    """
    peak = series.peak_watts
    if peak == 0:
        raise ValueError("series never draws power")
    return 1.0 - series.idle_watts / peak


__all__ = [
    "ProportionalitySeries",
    "linearity_r_squared",
    "proportionality_index",
    "sbc_cluster_power_series",
    "vm_host_power_series",
]
