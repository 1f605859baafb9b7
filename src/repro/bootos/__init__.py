"""Worker operating-system boot model.

The paper's worker OS is a Linux-From-Scratch-style distribution whose
development history (Fig. 1) is a series of changes — kernel update,
minimal kernel config, MicroPython initramfs, initramfs-as-root, U-Boot
falcon mode, skipping Ethernet autonegotiation, avoiding PHY resets, and
static-IP kernel command lines — each shaving boot time until the OS
boots in 1.51 s on the ARM SBC and 0.96 s on the x86 microVM.

This package models:

- :mod:`repro.bootos.stages` — the boot pipeline as named stages with
  real (wall) durations and CPU-busy fractions.
- :mod:`repro.bootos.optimizations` — each Fig. 1 change as a composable
  transformation of the pipeline.
- :mod:`repro.bootos.image` — the OS image artifact (kernel config,
  initramfs manifest, reproducibility hash).
- :mod:`repro.bootos.timeline` — the Fig. 1 development trajectory.
"""

from repro.bootos.image import (
    InitramfsComponent,
    InitramfsManifest,
    KernelConfig,
    WorkerOsImage,
    build_worker_image,
)
from repro.bootos.optimizations import (
    DEVELOPMENT_HISTORY,
    BootOptimization,
    apply_all,
)
from repro.bootos.stages import (
    BootSequence,
    BootStage,
    StageName,
    baseline_sequence,
    optimized_sequence,
)
from repro.bootos.timeline import (
    FINAL_ARM_CPU_S,
    FINAL_ARM_REAL_S,
    FINAL_X86_CPU_S,
    FINAL_X86_REAL_S,
    development_trajectory,
)

__all__ = [
    "BootOptimization",
    "BootSequence",
    "BootStage",
    "DEVELOPMENT_HISTORY",
    "FINAL_ARM_CPU_S",
    "FINAL_ARM_REAL_S",
    "FINAL_X86_CPU_S",
    "FINAL_X86_REAL_S",
    "InitramfsComponent",
    "InitramfsManifest",
    "KernelConfig",
    "StageName",
    "WorkerOsImage",
    "apply_all",
    "baseline_sequence",
    "build_worker_image",
    "development_trajectory",
    "optimized_sequence",
]
