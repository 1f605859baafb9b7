"""The Fig. 1 worker-OS development history as composable changes.

Each :class:`BootOptimization` captures one change from the paper's
development narrative (Sec. IV-A) and knows how to transform a
:class:`~repro.bootos.stages.BootSequence`.  Effects are per-platform:
e.g. U-Boot falcon mode only exists on the ARM SBC, while its x86
counterpart is a switch to minimal QEMU firmware; the PHY-reset patch is
vendor-specific to the SBC's Ethernet driver and does not apply to
virtio.

Applying the full :data:`DEVELOPMENT_HISTORY` to the baselines lands on
the paper's final boot times: 1.51 s real on ARM and 0.96 s on x86.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.bootos.stages import BootSequence, StageName


@dataclass(frozen=True)
class StageEffect:
    """How one optimization changes one stage on one platform.

    Exactly one of ``set_real_s`` / ``scale_real`` must be given.
    ``set_cpu_fraction`` optionally retunes the CPU fraction (e.g. static
    IP configuration is CPU work where DHCP was mostly waiting).
    """

    set_real_s: Optional[float] = None
    scale_real: Optional[float] = None
    set_cpu_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.set_real_s is None) == (self.scale_real is None):
            raise ValueError("give exactly one of set_real_s / scale_real")

    def apply(self, sequence: BootSequence, stage: StageName) -> BootSequence:
        if self.scale_real is not None:
            sequence = sequence.scaled_stage(stage, self.scale_real)
        else:
            sequence = sequence.with_stage(stage, real_s=self.set_real_s)
        if self.set_cpu_fraction is not None:
            sequence = sequence.with_stage(
                stage, cpu_fraction=self.set_cpu_fraction
            )
        return sequence


@dataclass(frozen=True)
class BootOptimization:
    """One change from the Fig. 1 development history."""

    letter: str
    name: str
    description: str
    #: platform -> stage -> effect; platforms absent are unaffected.
    effects: Mapping[str, Mapping[StageName, StageEffect]]

    def applies_to(self, platform: str) -> bool:
        return platform in self.effects

    def apply(self, sequence: BootSequence) -> BootSequence:
        """Apply this change to ``sequence`` (no-op on other platforms)."""
        for stage, effect in self.effects.get(sequence.platform, {}).items():
            sequence = effect.apply(sequence, stage)
        return sequence


def _both(stage_effects: Dict[StageName, StageEffect]) -> Dict[str, Dict]:
    return {"arm": dict(stage_effects), "x86": dict(stage_effects)}


#: The paper's development history, letters matching Fig. 1.
DEVELOPMENT_HISTORY: Tuple[BootOptimization, ...] = (
    BootOptimization(
        letter="A",
        name="kernel-version-update",
        description="Update to a newer LTS kernel with faster init paths.",
        effects=_both({StageName.KERNEL_INIT: StageEffect(scale_real=0.85)}),
    ),
    BootOptimization(
        letter="B",
        name="minimal-kernel-config",
        description=(
            "Compile in only the features and drivers the two target "
            "platforms need."
        ),
        effects={
            "arm": {
                StageName.KERNEL_INIT: StageEffect(set_real_s=0.70),
                StageName.DRIVER_INIT: StageEffect(set_real_s=0.32),
            },
            "x86": {
                StageName.KERNEL_INIT: StageEffect(set_real_s=0.50),
                StageName.DRIVER_INIT: StageEffect(set_real_s=0.20),
            },
        },
    ),
    BootOptimization(
        letter="C",
        name="micropython-initramfs",
        description=(
            "Replace the distro userspace with an initramfs holding only "
            "MicroPython and a stripped-down BusyBox."
        ),
        effects={
            "arm": {StageName.USERSPACE_INIT: StageEffect(set_real_s=0.20)},
            "x86": {StageName.USERSPACE_INIT: StageEffect(set_real_s=0.16)},
        },
    ),
    BootOptimization(
        letter="D",
        name="initramfs-as-root",
        description=(
            "Use the initramfs as the sole root filesystem; no block-device "
            "root to mount, and every boot starts from a clean RAM copy."
        ),
        effects={
            "arm": {StageName.ROOTFS_MOUNT: StageEffect(set_real_s=0.05)},
            "x86": {StageName.ROOTFS_MOUNT: StageEffect(set_real_s=0.04)},
        },
    ),
    BootOptimization(
        letter="E",
        name="uboot-falcon-mode",
        description=(
            "Compile U-Boot in falcon mode (SPL jumps straight to the "
            "kernel); the x86 microVM equivalent is minimal qboot firmware."
        ),
        effects={
            "arm": {StageName.BOOTLOADER: StageEffect(set_real_s=0.17)},
            "x86": {StageName.BOOTLOADER: StageEffect(set_real_s=0.04)},
        },
    ),
    BootOptimization(
        letter="F",
        name="skip-autonegotiation",
        description=(
            "Patch the NIC driver to skip the Ethernet auto-negotiation "
            "handshake (link parameters are fixed by the ToR switch)."
        ),
        effects={
            "arm": {StageName.NIC_AUTONEG: StageEffect(set_real_s=0.02)},
            # virtio-net never had an autonegotiation delay.
        },
    ),
    BootOptimization(
        letter="G",
        name="no-phy-reset",
        description=(
            "Vendor-specific patch: avoid unnecessarily resetting the "
            "SBC's Ethernet PHY hardware during driver init."
        ),
        effects={
            "arm": {StageName.PHY_RESET: StageEffect(set_real_s=0.02)},
        },
    ),
    BootOptimization(
        letter="H",
        name="static-ipv4",
        description="Drop DHCP; each worker owns a static IPv4 address.",
        effects={
            "arm": {
                StageName.NETWORK_CONFIG: StageEffect(
                    set_real_s=0.10, set_cpu_fraction=0.8
                )
            },
            "x86": {
                StageName.NETWORK_CONFIG: StageEffect(
                    set_real_s=0.07, set_cpu_fraction=0.8
                )
            },
        },
    ),
    BootOptimization(
        letter="I",
        name="ip-on-kernel-cmdline",
        description=(
            "Configure networking from the kernel command line during "
            "early boot instead of from userspace."
        ),
        effects={
            "arm": {StageName.NETWORK_CONFIG: StageEffect(set_real_s=0.03)},
            "x86": {StageName.NETWORK_CONFIG: StageEffect(set_real_s=0.02)},
        },
    ),
)


def apply_all(
    sequence: BootSequence,
    optimizations: Iterable[BootOptimization],
) -> BootSequence:
    """Apply ``optimizations`` to ``sequence`` in order."""
    for optimization in optimizations:
        sequence = optimization.apply(sequence)
    return sequence


__all__ = [
    "BootOptimization",
    "DEVELOPMENT_HISTORY",
    "StageEffect",
    "apply_all",
]
