"""Worker-OS image artifacts: kernel config, initramfs, reproducibility.

The paper stresses that the worker OS is *reproducible*: the bootloader
loads a clean copy of the initramfs into RAM on every boot, so every
function execution starts from a bit-identical environment.  This module
models the image as a build artifact — a kernel configuration, an
initramfs manifest, and a deterministic content hash — and validates
that a build is actually bootable (init present, interpreter present,
the right NIC driver compiled in, image fits the SBC's flash).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple

#: Kernel features a worker image may enable, with rough binary-size cost.
KERNEL_FEATURE_SIZES: Mapping[str, int] = {
    "core": 2_400_000,
    "emmc": 120_000,
    "ethernet-cpsw": 90_000,  # the SBC's NIC driver
    "ethernet-virtio": 60_000,  # the microVM's NIC driver
    "ipv4-static": 40_000,
    "dhcp-client": 55_000,
    "initramfs-root": 30_000,
    "ext4": 350_000,
    "usb": 400_000,
    "sound": 700_000,
    "graphics": 1_500_000,
    "wireless": 900_000,
    "debug-symbols": 6_000_000,
}

#: NIC driver feature required on each platform.
PLATFORM_NIC_FEATURE = {"arm": "ethernet-cpsw", "x86": "ethernet-virtio"}


class ImageBuildError(ValueError):
    """Raised when an image configuration cannot produce a bootable OS."""


@dataclass(frozen=True)
class KernelConfig:
    """A kernel build configuration (set of enabled features)."""

    features: FrozenSet[str]
    version: str = "5.10"

    def __post_init__(self) -> None:
        unknown = self.features - set(KERNEL_FEATURE_SIZES)
        if unknown:
            raise ImageBuildError(f"unknown kernel features: {sorted(unknown)}")
        if "core" not in self.features:
            raise ImageBuildError("kernel config must include 'core'")

    @property
    def binary_size_bytes(self) -> int:
        return sum(KERNEL_FEATURE_SIZES[f] for f in self.features)

    def supports_platform(self, platform: str) -> bool:
        """Does this kernel have the platform's NIC driver compiled in?"""
        return PLATFORM_NIC_FEATURE[platform] in self.features


@dataclass(frozen=True)
class InitramfsComponent:
    """One file tree inside the initramfs."""

    name: str
    size_bytes: int
    provides: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ImageBuildError(f"negative component size: {self.size_bytes}")


#: Components available to the initramfs builder.
MICROPYTHON = InitramfsComponent(
    "micropython", 620_000, frozenset({"interpreter"})
)
BUSYBOX_STRIPPED = InitramfsComponent(
    "busybox-stripped", 380_000, frozenset({"init", "shell"})
)
BUSYBOX_FULL = InitramfsComponent(
    "busybox-full", 1_100_000, frozenset({"init", "shell", "extras"})
)
CPYTHON = InitramfsComponent("cpython", 28_000_000, frozenset({"interpreter"}))
WORKER_AGENT = InitramfsComponent(
    "worker-agent", 24_000, frozenset({"agent"})
)
GLIBC = InitramfsComponent("glibc", 8_000_000, frozenset({"libc"}))


@dataclass(frozen=True)
class InitramfsManifest:
    """The ordered contents of the initial ramdisk."""

    components: Tuple[InitramfsComponent, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            raise ImageBuildError(f"duplicate initramfs components: {names}")

    @property
    def size_bytes(self) -> int:
        return sum(c.size_bytes for c in self.components)

    @property
    def capabilities(self) -> FrozenSet[str]:
        caps: set[str] = set()
        for component in self.components:
            caps |= component.provides
        return frozenset(caps)

    def validate_bootable(self) -> None:
        """A worker initramfs needs an init and a function interpreter."""
        missing = {"init", "interpreter", "agent"} - self.capabilities
        if missing:
            raise ImageBuildError(
                f"initramfs not bootable; missing capabilities: {sorted(missing)}"
            )


@dataclass(frozen=True)
class WorkerOsImage:
    """A built, flashable worker-OS image."""

    platform: str
    kernel: KernelConfig
    initramfs: InitramfsManifest
    kernel_cmdline: str
    falcon_mode: bool
    content_hash: str

    @property
    def total_size_bytes(self) -> int:
        return self.kernel.binary_size_bytes + self.initramfs.size_bytes


def _image_hash(
    platform: str,
    kernel: KernelConfig,
    initramfs: InitramfsManifest,
    cmdline: str,
    falcon_mode: bool,
) -> str:
    hasher = hashlib.sha256()
    hasher.update(platform.encode())
    hasher.update(kernel.version.encode())
    for feature in sorted(kernel.features):
        hasher.update(feature.encode())
    for component in initramfs.components:
        hasher.update(component.name.encode())
        hasher.update(str(component.size_bytes).encode())
    hasher.update(cmdline.encode())
    hasher.update(b"falcon" if falcon_mode else b"normal")
    return hasher.hexdigest()


def default_kernel_config(platform: str) -> KernelConfig:
    """The paper's minimal kernel config for a platform (change B)."""
    features = {"core", "initramfs-root", "ipv4-static", PLATFORM_NIC_FEATURE[platform]}
    if platform == "arm":
        features.add("emmc")
    return KernelConfig(features=frozenset(features))


def default_initramfs() -> InitramfsManifest:
    """The paper's initramfs: MicroPython + stripped BusyBox + agent."""
    return InitramfsManifest(
        components=(MICROPYTHON, BUSYBOX_STRIPPED, WORKER_AGENT)
    )


def build_worker_image(
    platform: str,
    kernel: KernelConfig = None,
    initramfs: InitramfsManifest = None,
    static_ip: str = "10.0.0.100",
    falcon_mode: bool = None,
) -> WorkerOsImage:
    """Build and validate a worker-OS image for ``platform``.

    Raises
    ------
    ImageBuildError
        If the configuration cannot boot on the platform (missing NIC
        driver, no interpreter/init in the initramfs, ...).
    """
    if platform not in PLATFORM_NIC_FEATURE:
        raise ImageBuildError(f"unknown platform {platform!r}")
    kernel = default_kernel_config(platform) if kernel is None else kernel
    initramfs = default_initramfs() if initramfs is None else initramfs
    if falcon_mode is None:
        falcon_mode = platform == "arm"
    if falcon_mode and platform != "arm":
        raise ImageBuildError("falcon mode is a U-Boot (ARM) feature")
    if not kernel.supports_platform(platform):
        raise ImageBuildError(
            f"kernel lacks the {platform} NIC driver "
            f"({PLATFORM_NIC_FEATURE[platform]})"
        )
    initramfs.validate_bootable()
    cmdline = f"ip={static_ip}::10.0.0.1:255.255.255.0::eth0:off root=/dev/ram0"
    return WorkerOsImage(
        platform=platform,
        kernel=kernel,
        initramfs=initramfs,
        kernel_cmdline=cmdline,
        falcon_mode=falcon_mode,
        content_hash=_image_hash(platform, kernel, initramfs, cmdline, falcon_mode),
    )


__all__ = [
    "BUSYBOX_FULL",
    "BUSYBOX_STRIPPED",
    "CPYTHON",
    "GLIBC",
    "ImageBuildError",
    "InitramfsComponent",
    "InitramfsManifest",
    "KERNEL_FEATURE_SIZES",
    "KernelConfig",
    "MICROPYTHON",
    "WORKER_AGENT",
    "WorkerOsImage",
    "build_worker_image",
    "default_initramfs",
    "default_kernel_config",
]
