"""Unit tests for the worker-OS image builder."""

import pytest

from repro.bootos.image import (
    BUSYBOX_STRIPPED,
    CPYTHON,
    GLIBC,
    MICROPYTHON,
    WORKER_AGENT,
    ImageBuildError,
    InitramfsComponent,
    InitramfsManifest,
    KernelConfig,
    build_worker_image,
    default_initramfs,
    default_kernel_config,
)
from repro.hardware import BEAGLEBONE_BLACK


def test_default_arm_image_builds():
    image = build_worker_image("arm")
    assert image.platform == "arm"
    assert image.falcon_mode
    assert image.total_size_bytes > 0


def test_default_x86_image_builds_without_falcon():
    image = build_worker_image("x86")
    assert not image.falcon_mode


def test_unknown_platform_rejected():
    with pytest.raises(ImageBuildError):
        build_worker_image("riscv")


def test_falcon_mode_is_arm_only():
    with pytest.raises(ImageBuildError):
        build_worker_image("x86", falcon_mode=True)


def test_kernel_must_include_platform_nic_driver():
    x86_kernel = default_kernel_config("x86")
    with pytest.raises(ImageBuildError, match="NIC driver"):
        build_worker_image("arm", kernel=x86_kernel)


def test_kernel_config_requires_core():
    with pytest.raises(ImageBuildError):
        KernelConfig(features=frozenset({"ext4"}))


def test_kernel_config_rejects_unknown_features():
    with pytest.raises(ImageBuildError):
        KernelConfig(features=frozenset({"core", "quantum-networking"}))


def test_minimal_kernel_is_much_smaller_than_kitchen_sink():
    minimal = default_kernel_config("arm")
    bloated = KernelConfig(
        features=frozenset(
            {
                "core",
                "emmc",
                "ethernet-cpsw",
                "ipv4-static",
                "dhcp-client",
                "ext4",
                "usb",
                "sound",
                "graphics",
                "wireless",
                "debug-symbols",
            }
        )
    )
    assert bloated.binary_size_bytes > 3 * minimal.binary_size_bytes


def test_initramfs_requires_interpreter_init_and_agent():
    no_agent = InitramfsManifest(components=(MICROPYTHON, BUSYBOX_STRIPPED))
    with pytest.raises(ImageBuildError, match="agent"):
        build_worker_image("arm", initramfs=no_agent)


def test_initramfs_duplicate_components_rejected():
    with pytest.raises(ImageBuildError):
        InitramfsManifest(components=(MICROPYTHON, MICROPYTHON))


def test_initramfs_component_size_validation():
    with pytest.raises(ImageBuildError):
        InitramfsComponent("bad", -1)


def test_micropython_is_dramatically_smaller_than_cpython():
    """The paper picks MicroPython for a reason."""
    assert CPYTHON.size_bytes / MICROPYTHON.size_bytes > 40


def test_default_image_fits_beaglebone():
    image = build_worker_image("arm")
    assert image.total_size_bytes <= BEAGLEBONE_BLACK.storage_bytes
    # At most a quarter of RAM, leaving the rest for the MicroPython heap
    # and network buffers.
    assert image.total_size_bytes <= BEAGLEBONE_BLACK.ram_bytes // 4


def test_cpython_glibc_image_is_an_order_of_magnitude_bigger():
    fat = InitramfsManifest(components=(CPYTHON, GLIBC, BUSYBOX_STRIPPED, WORKER_AGENT))
    image = build_worker_image("arm", initramfs=fat)
    default = build_worker_image("arm")
    assert image.total_size_bytes > 9 * default.total_size_bytes
    # Both still fit the board, but the fat image wastes the RAM the
    # MicroPython heap needs.
    assert image.total_size_bytes <= BEAGLEBONE_BLACK.ram_bytes // 4


def test_image_hash_is_reproducible():
    a = build_worker_image("arm")
    b = build_worker_image("arm")
    assert a.content_hash == b.content_hash


def test_image_hash_changes_with_configuration():
    a = build_worker_image("arm")
    b = build_worker_image("arm", static_ip="10.0.0.101")
    c = build_worker_image("arm", falcon_mode=False)
    assert a.content_hash != b.content_hash
    assert a.content_hash != c.content_hash


def test_cmdline_carries_static_ip():
    image = build_worker_image("arm", static_ip="10.0.0.42")
    assert "ip=10.0.0.42" in image.kernel_cmdline
    assert "root=/dev/ram0" in image.kernel_cmdline


def test_default_initramfs_contents():
    manifest = default_initramfs()
    names = {c.name for c in manifest.components}
    assert names == {"micropython", "busybox-stripped", "worker-agent"}
