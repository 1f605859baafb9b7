"""Tests for the workload registry, metadata, and calibrated profiles."""

import random

import pytest

from repro.workloads import (
    ALL_FUNCTION_NAMES,
    CPU_BOUND,
    NETWORK_BOUND,
    PROFILES,
    ServiceBundle,
    get_function,
    profile_for,
    registry,
)

#: Published aggregate targets (Sec. V).
MEAN_ARM_CYCLE_S = 10 * 60 / 200.6
MEAN_X86_CYCLE_S = 6 * 60 / 211.7
BOOT_ARM_S, BOOT_X86_S = 1.51, 0.96


def test_registry_has_all_seventeen_table1_functions():
    assert len(ALL_FUNCTION_NAMES) == 17
    assert set(registry()) == set(ALL_FUNCTION_NAMES)


def test_table1_category_split_is_9_cpu_8_network():
    functions = registry().values()
    cpu = [f for f in functions if f.category == CPU_BOUND]
    network = [f for f in functions if f.category == NETWORK_BOUND]
    assert len(cpu) == 9
    assert len(network) == 8


def test_six_functions_adapted_from_functionbench():
    """Table I stars six functions as FunctionBench adaptations."""
    starred = [f.name for f in registry().values() if f.from_functionbench]
    assert sorted(starred) == [
        "AES128", "COSGet", "COSPut", "Decompress", "FloatOps", "MatMul",
    ]


def test_every_function_has_description():
    for function in registry().values():
        assert function.description


def test_get_function_unknown_name():
    with pytest.raises(KeyError):
        get_function("Bitcoin")


def test_every_function_has_a_profile():
    assert set(PROFILES) == set(ALL_FUNCTION_NAMES)


def test_profile_lookup():
    assert profile_for("CascSHA").name == "CascSHA"
    with pytest.raises(KeyError):
        profile_for("Ghost")


def test_profile_categories_match_function_categories():
    for name, function in registry().items():
        profile = profile_for(name)
        network_bound = profile.service_op is not None
        assert network_bound == (function.category == NETWORK_BOUND)


def test_profile_platform_accessors():
    profile = profile_for("MatMul")
    assert profile.work_s("arm") == profile.work_arm_s
    assert profile.work_s("x86") == profile.work_x86_s
    assert profile.cpu_fraction("arm") == profile.cpu_fraction_arm
    with pytest.raises(ValueError):
        profile.work_s("sparc")
    with pytest.raises(ValueError):
        profile.cpu_fraction("sparc")


def test_generate_input_is_deterministic_per_seed():
    bundle = ServiceBundle()
    for name in ALL_FUNCTION_NAMES:
        function = get_function(name)
        a = function.generate_input(random.Random(5), scale=0.1)
        b = function.generate_input(random.Random(5), scale=0.1)
        assert a == b, name


# ---------------------------------------------------------------------------
# Calibration invariants — these pin the paper's aggregate numbers.
# ---------------------------------------------------------------------------


def _overhead_s(profile, platform):
    """Match the simulation's invocation-overhead model."""
    if platform == "arm":
        session, goodput, rtt = 28e-3, 90e6, 2 * (120e-6 + 60e-6 + 20e-6)
    else:
        session, goodput, rtt = 16e-3, 940e6, 2 * (280e-6 + 60e-6 + 20e-6)
    payload = profile.input_bytes + profile.output_bytes
    return session + payload * 8 / goodput + rtt


def test_mean_arm_cycle_matches_published_throughput():
    """10 SBCs at 200.6 func/min => mean cycle 2.991 s."""
    cycles = [
        BOOT_ARM_S + p.work_arm_s + _overhead_s(p, "arm")
        for p in PROFILES.values()
    ]
    assert sum(cycles) / len(cycles) == pytest.approx(MEAN_ARM_CYCLE_S, rel=1e-3)


def test_mean_x86_cycle_matches_published_throughput():
    """6 VMs at 211.7 func/min => mean cycle 1.7006 s."""
    cycles = [
        BOOT_X86_S + p.work_x86_s + _overhead_s(p, "x86")
        for p in PROFILES.values()
    ]
    assert sum(cycles) / len(cycles) == pytest.approx(MEAN_X86_CYCLE_S, rel=1e-3)


def test_mean_x86_cpu_per_cycle_matches_power_calibration():
    """Mean vCPU busy time per cycle = 1.287 s (the 112.9 W / 32 J point)."""
    cpu_times = [
        0.758 + p.work_x86_s * p.cpu_fraction_x86 for p in PROFILES.values()
    ]
    assert sum(cpu_times) / len(cpu_times) == pytest.approx(1.287, rel=1e-3)


def test_fig3_four_functions_faster_on_microfaas():
    """Sec. V: 'the MicroFaaS cluster executes four faster'."""
    faster = [
        name for name, p in PROFILES.items()
        if p.work_arm_s + _overhead_s(p, "arm")
        < p.work_x86_s + _overhead_s(p, "x86")
    ]
    assert len(faster) == 4
    assert set(faster) == {"RedisInsert", "RedisUpdate", "MQProduce", "MQConsume"}


def test_fig3_nine_functions_above_half_speed():
    """Sec. V: 'nine at more than half the speed' (of the 13 slower ones)."""
    above_half = [
        name for name, p in PROFILES.items()
        if 1.0
        <= (p.work_arm_s + _overhead_s(p, "arm"))
        / (p.work_x86_s + _overhead_s(p, "x86"))
        <= 2.0
    ]
    assert len(above_half) == 9


def test_fig3_crypto_and_bulk_transfer_are_the_slow_ones():
    """CascSHA (no crypto accelerator) and COSGet (Fast Ethernet + slow
    TCP) are among the worst MicroFaaS performers, as Sec. V discusses."""
    slower_than_half = {
        name for name, p in PROFILES.items()
        if (p.work_arm_s + _overhead_s(p, "arm"))
        / (p.work_x86_s + _overhead_s(p, "x86"))
        > 2.0
    }
    assert slower_than_half == {"CascSHA", "MatMul", "AES128", "COSGet"}


def test_microfaas_energy_per_function_is_calibrated():
    """Mean SBC energy per invocation = 5.7 J (Sec. V)."""
    p_boot, p_cpu, p_io = 1.90, 2.20, 1.20
    energies = []
    for profile in PROFILES.values():
        cpu_s = profile.work_arm_s * profile.cpu_fraction_arm
        io_s = profile.work_arm_s - cpu_s + _overhead_s(profile, "arm")
        energies.append(BOOT_ARM_S * p_boot + cpu_s * p_cpu + io_s * p_io)
    assert sum(energies) / len(energies) == pytest.approx(5.7, rel=1e-3)


def test_profile_validation():
    from repro.workloads.profiles import FunctionProfile

    with pytest.raises(ValueError):
        FunctionProfile("x", -1.0, 1.0, 0.5, 0.5, 10, 10)
    with pytest.raises(ValueError):
        FunctionProfile("x", 1.0, 1.0, 1.5, 0.5, 10, 10)
    with pytest.raises(ValueError):
        FunctionProfile("x", 1.0, 1.0, 0.5, 0.5, -1, 10)
