"""Unit tests for boot stages and the Fig. 1 optimization history."""

import pytest

from repro.bootos import (
    DEVELOPMENT_HISTORY,
    BootSequence,
    BootStage,
    StageName,
    apply_all,
    baseline_sequence,
    optimized_sequence,
)
from repro.bootos.optimizations import StageEffect
from repro.bootos.timeline import FINAL_ARM_REAL_S, FINAL_X86_REAL_S


def test_stage_validation():
    with pytest.raises(ValueError):
        BootStage(StageName.BOOTLOADER, -1.0, 0.5)
    with pytest.raises(ValueError):
        BootStage(StageName.BOOTLOADER, 1.0, 1.5)


def test_stage_cpu_seconds():
    stage = BootStage(StageName.KERNEL_INIT, 2.0, 0.5)
    assert stage.cpu_s == pytest.approx(1.0)


def test_sequence_totals_sum_stages():
    seq = baseline_sequence("arm")
    assert seq.real_s == pytest.approx(sum(s.real_s for s in seq))
    assert seq.cpu_s == pytest.approx(sum(s.cpu_s for s in seq))


def test_sequence_rejects_unknown_platform():
    with pytest.raises(ValueError):
        BootSequence("mips", [])
    with pytest.raises(ValueError):
        baseline_sequence("sparc")


def test_sequence_rejects_out_of_order_stages():
    with pytest.raises(ValueError):
        BootSequence(
            "arm",
            [
                BootStage(StageName.KERNEL_INIT, 1.0, 0.5),
                BootStage(StageName.BOOTLOADER, 1.0, 0.5),
            ],
        )


def test_sequence_with_stage_returns_modified_copy():
    seq = baseline_sequence("arm")
    modified = seq.with_stage(StageName.BOOTLOADER, real_s=0.1)
    assert modified.stage(StageName.BOOTLOADER).real_s == 0.1
    assert seq.stage(StageName.BOOTLOADER).real_s != 0.1


def test_sequence_scaled_stage():
    seq = baseline_sequence("arm")
    scaled = seq.scaled_stage(StageName.KERNEL_INIT, 0.5)
    assert scaled.stage(StageName.KERNEL_INIT).real_s == pytest.approx(
        seq.stage(StageName.KERNEL_INIT).real_s * 0.5
    )
    with pytest.raises(ValueError):
        seq.scaled_stage(StageName.KERNEL_INIT, -1.0)


def test_arm_baseline_is_slow():
    """A stock distro on the SBC takes 10+ seconds to boot."""
    assert baseline_sequence("arm").real_s > 10.0


def test_x86_baseline_has_no_phy_delays():
    seq = baseline_sequence("x86")
    assert seq.stage(StageName.NIC_AUTONEG).real_s == 0.0
    assert seq.stage(StageName.PHY_RESET).real_s == 0.0


def test_optimized_arm_matches_published_boot_time():
    """Sec. IV-A: the worker OS boots in 1.51 s on ARM."""
    assert optimized_sequence("arm").real_s == pytest.approx(
        FINAL_ARM_REAL_S, abs=0.005
    )


def test_optimized_x86_matches_published_boot_time():
    """Sec. IV-A: the worker OS boots in 0.96 s on x86."""
    assert optimized_sequence("x86").real_s == pytest.approx(
        FINAL_X86_REAL_S, abs=0.005
    )


def test_cpu_time_never_exceeds_real_time():
    for platform in ("arm", "x86"):
        for seq in (baseline_sequence(platform), optimized_sequence(platform)):
            assert seq.cpu_s <= seq.real_s


def test_each_optimization_is_monotone_improvement():
    """Every Fig. 1 change reduces (or keeps) the real boot time."""
    for platform in ("arm", "x86"):
        seq = baseline_sequence(platform)
        for opt in DEVELOPMENT_HISTORY:
            improved = opt.apply(seq)
            assert improved.real_s <= seq.real_s + 1e-12, opt.name
            seq = improved


def test_history_has_nine_changes_lettered_a_to_i():
    letters = [opt.letter for opt in DEVELOPMENT_HISTORY]
    assert letters == list("ABCDEFGHI")


def test_phy_patch_is_arm_only():
    """Change G is a vendor-specific SBC patch (Sec. IV-A)."""
    opt_g = next(o for o in DEVELOPMENT_HISTORY if o.letter == "G")
    assert "arm" in opt_g.effects
    assert "x86" not in opt_g.effects
    x86 = baseline_sequence("x86")
    assert opt_g.apply(x86).real_s == x86.real_s


def test_autoneg_skip_eliminates_the_wait():
    opt_f = next(o for o in DEVELOPMENT_HISTORY if o.letter == "F")
    arm = baseline_sequence("arm")
    patched = opt_f.apply(arm)
    assert patched.stage(StageName.NIC_AUTONEG).real_s <= 0.02
    # Autonegotiation alone was costing ~2.5 s.
    assert arm.real_s - patched.real_s > 2.0


def test_apply_all_equals_sequential_application():
    seq = baseline_sequence("arm")
    manual = seq
    for opt in DEVELOPMENT_HISTORY:
        manual = opt.apply(manual)
    combined = apply_all(seq, DEVELOPMENT_HISTORY)
    assert combined.real_s == pytest.approx(manual.real_s)
    assert combined.cpu_s == pytest.approx(manual.cpu_s)


def test_stage_effect_validation():
    with pytest.raises(ValueError):
        StageEffect()  # neither set nor scale
    with pytest.raises(ValueError):
        StageEffect(set_real_s=1.0, scale_real=0.5)  # both
