"""Unit tests for boot timelines and the Fig. 1 trajectory."""

import pytest

from repro.bootos import development_trajectory, optimized_sequence
from repro.bootos.stages import baseline_sequence


def reboot_time_s(platform):
    """A clean-state reboot runs the optimized boot sequence."""
    return optimized_sequence(platform).real_s


def test_timeline_cpu_never_exceeds_duration():
    for stage in baseline_sequence("arm"):
        assert stage.cpu_s <= stage.real_s + 1e-12


def test_trajectory_starts_at_baseline_and_ends_optimized():
    for platform in ("arm", "x86"):
        points = development_trajectory(platform)
        assert points[0].label == "baseline"
        assert points[-1].label == "I"
        assert points[-1].real_s == pytest.approx(
            optimized_sequence(platform).real_s
        )


def test_trajectory_is_monotone_nonincreasing():
    for platform in ("arm", "x86"):
        reals = [p.real_s for p in development_trajectory(platform)]
        assert all(b <= a + 1e-12 for a, b in zip(reals, reals[1:]))


def test_trajectory_total_improvement_is_large():
    """The history takes ARM boot from >10 s down to 1.51 s."""
    points = development_trajectory("arm")
    assert points[0].real_s / points[-1].real_s > 7.0


def test_trajectory_has_one_point_per_change_plus_baseline():
    assert len(development_trajectory("arm")) == 10


def test_sbc_reboot_under_two_seconds():
    """Sec. III-a: SBCs can be rebooted in less than 2 seconds."""
    assert reboot_time_s("arm") < 2.0


def test_x86_worker_reboot_under_one_second():
    assert reboot_time_s("x86") < 1.0


def test_rack_server_reboot_is_orders_slower_than_sbc():
    """Sec. III-a: rack servers take 55+ s to reboot; SBCs < 2 s."""
    from repro.hardware import THINKMATE_RAX

    assert THINKMATE_RAX.reboot_s / reboot_time_s("arm") > 25.0
