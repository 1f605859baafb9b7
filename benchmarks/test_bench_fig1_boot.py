"""Benchmark: regenerate Fig. 1 (worker-OS boot-time trajectory)."""

import pytest

from benchmarks.conftest import emit
from repro.bootos import optimized_sequence
from repro.experiments import fig1_boot


def test_bench_fig1_boot_trajectory(benchmark):
    result = benchmark(fig1_boot.run)
    emit(fig1_boot.render(result))
    assert result.final_real_s["arm"] == pytest.approx(1.51, abs=0.005)
    assert result.final_real_s["x86"] == pytest.approx(0.96, abs=0.005)
    # Every change helps on ARM: the trajectory is monotone.
    reals = [p.real_s for p in result.trajectories["arm"]]
    assert reals == sorted(reals, reverse=True)


def test_bench_fig1_reboot_claim(benchmark):
    """Sec. III-a: SBC reboots in < 2 s (vs >= 55 s rack server)."""
    reboot = benchmark(lambda: optimized_sequence("arm").real_s)
    assert reboot < 2.0
