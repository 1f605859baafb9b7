"""Immutable hardware spec sheets for the evaluation platforms.

All numbers trace back to the paper:

- BeagleBone Black: Sec. IV-B (TI Sitara AM3358, 1 GHz single-core
  Cortex-A8, 512 MB DDR3, 4 GB eMMC, 10/100 Ethernet; $52.50 retail) and
  the appendix power assumptions (1.96 W loaded, 0.128 W powered-down).
- Thinkmate RAX evaluation host: Sec. V (12-core AMD Opteron 6172 at
  2.1 GHz, 16 GB RAM) with the appendix's 150 W loaded / 60 W idle draws.
- Dell PowerEdge R6515: the appendix's $2,011 "modern mid-range rack
  server" used for TCO.
- Cisco Catalyst 2960S-48LPS: the appendix's $500 refurbished 48-port ToR
  switch drawing 40.87 W.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuSpec:
    """A CPU spec sheet."""

    model: str
    architecture: str  # "arm" or "x86"
    cores: int
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if self.architecture not in ("arm", "x86"):
            raise ValueError(f"unknown architecture {self.architecture!r}")


@dataclass(frozen=True)
class NicSpec:
    """A network interface spec.

    ``autonegotiation_s`` is the time the standard Ethernet link
    auto-negotiation handshake takes on link-up; the paper's worker OS
    patches drivers to skip it (Fig. 1, change F).
    ``phy_reset_s`` is the avoidable PHY hardware reset (change G).
    """

    name: str
    bandwidth_bps: float
    autonegotiation_s: float = 2.5
    phy_reset_s: float = 0.6
    efficiency: float = 0.94  # achievable fraction of line rate (TCP goodput)

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def goodput_bps(self) -> float:
        """Achievable application-level throughput."""
        return self.bandwidth_bps * self.efficiency


@dataclass(frozen=True)
class SbcPowerDraw:
    """Per-state power draw of an SBC, in watts.

    ``off`` is residual standby draw when "fully powered down" (the
    appendix's 0.128 W P_ss-idle).  The working-state draws are calibrated
    so a fully busy worker averages the appendix's 1.96 W P_ss.
    """

    off: float
    boot: float
    idle: float
    cpu_busy: float
    io_wait: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"negative power for state {name!r}: {value}")


@dataclass(frozen=True)
class SbcSpec:
    """A single-board computer spec sheet."""

    name: str
    cpu: CpuSpec
    ram_bytes: int
    storage_bytes: int
    nic: NicSpec
    power: SbcPowerDraw
    unit_cost_usd: float
    #: CPU-performance scaling factor relative to one x86 vCPU of the
    #: evaluation host (<1 means slower).  Workload profiles are
    #: calibrated for the BeagleBone Black; other boards' work times
    #: scale by the ratio of relative speeds.
    relative_speed: float = 1.0
    #: Multiplier on the calibrated 1.51 s worker-OS boot (boards with
    #: heavier firmware boot slower despite the same OS).
    boot_time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.ram_bytes <= 0 or self.storage_bytes <= 0:
            raise ValueError("RAM and storage must be positive")
        if self.unit_cost_usd < 0:
            raise ValueError("cost cannot be negative")
        if self.relative_speed <= 0:
            raise ValueError("relative speed must be positive")
        if self.boot_time_scale <= 0:
            raise ValueError("boot time scale must be positive")


@dataclass(frozen=True)
class RackServerSpec:
    """A rack server spec sheet with a concave utilization→power curve.

    Conventional servers are famously *not* energy-proportional: power
    rises steeply at low utilization and flattens towards the loaded draw
    (Fan et al. 2007; Jiang et al. 2017).  We model instantaneous power as

        ``P(u) = idle + (loaded - idle) * u ** power_exponent``

    with ``u`` the CPU utilization in ``[0, 1]`` and ``power_exponent < 1``
    giving the concave shape.  The exponent is calibrated so that the
    six-VM operating point of the paper (211.7 func/min) draws the power
    implied by its measured 32.0 J/function.
    """

    name: str
    cpu: CpuSpec
    ram_bytes: int
    idle_watts: float
    loaded_watts: float
    power_exponent: float
    unit_cost_usd: float
    #: Time to reboot (the paper cites >= 55 s for bare-metal rack servers).
    reboot_s: float = 55.0
    #: RAM reserved for the host OS / hypervisor.
    host_reserved_bytes: int = 2 * 1024**3

    def __post_init__(self) -> None:
        if self.idle_watts < 0 or self.loaded_watts < self.idle_watts:
            raise ValueError("need 0 <= idle_watts <= loaded_watts")
        if not 0 < self.power_exponent <= 1:
            raise ValueError(
                f"power_exponent must be in (0, 1], got {self.power_exponent}"
            )

    def max_vm_count(self, vm_ram_bytes: int) -> int:
        """How many VMs of ``vm_ram_bytes`` fit in the host's free RAM."""
        if vm_ram_bytes <= 0:
            raise ValueError("vm_ram_bytes must be positive")
        return max(0, (self.ram_bytes - self.host_reserved_bytes) // vm_ram_bytes)


@dataclass(frozen=True)
class DvfsStep:
    """One frequency step of a platform's DVFS ladder.

    ``perf_scale`` multiplies CPU throughput (execute-phase CPU seconds
    stretch by ``1 / perf_scale``); ``power_scale`` multiplies the
    active-state (dynamic) power draw.  Because dynamic power falls
    roughly with the square of frequency/voltage, real ladders have
    ``power_scale < perf_scale``, which is what makes down-clocking a
    net energy win per function despite the longer service time.
    """

    frequency_hz: float
    perf_scale: float
    power_scale: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 0 < self.perf_scale <= 1:
            raise ValueError(
                f"perf_scale must be in (0, 1], got {self.perf_scale}"
            )
        if not 0 < self.power_scale <= 1:
            raise ValueError(
                f"power_scale must be in (0, 1], got {self.power_scale}"
            )


@dataclass(frozen=True)
class DvfsCurve:
    """A platform's watts/perf ladder, fastest step first.

    ``step_for_cap`` implements the governor decision: the fastest step
    whose scaled peak draw fits under a power cap.
    """

    steps: tuple

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a DVFS curve needs at least one step")
        freqs = [step.frequency_hz for step in self.steps]
        if freqs != sorted(freqs, reverse=True):
            raise ValueError("steps must be ordered fastest first")

    def step_for_cap(self, cap_watts: float, peak_watts: float) -> DvfsStep:
        """Fastest step whose scaled peak fits ``cap_watts``.

        Falls back to the slowest step when even that exceeds the cap —
        a governor can throttle, not halt.
        """
        if cap_watts <= 0:
            raise ValueError(f"cap must be positive, got {cap_watts}")
        for step in self.steps:
            if peak_watts * step.power_scale <= cap_watts + 1e-12:
                return step
        return self.steps[-1]


@dataclass(frozen=True)
class SwitchSpec:
    """A top-of-rack Ethernet switch spec sheet."""

    name: str
    ports: int
    watts: float
    unit_cost_usd: float
    port_bandwidth_bps: float = 1e9
    #: Store-and-forward latency per hop, seconds.
    forwarding_latency_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ValueError("switch needs at least one port")
        if self.watts < 0 or self.unit_cost_usd < 0:
            raise ValueError("watts and cost must be non-negative")


#: Fast Ethernet as found on the BeagleBone Black.  The Cortex-A8 cannot
#: quite sustain line rate in software (TCP checksumming competes with the
#: application), hence the conservative efficiency.
FAST_ETHERNET = NicSpec(
    name="10/100 Fast Ethernet",
    bandwidth_bps=100e6,
    autonegotiation_s=2.5,
    phy_reset_s=0.6,
    efficiency=0.90,
)

#: Gigabit Ethernet with virtio/bridge path as used by the microVMs.
GIGABIT_ETHERNET = NicSpec(
    name="Gigabit Ethernet",
    bandwidth_bps=1e9,
    autonegotiation_s=2.5,
    phy_reset_s=0.4,
    efficiency=0.94,
)

BEAGLEBONE_BLACK = SbcSpec(
    name="BeagleBone Black",
    cpu=CpuSpec(
        model="TI Sitara AM3358 (ARM Cortex-A8)",
        architecture="arm",
        cores=1,
        frequency_hz=1.0e9,
    ),
    ram_bytes=512 * 1024**2,
    storage_bytes=4 * 1024**3,
    nic=FAST_ETHERNET,
    power=SbcPowerDraw(
        off=0.128,  # appendix P_ss-idle
        boot=1.90,
        idle=1.05,
        cpu_busy=2.20,
        io_wait=1.20,
    ),
    unit_cost_usd=52.50,
    relative_speed=0.45,
)

#: A Raspberry-Pi-Compute-Module-class worker (Sec. III names it as the
#: other candidate SBC): faster quad-capable silicon run single-core for
#: the single-tenant model, at higher draw and heavier boot firmware.
RASPBERRY_PI_CM = SbcSpec(
    name="Raspberry Pi Compute Module 4 (1 core used)",
    cpu=CpuSpec(
        model="BCM2711 (ARM Cortex-A72)",
        architecture="arm",
        cores=1,
        frequency_hz=1.5e9,
    ),
    ram_bytes=1024 * 1024**2,
    storage_bytes=8 * 1024**3,
    nic=GIGABIT_ETHERNET,
    power=SbcPowerDraw(
        off=0.20,
        boot=3.40,
        idle=2.00,
        cpu_busy=4.40,
        io_wait=2.30,
    ),
    unit_cost_usd=60.0,
    relative_speed=0.95,
    boot_time_scale=1.25,  # GPU-first firmware boot chain
)

THINKMATE_RAX = RackServerSpec(
    name="Thinkmate RAX (AMD Opteron 6172)",
    cpu=CpuSpec(
        model="AMD Opteron 6172",
        architecture="x86",
        cores=12,
        frequency_hz=2.1e9,
    ),
    ram_bytes=16 * 1024**3,
    idle_watts=60.0,
    loaded_watts=150.0,
    power_exponent=0.547,
    unit_cost_usd=2011.0,
    reboot_s=55.0,
)

#: The TCO appendix prices a PowerEdge R6515 as the representative
#: "modern mid-range rack server" and assumes it performs like the
#: evaluation host.
DELL_POWEREDGE_R6515 = RackServerSpec(
    name="Dell PowerEdge R6515 (AMD EPYC 7232P)",
    cpu=CpuSpec(
        model="AMD EPYC 7232P",
        architecture="x86",
        cores=8,
        frequency_hz=3.1e9,
    ),
    ram_bytes=16 * 1024**3,
    idle_watts=60.0,
    loaded_watts=150.0,
    power_exponent=0.547,
    unit_cost_usd=2011.0,
)

CATALYST_2960S = SwitchSpec(
    name="Cisco Catalyst 2960S-48LPS",
    ports=48,
    watts=40.87,
    unit_cost_usd=500.0,
)

#: 24-port managed switch used in the physical testbed (Sec. IV-B).
TESTBED_SWITCH = SwitchSpec(
    name="24-port managed GigE switch",
    ports=24,
    watts=18.0,
    unit_cost_usd=150.0,
)

#: DVFS ladders.  Every ladder uses ``power_scale = perf_scale ** 2``
#: (the voltage-squared term of CMOS dynamic power), so each step down
#: trades throughput for a strictly larger cut in active power — the
#: property that makes the energy-vs-p99 frontier of the power-cap
#: sweep monotone.
BBB_DVFS = DvfsCurve(
    steps=(
        DvfsStep(frequency_hz=1.0e9, perf_scale=1.0, power_scale=1.0),
        DvfsStep(frequency_hz=0.8e9, perf_scale=0.8, power_scale=0.64),
        DvfsStep(frequency_hz=0.6e9, perf_scale=0.6, power_scale=0.36),
    )
)

RPI_CM_DVFS = DvfsCurve(
    steps=(
        DvfsStep(frequency_hz=1.5e9, perf_scale=1.0, power_scale=1.0),
        DvfsStep(frequency_hz=1.2e9, perf_scale=0.8, power_scale=0.64),
        DvfsStep(frequency_hz=0.9e9, perf_scale=0.6, power_scale=0.36),
    )
)

RAX_DVFS = DvfsCurve(
    steps=(
        DvfsStep(frequency_hz=2.1e9, perf_scale=1.0, power_scale=1.0),
        DvfsStep(frequency_hz=1.68e9, perf_scale=0.8, power_scale=0.64),
        DvfsStep(frequency_hz=1.26e9, perf_scale=0.6, power_scale=0.36),
    )
)

#: spec name -> ladder.  Keyed by name (specs are frozen and hashable,
#: but callers sometimes construct tweaked copies that should still
#: resolve to their platform's ladder).
DVFS_CURVES = {
    BEAGLEBONE_BLACK.name: BBB_DVFS,
    RASPBERRY_PI_CM.name: RPI_CM_DVFS,
    THINKMATE_RAX.name: RAX_DVFS,
    DELL_POWEREDGE_R6515.name: RAX_DVFS,
}


def dvfs_curve_for(spec) -> DvfsCurve:
    """The DVFS ladder for a board or server spec.

    Unknown hardware gets a degenerate single-step ladder at its rated
    frequency — cappable only down to nominal, never below.
    """
    curve = DVFS_CURVES.get(spec.name)
    if curve is not None:
        return curve
    return DvfsCurve(
        steps=(
            DvfsStep(
                frequency_hz=spec.cpu.frequency_hz,
                perf_scale=1.0,
                power_scale=1.0,
            ),
        )
    )


__all__ = [
    "BBB_DVFS",
    "BEAGLEBONE_BLACK",
    "CATALYST_2960S",
    "RASPBERRY_PI_CM",
    "CpuSpec",
    "DELL_POWEREDGE_R6515",
    "DVFS_CURVES",
    "DvfsCurve",
    "DvfsStep",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "NicSpec",
    "RackServerSpec",
    "RAX_DVFS",
    "RPI_CM_DVFS",
    "SbcPowerDraw",
    "SbcSpec",
    "SwitchSpec",
    "TESTBED_SWITCH",
    "THINKMATE_RAX",
    "dvfs_curve_for",
]
