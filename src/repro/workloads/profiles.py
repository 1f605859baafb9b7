"""Calibrated per-function timing profiles for the cluster simulation.

Each :class:`FunctionProfile` carries the nominal execution (work) time
of one invocation on each platform, the CPU-busy fraction of that work,
and the invocation payload sizes.  The values were solved by
``tools/calibrate_profiles.py`` so that the paper's aggregate numbers
hold exactly over the 17-function mix:

- mean ARM cycle (boot 1.51 s + work + overhead) = 2.9910 s
  => 10 SBCs sustain the published 200.6 func/min;
- mean x86 cycle (boot 0.96 s + work + overhead) = 1.7006 s
  => 6 microVMs sustain the published 211.7 func/min;
- mean x86 CPU per cycle = 1.287 s => the 6-VM host draws 112.9 W,
  i.e. the published 32.0 J/function;
- mean ARM energy per function = 5.7 J (the published figure);
- Fig. 3 shape: 4 of 17 functions run *faster* on MicroFaaS (the
  round-trip-dominated Redis/MQ ops, which skip the virtio detour) and
  4 run at less than half speed (CascSHA, MatMul, AES128, COSGet — the
  crypto/ALU-heavy and TCP-receive-heavy ones the paper calls out).

The per-invocation *overhead* (receiving input, returning the result,
session setup) is not stored here; the cluster simulation computes it
from the payload sizes via :class:`repro.net.TransferModel`, so a NIC
upgrade ablation automatically shifts Fig. 3's overhead bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class FunctionProfile:
    """Calibrated invocation profile of one Table I function."""

    name: str
    #: Nominal work (function body) wall time on the ARM SBC, seconds.
    work_arm_s: float
    #: Nominal work wall time on one x86 microVM vCPU, seconds.
    work_x86_s: float
    #: Fraction of the ARM work time the CPU is busy (rest is I/O wait).
    cpu_fraction_arm: float
    #: Fraction of the x86 work time the vCPU is busy.
    cpu_fraction_x86: float
    #: Invocation input payload size shipped by the orchestrator.
    input_bytes: int
    #: Result payload size returned to the orchestrator.
    output_bytes: int
    #: Backend service operation (None for CPU/RAM-bound functions).
    service_op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.work_arm_s <= 0 or self.work_x86_s <= 0:
            raise ValueError(f"{self.name}: work times must be positive")
        for fraction in (self.cpu_fraction_arm, self.cpu_fraction_x86):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{self.name}: cpu fraction {fraction} not in [0,1]")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError(f"{self.name}: payload sizes must be >= 0")

    def work_s(self, platform: str) -> float:
        """Nominal work time on ``platform`` ("arm" or "x86")."""
        if platform == "arm":
            return self.work_arm_s
        if platform == "x86":
            return self.work_x86_s
        raise ValueError(f"unknown platform {platform!r}")

    def cpu_fraction(self, platform: str) -> float:
        """CPU-busy fraction on ``platform``."""
        if platform == "arm":
            return self.cpu_fraction_arm
        if platform == "x86":
            return self.cpu_fraction_x86
        raise ValueError(f"unknown platform {platform!r}")


#: Calibrated profiles, one per Table I function.
PROFILES: Dict[str, FunctionProfile] = {
    "FloatOps": FunctionProfile(
        name="FloatOps",
        work_arm_s=2.210032,
        work_x86_s=1.348046,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=100,
        output_bytes=120,
        service_op=None,
    ),  # ratio 1.64
    "CascSHA": FunctionProfile(
        name="CascSHA",
        work_arm_s=3.459181,
        work_x86_s=0.629088,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=200,
        output_bytes=150,
        service_op=None,
    ),  # ratio 5.40
    "CascMD5": FunctionProfile(
        name="CascMD5",
        work_arm_s=0.960884,
        work_x86_s=0.584153,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=200,
        output_bytes=120,
        service_op=None,
    ),  # ratio 1.65
    "MatMul": FunctionProfile(
        name="MatMul",
        work_arm_s=5.188772,
        work_x86_s=2.022069,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=150,
        output_bytes=100,
        service_op=None,
    ),  # ratio 2.56
    "HTMLGen": FunctionProfile(
        name="HTMLGen",
        work_arm_s=0.538095,
        work_x86_s=0.337011,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=24000,
        output_bytes=31000,
        service_op=None,
    ),  # ratio 1.61
    "AES128": FunctionProfile(
        name="AES128",
        work_arm_s=3.074828,
        work_x86_s=1.123372,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=650,
        output_bytes=180,
        service_op=None,
    ),  # ratio 2.72
    "Decompress": FunctionProfile(
        name="Decompress",
        work_arm_s=0.634183,
        work_x86_s=0.404414,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=60000,
        output_bytes=150,
        service_op=None,
    ),  # ratio 1.58
    "RegExSearch": FunctionProfile(
        name="RegExSearch",
        work_arm_s=1.076190,
        work_x86_s=0.674023,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=250000,
        output_bytes=80,
        service_op=None,
    ),  # ratio 1.63
    "RegExMatch": FunctionProfile(
        name="RegExMatch",
        work_arm_s=0.422789,
        work_x86_s=0.269609,
        cpu_fraction_arm=0.9600,
        cpu_fraction_x86=0.9600,
        input_bytes=30000,
        output_bytes=60,
        service_op=None,
    ),  # ratio 1.58
    "RedisInsert": FunctionProfile(
        name="RedisInsert",
        work_arm_s=0.288265,
        work_x86_s=0.426881,
        cpu_fraction_arm=0.0546,
        cpu_fraction_x86=0.2392,
        input_bytes=1500,
        output_bytes=80,
        service_op="kv.set",
    ),  # ratio 0.71
    "RedisUpdate": FunctionProfile(
        name="RedisUpdate",
        work_arm_s=0.307483,
        work_x86_s=0.449349,
        cpu_fraction_arm=0.0546,
        cpu_fraction_x86=0.2392,
        input_bytes=2500,
        output_bytes=60,
        service_op="kv.update",
    ),  # ratio 0.72
    "SQLSelect": FunctionProfile(
        name="SQLSelect",
        work_arm_s=0.499659,
        work_x86_s=0.471816,
        cpu_fraction_arm=0.0668,
        cpu_fraction_x86=0.3076,
        input_bytes=120,
        output_bytes=4000,
        service_op="sql.select",
    ),  # ratio 1.08
    "SQLUpdate": FunctionProfile(
        name="SQLUpdate",
        work_arm_s=0.538095,
        work_x86_s=0.516751,
        cpu_fraction_arm=0.0668,
        cpu_fraction_x86=0.3076,
        input_bytes=130,
        output_bytes=60,
        service_op="sql.update",
    ),  # ratio 1.06
    "COSGet": FunctionProfile(
        name="COSGet",
        work_arm_s=3.651358,
        work_x86_s=1.572720,
        cpu_fraction_arm=0.1882,
        cpu_fraction_x86=0.5127,
        input_bytes=120,
        output_bytes=200,
        service_op="cos.get",
    ),  # ratio 2.32
    "COSPut": FunctionProfile(
        name="COSPut",
        work_arm_s=1.441325,
        work_x86_s=0.898697,
        cpu_fraction_arm=0.1669,
        cpu_fraction_x86=0.4785,
        input_bytes=24700,
        output_bytes=150,
        service_op="cos.put",
    ),  # ratio 1.61
    "MQProduce": FunctionProfile(
        name="MQProduce",
        work_arm_s=0.172959,
        work_x86_s=0.269609,
        cpu_fraction_arm=0.0607,
        cpu_fraction_x86=0.2563,
        input_bytes=400,
        output_bytes=80,
        service_op="mq.produce",
    ),  # ratio 0.70
    "MQConsume": FunctionProfile(
        name="MQConsume",
        work_arm_s=0.192177,
        work_x86_s=0.303310,
        cpu_fraction_arm=0.0607,
        cpu_fraction_x86=0.2563,
        input_bytes=150,
        output_bytes=300,
        service_op="mq.consume",
    ),  # ratio 0.69
}


def profile_for(name: str) -> FunctionProfile:
    """Look up the calibrated profile of a Table I function."""
    if name not in PROFILES:
        raise KeyError(
            f"no profile for {name!r}; known: {sorted(PROFILES)}"
        )
    return PROFILES[name]


__all__ = ["FunctionProfile", "PROFILES", "profile_for"]
