"""Run-to-completion worker lifecycle policy.

Encodes Sec. IV-D's worker behaviour: "Upon completion, the worker
either reboots and executes its next job or powers down until the OP
assigns it another job."  The two booleans exist so the ablation
benchmarks can measure what each piece of the policy buys:

- ``reboot_between_jobs`` — the clean-state security guarantee
  (Sec. III-a).  Turning it off gives warm workers: faster, but function
  N+1 sees whatever function N left behind.
- ``power_off_when_idle`` — the energy-proportionality mechanism
  (Sec. III-b).  Turning it off leaves idle workers burning idle power.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunToCompletionPolicy:
    """What a worker does between jobs."""

    reboot_between_jobs: bool = True
    power_off_when_idle: bool = True
    #: How long an idle worker waits for another job before powering off
    #: (0 = immediately, the paper's behaviour).
    idle_grace_s: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_grace_s < 0:
            raise ValueError("idle grace period cannot be negative")

    @classmethod
    def paper_default(cls) -> "RunToCompletionPolicy":
        """The policy the paper evaluates."""
        return cls(reboot_between_jobs=True, power_off_when_idle=True)


__all__ = ["RunToCompletionPolicy"]
