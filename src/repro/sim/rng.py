"""Named, reproducible random-number streams.

Every stochastic component of the simulator (arrival process, scheduler
sampling, per-invocation runtime jitter, ...) draws from its own named
stream so that changing how often one component draws does not perturb the
others.  Streams are derived deterministically from a master seed and the
stream name, so the same ``(seed, name)`` pair always yields the same
sequence — across runs and across machines.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and ``name``.

    Uses SHA-256 so the mapping is stable across Python versions (unlike
    ``hash()``, which is salted per-process for strings).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                derive_seed(self.master_seed, name)
            )
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are namespaced by ``name``."""
        return RandomStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    # -- convenience draws ---------------------------------------------------

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from the named stream."""
        return self.stream(name).uniform(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """One exponential draw (mean ``1/rate``) from the named stream."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.stream(name).expovariate(rate)

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative jitter factor with median 1.0.

        Used to perturb nominal service times: ``t * lognormal_factor``.
        ``sigma = 0`` returns exactly 1.0.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return 1.0
        return self.stream(name).lognormvariate(0.0, sigma)

    def choice(self, name: str, items: Sequence[T]) -> T:
        """One uniform choice from ``items``."""
        if not items:
            raise ValueError("cannot choose from empty sequence")
        return self.stream(name).choice(items)

    def sample(self, name: str, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items (k is clamped to ``len(items)``)."""
        k = min(k, len(items))
        return self.stream(name).sample(list(items), k)

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer in ``[low, high]`` inclusive."""
        return self.stream(name).randint(low, high)

    # -- batch draws ---------------------------------------------------------
    #
    # Pre-sampling draws in batches amortizes the per-draw dict lookup and
    # validation; the underlying stream advances exactly as if the scalar
    # method had been called ``n`` times, so a batch of ``n`` followed by a
    # scalar draw sees the same sequence as ``n + 1`` scalar draws.  Each
    # transform applies the same scalar float operations CPython's
    # ``random.Random`` methods perform, in the same order, so batch draws
    # are bit-identical to their scalar counterparts (``math.log``, not
    # ``numpy.log`` — the two differ in the last ulp for some inputs).

    def random_batch(self, name: str, n: int) -> List[float]:
        """``n`` raw uniform [0, 1) draws from the named stream."""
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n}")
        rand = self.stream(name).random
        return [rand() for _ in range(n)]

    def uniform_batch(
        self, name: str, low: float, high: float, n: int
    ) -> List[float]:
        """``n`` uniform draws, bit-identical to ``n`` × :meth:`uniform`."""
        span = high - low
        return [low + span * u for u in self.random_batch(name, n)]

    def expovariate_batch(self, name: str, rate: float, n: int) -> List[float]:
        """``n`` exponential draws, bit-identical to ``n`` × :meth:`expovariate`.

        Applies CPython's exact ``expovariate`` transform
        ``-log(1 - random()) / rate`` per element.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        log = math.log
        return [-log(1.0 - u) / rate for u in self.random_batch(name, n)]


__all__ = ["RandomStreams", "derive_seed"]
