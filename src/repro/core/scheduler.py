"""Job assignment policies.

The paper's OP adds each job "to a random sampling of those queues"
(Sec. IV-D) — i.e. every invocation goes to a uniformly random worker
queue.  Alternative policies are provided for the scheduling ablation:
round-robin, least-loaded, and a packing policy that prefers workers
that are already powered on (trading energy proportionality for fewer
cold boots), plus the hybrid cluster's energy- and carbon-aware
placement.

Every policy reads one integer :class:`SchedulingState` — per-worker
outstanding loads, the dead set, platform tags and a decision clock.
The serial orchestrator's queues update it as work is pushed and
finished; the shard coordinator updates it from shard reports.  Both
call the same policy objects, so there is exactly one implementation of
each placement rule.

A pick is always made among the *alive* workers in worker-id order,
minus an optional ``barred`` set (quarantined workers, the worker a
retry is fleeing).  Tie-breaks are part of the contract:

* ``random-sampling`` — ``rng.randrange(len(candidates))`` indexed into
  the candidate ids;
* ``round-robin`` — a monotone counter modulo the candidate count;
* ``least-loaded`` — the lowest-id worker among the minimum loads,
  kept as a lazy min-heap of ``(load, worker_id)`` entries: stale
  entries (the load changed since the push, or the worker died) are
  dropped when they surface, so each pick and update is O(log W);
* ``energy-aware``/``carbon-aware`` — the same heap per platform plus
  the spill rule.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.platform import ARM

#: The empty barred set: every alive worker is a candidate.
NO_BARRED = frozenset()


class SchedulingState:
    """The integer scheduling state every policy reads.

    ``loads[w]`` counts worker ``w``'s outstanding jobs (queued + in
    flight).  Load and liveness changes go through :meth:`add_load`,
    :meth:`mark_dead` and :meth:`mark_alive`, which notify the bound
    policy so its indexes stay current.
    """

    def __init__(
        self,
        platforms: Sequence[str] = (),
        clock: Optional[Callable[[], float]] = None,
    ):
        self.loads: List[int] = [0] * len(platforms)
        self.platforms: List[str] = list(platforms)
        self.dead: set = set()
        #: Decision time source (carbon-aware reads it).
        self.clock = clock if clock is not None else (lambda: 0.0)
        #: Listener for load/liveness changes; replaced by
        #: :meth:`AssignmentPolicy.bind`.
        self.policy: "AssignmentPolicy" = AssignmentPolicy()
        self._alive: Optional[List[int]] = None

    def add_workers(self, count: int, platform: str = ARM) -> None:
        """Register ``count`` new workers (ids continue the sequence)."""
        self.loads.extend([0] * count)
        self.platforms.extend([platform] * count)
        self._alive = None

    def alive_ids(self) -> Sequence[int]:
        """Alive worker ids in ascending order."""
        if not self.dead:
            return range(len(self.loads))
        if self._alive is None:
            dead = self.dead
            self._alive = [
                wid for wid in range(len(self.loads)) if wid not in dead
            ]
        return self._alive

    def add_load(self, worker_id: int, delta: int) -> None:
        self.loads[worker_id] += delta
        self.policy.on_load_change(worker_id)

    def mark_dead(self, worker_id: int) -> None:
        self.dead.add(worker_id)
        self._alive = None
        self.policy.on_alive_change(worker_id)

    def mark_alive(self, worker_id: int) -> None:
        self.dead.discard(worker_id)
        self._alive = None
        self.policy.on_alive_change(worker_id)


class AssignmentPolicy:
    """Chooses a worker for each incoming job.

    The base class is also the null listener an unbound
    :class:`SchedulingState` notifies.
    """

    name: str = ""
    #: Whether every pick depends only on :class:`SchedulingState`, so
    #: the shard coordinator can make it without the shards' queues.
    shardable: bool = True
    state: Optional[SchedulingState] = None

    def bind(self, state: SchedulingState, queues=(), is_powered=None) -> None:
        """Attach to ``state`` (and the live queues, for policies that
        read queue depth or board power)."""
        self.state = state
        state.policy = self

    def select(self, job, barred=NO_BARRED) -> int:
        """Return the id of the worker to assign ``job`` to."""
        raise NotImplementedError

    def on_load_change(self, worker_id: int) -> None:
        """``worker_id``'s outstanding load changed."""

    def on_alive_change(self, worker_id: int) -> None:
        """``worker_id`` died or was revived."""


def _candidates(state: SchedulingState, barred) -> Sequence[int]:
    ids = state.alive_ids()
    if barred:
        ids = [wid for wid in ids if wid not in barred]
    if not ids:
        raise ValueError("no worker queues")
    return ids


class RandomSamplingPolicy(AssignmentPolicy):
    """The paper's policy: a uniformly random queue per job."""

    name = "random-sampling"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng if rng is not None else random.Random(0)

    def select(self, job, barred=NO_BARRED) -> int:
        ids = _candidates(self.state, barred)
        return ids[self.rng.randrange(len(ids))]


class RoundRobinPolicy(AssignmentPolicy):
    """Cycle through workers in order."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def select(self, job, barred=NO_BARRED) -> int:
        ids = _candidates(self.state, barred)
        index = self._next % len(ids)
        self._next += 1
        return ids[index]


def _heap_top(heap: list, loads: List[int], dead, barred) -> Optional[tuple]:
    """The lowest live ``(load, worker_id)`` entry not in ``barred``.

    Stale entries are dropped for good; barred ones are set aside and
    pushed back, since they are valid again at the next pick.
    """
    skipped = None
    top = None
    while heap:
        top = heap[0]
        load, wid = top
        if wid in dead or loads[wid] != load:
            heapq.heappop(heap)
        elif wid in barred:
            if skipped is None:
                skipped = []
            skipped.append(heapq.heappop(heap))
        else:
            break
        top = None
    if skipped is not None:
        for entry in skipped:
            heapq.heappush(heap, entry)
    return top


class LeastLoadedPolicy(AssignmentPolicy):
    """Join-shortest-queue: fewest outstanding jobs (ties: lowest id).

    Outstanding counts queued *plus in-flight* work — depth alone would
    route jobs behind a busy worker whose queue happens to be empty.
    """

    name = "least-loaded"
    #: One heap per platform (True) or one for the whole cluster.
    by_platform = False

    def bind(self, state: SchedulingState, queues=(), is_powered=None) -> None:
        super().bind(state, queues, is_powered)
        self._rebuild()

    def _rebuild(self) -> None:
        """Rebuild the heaps from the state: on new workers, and when
        stale entries outnumber live ones (bounds memory at O(W))."""
        state = self.state
        loads, dead = state.loads, state.dead
        heaps: Dict[Optional[str], list] = {} if self.by_platform else {None: []}
        # Worker id -> the heap holding its entries.
        heap_of = []
        for wid, platform in enumerate(state.platforms):
            heap = heaps.setdefault(platform if self.by_platform else None, [])
            heap_of.append(heap)
            if wid not in dead:
                heap.append((loads[wid], wid))
        for heap in heaps.values():
            heapq.heapify(heap)
        self._heaps = heaps
        self._heap_of = heap_of
        self._limit = 2 * len(loads) + 64

    def select(self, job, barred=NO_BARRED) -> int:
        state = self.state
        if len(self._heap_of) != len(state.loads):
            self._rebuild()
        top = _heap_top(self._heaps[None], state.loads, state.dead, barred)
        if top is None:
            raise ValueError("no worker queues")
        return top[1]

    def on_load_change(self, worker_id: int) -> None:
        try:
            heap = self._heap_of[worker_id]
        except IndexError:  # a worker added since the last rebuild
            self._rebuild()
            return
        heapq.heappush(heap, (self.state.loads[worker_id], worker_id))
        if len(heap) > self._limit:
            self._rebuild()

    def on_alive_change(self, worker_id: int) -> None:
        self.on_load_change(worker_id)


class PackingPolicy(AssignmentPolicy):
    """Prefer already-powered workers; wake the fewest boards possible.

    Among powered workers, pick the one with the shallowest queue; if
    everyone is off, wake the lowest-numbered board.  Concentrates load
    (good for boot amortization, bad for queueing delay) — the opposite
    corner of the design space from random sampling.  It reads board
    power and queue depth, which only the shard owning a worker knows,
    so it is not shardable.
    """

    name = "packing"
    shardable = False

    def bind(self, state: SchedulingState, queues=(), is_powered=None) -> None:
        super().bind(state, queues, is_powered)
        self.queues = queues
        self.is_powered = is_powered

    def select(self, job, barred=NO_BARRED) -> int:
        ids = _candidates(self.state, barred)
        queues = self.queues
        powered = [wid for wid in ids if self.is_powered(wid)]
        return min(powered or ids, key=lambda wid: (queues[wid].depth, wid))


class EnergyAwarePolicy(LeastLoadedPolicy):
    """Prefer the cheap platform; spill to the expensive one under load.

    The hybrid cluster's default: every job goes to the least-loaded
    SBC (the ~5.7 J/function platform) unless *all* SBC queues already
    hold at least ``spill_threshold`` outstanding jobs — queue pressure
    — *and* some other platform actually has a shorter queue, in which
    case it spills to the least-loaded worker of any other platform
    (the rack server is hot anyway, so marginal VM work is nearly free
    in energy but saves queueing delay).  The second condition keeps a
    saturating burst from dumping everything on the VMs: once their
    queues are as deep as the SBCs', spilling buys nothing.

    Deterministic (no RNG): ties break toward the lowest worker id,
    like :class:`LeastLoadedPolicy`.  On a homogeneous cluster it
    degrades to exactly least-loaded behaviour.
    """

    name = "energy-aware"
    by_platform = True

    def __init__(self, spill_threshold: int = 2, preferred: str = ARM):
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        self.spill_threshold = spill_threshold
        self.preferred = preferred

    def select(self, job, barred=NO_BARRED) -> int:
        return self._place(self.preferred, barred)

    def _place(self, preferred: str, barred) -> int:
        state = self.state
        if len(self._heap_of) != len(state.loads):
            self._rebuild()
        loads, dead = state.loads, state.dead
        best_pref = None
        best_other = None
        for platform, heap in self._heaps.items():
            top = _heap_top(heap, loads, dead, barred)
            if top is None:
                continue
            if platform == preferred:
                best_pref = top
            elif best_other is None or top < best_other:
                best_other = top
        if best_pref is None and best_other is None:
            raise ValueError("no worker queues")
        if best_pref is None:
            return best_other[1]
        if best_other is None:
            return best_pref[1]
        if (
            best_pref[0] >= self.spill_threshold
            and best_other[0] < best_pref[0]
        ):
            return best_other[1]
        return best_pref[1]


def carbon_preferred_platform(
    signals, joules_weights, now: float, default: str = ARM
) -> str:
    """The cheapest platform under time-varying carbon/price signals.

    Cost of a platform = its signal value at ``now`` × its
    joules-per-function weight; iteration is over sorted platform names
    and a candidate must beat the incumbent by >1e-12, so ties resolve
    deterministically toward the alphabetically-first platform.
    """
    best = None
    best_cost = None
    for platform in sorted(signals):
        cost = signals[platform].cost_at(now) * joules_weights.get(
            platform, 1.0
        )
        if best is None or cost < best_cost - 1e-12:
            best, best_cost = platform, cost
    return best if best is not None else default


class CarbonAwarePolicy(EnergyAwarePolicy):
    """Energy-aware routing whose *preferred* platform follows carbon.

    Each platform carries a :class:`~repro.energy.controlplane.
    CarbonSignal` (gCO2/kWh or $/kWh — any cost-per-joule curve) and a
    joules-per-function weight; at every assignment the policy prefers
    the platform with the cheapest cost × joules product at the state's
    decision time, then applies :class:`EnergyAwarePolicy`'s spill
    rule, so the latency guardrail (spill when the preferred queues
    back up) is unchanged.  With no signals configured it is exactly
    energy-aware.

    Signals are pre-sampled and the clock is read, never advanced —
    the policy stays deterministic and RNG-free.
    """

    name = "carbon-aware"

    def __init__(
        self,
        signals=None,
        joules_weights=None,
        spill_threshold: int = 2,
        preferred: str = ARM,
    ):
        super().__init__(spill_threshold=spill_threshold, preferred=preferred)
        self.signals = dict(signals) if signals else {}
        self.joules_weights = dict(joules_weights) if joules_weights else {}

    def select(self, job, barred=NO_BARRED) -> int:
        preferred = self.preferred
        if self.signals:
            preferred = carbon_preferred_platform(
                self.signals, self.joules_weights, self.state.clock(),
                preferred,
            )
        return self._place(preferred, barred)


_POLICIES = {
    policy.name: policy
    for policy in (
        RandomSamplingPolicy,
        RoundRobinPolicy,
        LeastLoadedPolicy,
        PackingPolicy,
        EnergyAwarePolicy,
        CarbonAwarePolicy,
    )
}

#: Policies the shard coordinator can run (see ``shardable``).
SHARDABLE_POLICIES = tuple(
    name for name, policy in _POLICIES.items() if policy.shardable
)


def make_policy(
    name: str,
    seed: int = 0,
    spill_threshold: int = 2,
    signals=None,
    joules_weights=None,
) -> AssignmentPolicy:
    """Build a policy by name; each takes the arguments it uses."""
    if name not in _POLICIES:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}")
    if name == RandomSamplingPolicy.name:
        return RandomSamplingPolicy(random.Random(seed))
    if name == EnergyAwarePolicy.name:
        return EnergyAwarePolicy(spill_threshold=spill_threshold)
    if name == CarbonAwarePolicy.name:
        return CarbonAwarePolicy(
            signals=signals,
            joules_weights=joules_weights,
            spill_threshold=spill_threshold,
        )
    return _POLICIES[name]()


__all__ = [
    "AssignmentPolicy",
    "CarbonAwarePolicy",
    "EnergyAwarePolicy",
    "NO_BARRED",
    "SHARDABLE_POLICIES",
    "SchedulingState",
    "carbon_preferred_platform",
    "LeastLoadedPolicy",
    "PackingPolicy",
    "RandomSamplingPolicy",
    "RoundRobinPolicy",
    "make_policy",
]
