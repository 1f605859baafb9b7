"""Placement pins for the one policy implementation.

Serial runs and the shard coordinator place jobs with the same policy
objects over a :class:`~repro.core.scheduler.SchedulingState`.  These
tests drive each policy through randomized schedules of assignments,
completions, deaths and revivals, and compare the sha256 of the chosen
worker-id sequence with digests recorded from the earlier serial
implementation, which scanned a candidate-queue list per pick
(tie-breaks included).  The ``barred`` schedules also bar a random
non-empty subset of the alive workers at every pick, never all of
them — the recorded side filtered those out of its candidate list.
"""

import hashlib
import random

import pytest

from repro.core.platform import ARM, X86
from repro.core.scheduler import (
    SHARDABLE_POLICIES,
    PackingPolicy,
    SchedulingState,
    make_policy,
)
from repro.energy.controlplane import CarbonSignal
from repro.shard import ClusterSpec

ARM_ONLY = (ARM,) * 12
MIXED = (ARM,) * 7 + (X86,) * 5

#: Carbon signals whose cheaper platform flips every few tens of
#: seconds (cost = signal × joules weight).
SIGNALS = {
    ARM: CarbonSignal(base=400.0, amplitude=300.0, period_s=60.0),
    X86: CarbonSignal(base=60.0, amplitude=20.0, period_s=45.0, phase_s=7.0),
}
WEIGHTS = {ARM: 5.7, X86: 32.0}

#: (sha256 of the comma-joined picks, pick count), recorded from the
#: scanning implementation on the same schedules.
PINS = {
    "random-sampling/0": ("ae860e96620aa8285bc58f0a365462f51a7a0f5836f8eeb7f7b30cde1af1d8e2", 210),
    "random-sampling/1": ("e1b67f16e73a95de6082189090649fc2dce29d498a155efba35e2edbe357f0f8", 215),
    "random-sampling/7": ("45768ec94f1dfaaa4d9092b2d50c2a540838afea4d8775072e855d0688664dba", 230),
    "round-robin/0": ("e04a82dd7f4a6634d90c11f8566edf807d7062f7ffe1bc65aee76764c555bf23", 229),
    "round-robin/3": ("a775244d27e76ea3cef99a2f61a1dcaf49cf94766cc3f8ba63f5d45d2c25a13e", 228),
    "least-loaded/0": ("219ce049bd97c5a781ff6b80193e2fa33426deb64c887ee6d1bbcd0f947573ac", 213),
    "least-loaded/5": ("066ca4274de971813ed2bacc007b46e9310f2e6a87def4561337e562a23f9717", 218),
    "least-loaded/11": ("12959714c04312d2c0a7b6647275110124b8d137c787210b52fdbdc030bed8e3", 224),
    "energy-aware/0": ("e2bec4ecd82439349b6b1af90a8553461af143a34adf7c4fdbc46fd16b90d490", 224),
    "energy-aware/5": ("7e4a90ffaaefad7fa149a12409dcf55dc50b6bab578ec3f4f02f08575eff10fb", 218),
    "energy-aware/13": ("3aaf5c82bb5bb9921db6441afe4f89528b9dff7724f6f82182a1aa587eb97c72", 225),
    "energy-aware/spill3": ("cd9d3d4e684f269184cc5a4b948a10d755c5ff308b35d6c3cfffeeb7e70853c2", 60),
    "random-sampling/barred": ("fe1668f9bb97f637283a9525b4221383184d5e7916d8f00d1f3e613f6384f937", 230),
    "round-robin/barred": ("b89103d8e2871852f75fd5c7162a481e80e992851264f031e1b9b991310c7aff", 225),
    "least-loaded/barred": ("46b42d4d32edcd471da032898fe0540800bdcd4df50c0d553eef29802ba87af5", 223),
    "packing/barred": ("ee42777a2caf4f7b64061363f4c6c5302c7354ed64f8b9549a537a12547945da", 228),
    "energy-aware/barred": ("1436870d7f192c73af118f4ca0c4b9e28013d33ec1e466b131fd7249db49401d", 226),
    "carbon-aware/barred": ("f6c53092396a56d4646ff37b1c39256f7c5ae8077c2417b2a16ebc9e5f18979f", 225),
}


def digest(picks):
    return (
        hashlib.sha256(",".join(map(str, picks)).encode()).hexdigest(),
        len(picks),
    )


class StubQueue:
    """The slice of a worker queue packing reads: its depth."""

    def __init__(self, state, worker_id):
        self.state = state
        self.worker_id = worker_id

    @property
    def depth(self):
        return self.state.loads[self.worker_id]


class Bench:
    """One policy bound to a scheduling state with a settable clock."""

    def __init__(self, policy, platforms):
        self.now = 0.0
        self.state = SchedulingState(platforms, clock=lambda: self.now)
        self.policy = policy
        queues = [StubQueue(self.state, wid) for wid in range(len(platforms))]
        policy.bind(self.state, queues, self.is_powered)

    def is_powered(self, worker_id):
        return (worker_id + int(self.now)) % 3 != 0


def drive(bench, seed, steps=400, bar=False, dt=0.37):
    """Run one randomized schedule and return the picks."""
    state = bench.state
    rng = random.Random(seed)
    outstanding_ids = []
    picks = []
    for step in range(steps):
        bench.now = step * dt
        roll = rng.random()
        alive = list(state.alive_ids())
        if roll < 0.55 or not outstanding_ids:
            barred = frozenset()
            if bar and len(alive) > 1:
                barred = frozenset(
                    rng.sample(alive, rng.randrange(1, len(alive)))
                )
            wid = bench.policy.select(None, barred)
            assert wid in alive and wid not in barred
            picks.append(wid)
            state.add_load(wid, 1)
            outstanding_ids.append(wid)
        elif roll < 0.85:
            wid = outstanding_ids.pop(rng.randrange(len(outstanding_ids)))
            state.add_load(wid, -1)
        elif roll < 0.95 and len(alive) > 1:
            # A dead worker's queue is salvaged: its load zeroes and the
            # jobs re-enter through later assignment rolls.
            wid = alive[rng.randrange(len(alive))]
            outstanding_ids = [w for w in outstanding_ids if w != wid]
            state.loads[wid] = 0
            state.mark_dead(wid)
        elif state.dead:
            wid = sorted(state.dead)[rng.randrange(len(state.dead))]
            state.mark_alive(wid)
    return picks


def build(name, seed=0, platforms=ARM_ONLY, spill_threshold=2):
    policy = make_policy(
        name,
        seed=seed,
        spill_threshold=spill_threshold,
        signals=SIGNALS,
        joules_weights=WEIGHTS,
    )
    return Bench(policy, platforms)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_sampling_replayer_matches_policy(seed):
    picks = drive(build("random-sampling", seed), seed + 100)
    assert digest(picks) == PINS[f"random-sampling/{seed}"]


@pytest.mark.parametrize("seed", [0, 3])
def test_round_robin_replayer_matches_policy(seed):
    picks = drive(build("round-robin", seed), seed + 200)
    assert digest(picks) == PINS[f"round-robin/{seed}"]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_least_loaded_replayer_matches_policy(seed):
    picks = drive(build("least-loaded", seed), seed + 300)
    assert digest(picks) == PINS[f"least-loaded/{seed}"]


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_energy_aware_replayer_matches_policy(seed):
    picks = drive(build("energy-aware", seed, MIXED), seed + 400)
    assert digest(picks) == PINS[f"energy-aware/{seed}"]


def test_energy_aware_spill_threshold_is_honoured():
    bench = build("energy-aware", platforms=MIXED, spill_threshold=3)
    picks = []
    for _ in range(60):
        wid = bench.policy.select(None)
        picks.append(wid)
        bench.state.add_load(wid, 1)
    assert digest(picks) == PINS["energy-aware/spill3"]


@pytest.mark.parametrize(
    "name,platforms",
    [
        ("random-sampling", ARM_ONLY),
        ("round-robin", ARM_ONLY),
        ("least-loaded", ARM_ONLY),
        ("packing", ARM_ONLY),
        ("energy-aware", MIXED),
        ("carbon-aware", MIXED),
    ],
)
def test_barred_schedule_matches_recorded_picks(name, platforms):
    picks = drive(build(name, 9, platforms), 500, bar=True)
    assert digest(picks) == PINS[f"{name}/barred"]


def test_heaps_stay_bounded_under_churn():
    """Stale heap entries are compacted away: a long run on a lightly
    loaded cluster keeps the index O(workers), not O(updates)."""
    bench = build("least-loaded")
    for _ in range(10_000):
        wid = bench.policy.select(None)
        bench.state.add_load(wid, 1)
        bench.state.add_load(wid, 1)
        bench.state.add_load(wid, -1)
        bench.state.add_load(wid, -1)
    heap = bench.policy._heaps[None]
    assert len(heap) <= 2 * len(ARM_ONLY) + 64


def test_unshardable_policy_is_rejected():
    assert "packing" not in SHARDABLE_POLICIES
    assert not PackingPolicy.shardable
    with pytest.raises(ValueError, match="not shardable"):
        ClusterSpec(kind="microfaas", worker_count=4, policy="packing").validate()
