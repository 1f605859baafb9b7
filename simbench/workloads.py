"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (arrivals only: the
cluster shape and the cluster's own seed are fixed), builds the system
under test (``setup``, timed as ``setup_s``), drives it from the first
simulated event until it drains (``run``, timed as ``us_per_inv``), and
checks the simulated outputs (``check``, untimed).  Only public entry
points of ``repro`` are driven; the one private field read is the
kernel's event sequence counter (``sim.events``).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.client import FunctionExecutor
from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments import headline
from repro.experiments.megatrace import POWER_TRACE_MAX_POINTS, WORKER_JOBS_PER_S
from repro.obs.export import chrome_trace_events, validate_chrome_trace
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.shard.coordinator import ShardedCluster
from repro.shard.runtime import ClusterSpec
from repro.sim.rng import RandomStreams
from repro.workloads import traces
from repro.workloads.base import ALL_FUNCTION_NAMES

#: The seed whose simulated statistics are pinned in reference.json.
DEFAULT_SEED = 1

#: Seed of every simulated cluster.  Fixed, so the benchmark seed
#: changes the generated arrivals and nothing else.
CLUSTER_SEED = 1

#: The simulator's headline at the paper's size (30 invocations per
#: function, seed 1), pinned bit for bit, and the paper's Sec. V
#: figures it is compared against (func/min and J/function).
HEADLINE_PIN = {
    "microfaas_fpm": 198.91024488371775,
    "conventional_fpm": 210.63421280389312,
    "microfaas_jpf": 5.68976562485388,
    "conventional_jpf": 31.981347387759136,
}
PAPER = {key: headline.PAPER[key] for key in HEADLINE_PIN}

#: Largest |residual| the energy ledger may leave (joules).
RESIDUAL_TOLERANCE_J = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


@dataclass
class Outcome:
    """What one run of a workload produced."""

    submitted: int
    delivered: int
    lost: int
    #: Simulated statistics: identical for identical inputs.
    stats: Dict[str, float]
    #: Simulation counters for the per-layer report.
    counters: Dict[str, float] = field(default_factory=dict)


def result_stats(result, lost: int) -> Dict[str, float]:
    """The simulated digest of one cluster result."""
    telemetry = result.telemetry
    return {
        "delivered": result.jobs_completed,
        "duration_s": result.duration_s,
        "joules": result.energy_joules,
        "p50_s": telemetry.percentile_latency_s(50),
        "p99_s": telemetry.percentile_latency_s(99),
        "lost": lost,
    }


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, Dict[str, float]]:
    with open(path) as handle:
        return json.load(handle)


def reference_problems(
    name: str, stats: Dict[str, float], reference: Dict[str, Dict[str, float]]
) -> List[str]:
    """Differences between a run's digest and the recorded one."""
    expected = reference.get(name)
    if expected is None:
        return [f"{name}: no reference recorded"]
    if set(expected) != set(stats):
        return [f"{name}: digest keys {sorted(stats)} != {sorted(expected)}"]
    return [
        f"{name}: {key} = {stats[key]!r}, reference {expected[key]!r}"
        for key in sorted(expected)
        if stats[key] != expected[key]
    ]


def _conservation_problems(outcome: Outcome) -> List[str]:
    problems = []
    if outcome.delivered + outcome.lost != outcome.submitted:
        problems.append(
            f"job conservation: {outcome.delivered} delivered + "
            f"{outcome.lost} lost != {outcome.submitted} submitted"
        )
    return problems


def _unique_job_ids(telemetry) -> List[str]:
    """Nothing delivered twice (exact telemetry keeps every record)."""
    ids = [record.job_id for record in telemetry.records]
    if len(ids) != len(set(ids)):
        return [f"{len(ids) - len(set(ids))} jobs delivered twice"]
    return []


class Workload:
    """Interface every workload implements."""

    name = ""
    #: Fixed parameters: the same for every seed.
    config: Dict[str, object] = {}

    def inputs(self, seed: int):
        """Seeded inputs (pure: the same seed gives equal inputs)."""
        raise NotImplementedError

    def arrivals(self, inputs) -> List[Tuple[float, str]]:
        """The inputs as ``(submit time, function)`` pairs."""
        raise NotImplementedError

    def setup(self, inputs, executor: str = "process"):
        raise NotImplementedError

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcome: Outcome) -> List[str]:
        """Seed-independent invariants of one run."""
        return _conservation_problems(outcome)

    def close(self, state) -> None:
        """Release what ``setup`` started."""


# -- testbed ---------------------------------------------------------------------------


class Testbed(Workload):
    """Sec. V: a 10-SBC and a 6-VM cluster each drain the saturated
    17-function mix submitted at t=0 (a batch at a stated size)."""

    name = "testbed"
    config = {
        "sbc_workers": 10,
        "vm_workers": 6,
        "invocations_per_function": 30,
        "policy": "least-loaded",
    }

    def inputs(self, seed: int) -> Tuple[str, ...]:
        batch = [
            function
            for _ in range(self.config["invocations_per_function"])
            for function in ALL_FUNCTION_NAMES
        ]
        random.Random(seed).shuffle(batch)
        return tuple(batch)

    def arrivals(self, inputs) -> List[Tuple[float, str]]:
        return [(0.0, function) for function in inputs]

    def setup(self, inputs, executor: str = "process"):
        microfaas = MicroFaaSCluster(
            worker_count=self.config["sbc_workers"],
            seed=CLUSTER_SEED,
            policy=LeastLoadedPolicy(),
        )
        conventional = ConventionalCluster(
            vm_count=self.config["vm_workers"],
            seed=CLUSTER_SEED,
            policy=LeastLoadedPolicy(),
        )
        return inputs, (microfaas, conventional)

    def run(self, state) -> Outcome:
        batch, clusters = state
        stats: Dict[str, float] = {}
        delivered = lost = 0
        for label, cluster in zip(("microfaas", "conventional"), clusters):
            orchestrator = cluster.orchestrator
            orchestrator.submit_batch(batch)
            cluster.env.run(until=orchestrator.wait_all())
            result = cluster.result_snapshot(cluster.env.now)
            for key, value in result_stats(result, orchestrator.jobs_lost).items():
                stats[f"{label}.{key}"] = value
            delivered += result.jobs_completed
            lost += orchestrator.jobs_lost
        return Outcome(
            submitted=2 * len(batch),
            delivered=delivered,
            lost=lost,
            stats=stats,
            counters=_serial_counters(clusters, 2 * len(batch)),
        )

    def check(self, state, outcome: Outcome) -> List[str]:
        problems = super().check(state, outcome)
        for cluster in state[1]:
            problems += _unique_job_ids(cluster.orchestrator.telemetry)
        return problems


def headline_check() -> Tuple[List[str], float]:
    """Run the paper headline uncached; return (problems, paper_err_pct).

    The headline must equal its pinned floats bit for bit; the error is
    the largest relative error of the four figures against the paper.
    """
    result = headline.run(invocations_per_function=30, seed=1, cache=False)
    measured = {
        "microfaas_fpm": result.microfaas.throughput_per_min,
        "conventional_fpm": result.conventional.throughput_per_min,
        "microfaas_jpf": result.microfaas.joules_per_function,
        "conventional_jpf": result.conventional.joules_per_function,
    }
    problems = [
        f"headline {key} = {measured[key]!r}, pinned {HEADLINE_PIN[key]!r}"
        for key in HEADLINE_PIN
        if measured[key] != HEADLINE_PIN[key]
    ]
    error = max(
        abs(measured[key] - PAPER[key]) / PAPER[key] for key in PAPER
    )
    return problems, 100.0 * error


# -- fleet -----------------------------------------------------------------------------


class Fleet(Workload):
    """5,000 least-loaded workers replaying an open-loop Poisson trace at
    85% of capacity through the sharded coordinator."""

    name = "fleet"
    config = {
        "workers": 5000,
        "shards": 2,
        "utilization": 0.85,
        "arrivals": 5000,
        "policy": "least-loaded",
    }

    def spec(self) -> ClusterSpec:
        return ClusterSpec(
            kind="microfaas",
            worker_count=self.config["workers"],
            seed=CLUSTER_SEED,
            policy=self.config["policy"],
        )

    def inputs(self, seed: int) -> dict:
        rate = (
            self.config["workers"] * WORKER_JOBS_PER_S * self.config["utilization"]
        )
        return {
            "rate_per_s": rate,
            "duration_s": self.config["arrivals"] / rate,
            "seed": seed,
        }

    def trace(self, inputs):
        return traces.poisson_trace(
            inputs["rate_per_s"],
            inputs["duration_s"],
            streams=RandomStreams(inputs["seed"]),
            columnar=True,
        )

    def arrivals(self, inputs) -> List[Tuple[float, str]]:
        return list(self.trace(inputs).iter_pairs())

    def setup(self, inputs, executor: str = "process"):
        return {
            "trace": self.trace(inputs),
            "sharded": ShardedCluster(
                self.spec(), shards=self.config["shards"], executor=executor
            ),
        }

    def run(self, state) -> Outcome:
        trace, sharded = state["trace"], state["sharded"]
        result = state["result"] = sharded.replay_trace(trace)
        submitted = len(trace)
        counters = {}
        runtimes = getattr(sharded.executor, "runtimes", None)
        if runtimes:  # the inline executor: shard clusters are in reach
            counters = _serial_counters(
                [runtime.cluster for runtime in runtimes], submitted
            )
        counters["shard.rounds"] = sharded.stats.rounds
        counters["shard.peak_rss_mib"] = sharded.stats.peak_shard_rss_mib
        # Sharded runs have no chaos here, so no job can be lost.
        return Outcome(
            submitted=submitted,
            delivered=result.jobs_completed,
            lost=0,
            stats=result_stats(result, 0),
            counters=counters,
        )

    def serial_twin(self, inputs) -> Dict[str, float]:
        """The same replay on one unsharded cluster (the reference)."""
        cluster = self.spec().build()
        result = replay_trace(cluster, self.trace(inputs))
        return result_stats(result, cluster.orchestrator.jobs_lost)

    def check(self, state, outcome: Outcome) -> List[str]:
        return super().check(state, outcome) + _unique_job_ids(
            state["result"].telemetry
        )

    def close(self, state) -> None:
        state["sharded"].close()


# -- stream ----------------------------------------------------------------------------


class Stream(Workload):
    """The megatrace fast path, serial: 128 workers, a chunked Poisson
    trace at 85% of capacity, autocompacting power traces, finished-job
    eviction, sketch-only telemetry; tracing, ledger and SDK off."""

    name = "stream"
    config = {
        "workers": 128,
        "utilization": 0.85,
        "arrivals": 10000,
        "policy": "least-loaded",
        "power_trace_max_points": POWER_TRACE_MAX_POINTS,
    }

    def inputs(self, seed: int) -> dict:
        rate = (
            self.config["workers"] * WORKER_JOBS_PER_S * self.config["utilization"]
        )
        trace = traces.ChunkedPoissonTrace(
            rate_per_s=rate,
            duration_s=self.config["arrivals"] / rate,
            seed=seed,
        )
        # The chunked trace is unsized; count it once, outside timing.
        return {"trace": trace, "count": sum(1 for _ in trace.iter_pairs())}

    def arrivals(self, inputs) -> List[Tuple[float, str]]:
        return list(inputs["trace"].iter_pairs())

    def setup(self, inputs, executor: str = "process"):
        workers = self.config["workers"]
        cluster = MicroFaaSCluster(
            worker_count=workers,
            seed=CLUSTER_SEED,
            policy=LeastLoadedPolicy(),
            telemetry_exact=False,
            blueprint=ClusterSpec(kind="microfaas", worker_count=workers).blueprint(),
        )
        cluster.orchestrator.evict_finished = True
        cluster.bound_power_traces(self.config["power_trace_max_points"])
        return inputs, cluster

    def run(self, state) -> Outcome:
        inputs, cluster = state
        result = replay_trace(cluster, inputs["trace"])
        lost = cluster.orchestrator.jobs_lost
        return Outcome(
            submitted=inputs["count"],
            delivered=result.jobs_completed,
            lost=lost,
            stats=result_stats(result, lost),
            counters=_serial_counters([cluster], inputs["count"]),
        )


# -- observed --------------------------------------------------------------------------


class Observed(Workload):
    """One SDK client in a closed loop: map a fan-out of the function mix,
    wait for all of it, send the next.  Energy ledger, tracing at sample
    rate 1 with a bounded ring, recovery policy and a sampled chaos plan
    are all on."""

    name = "observed"
    config = {
        "workers": 32,
        "rounds": 30,
        "fanout": 32,
        "policy": "least-loaded",
        "trace_ring": 256,
        "chaos_scale": 0.25,
        "chaos_horizon_s": 300.0,
    }

    def inputs(self, seed: int) -> Tuple[Tuple[str, ...], ...]:
        rng = random.Random(seed)
        return tuple(
            tuple(rng.choice(ALL_FUNCTION_NAMES) for _ in range(self.config["fanout"]))
            for _ in range(self.config["rounds"])
        )

    def arrivals(self, inputs) -> List[Tuple[float, str]]:
        # Closed loop: a round's submit time depends on the system, so
        # the input is the order of calls alone.
        return [
            (float(index), function)
            for index, names in enumerate(inputs)
            for function in names
        ]

    def setup(self, inputs, executor: str = "process"):
        workers = self.config["workers"]
        cluster = MicroFaaSCluster(
            worker_count=workers,
            seed=CLUSTER_SEED,
            policy=LeastLoadedPolicy(),
            recovery=RecoveryPolicy(),
            trace=TraceConfig(sample_rate=1.0, max_traces=self.config["trace_ring"]),
        )
        ledger = cluster.enable_energy_ledger()
        plan = ChaosPlan.sample(
            ChaosProfile(scale=self.config["chaos_scale"]),
            worker_count=workers,
            horizon_s=self.config["chaos_horizon_s"],
            streams=cluster.streams.spawn("chaos"),
            switch_count=len(cluster.switches),
        )
        chaos = ChaosEngine(cluster)
        chaos.apply(plan)
        client = FunctionExecutor(cluster)
        return {
            "rounds": inputs,
            "cluster": cluster,
            "ledger": ledger,
            "chaos": chaos,
            "client": client,
            "futures": [],
        }

    def run(self, state) -> Outcome:
        client = state["client"]
        futures = state["futures"]
        for names in state["rounds"]:
            batch = client.map(list(names))
            client.wait(batch)
            futures.extend(batch)
        cluster = state["cluster"]
        orchestrator = cluster.orchestrator
        result = cluster.result_snapshot(cluster.env.now)
        counters = _serial_counters([cluster], len(futures))
        counters["reliability.faults_injected"] = state["chaos"].injected
        return Outcome(
            submitted=len(futures),
            delivered=result.jobs_completed,
            lost=orchestrator.jobs_lost,
            stats=result_stats(result, orchestrator.jobs_lost),
            counters=counters,
        )

    def check(self, state, outcome: Outcome) -> List[str]:
        problems = super().check(state, outcome)
        cluster = state["cluster"]
        problems += _unique_job_ids(cluster.orchestrator.telemetry)
        unresolved = [f for f in state["futures"] if not f.done]
        if unresolved:
            problems.append(f"{len(unresolved)} SDK futures never resolved")
        report = state["ledger"].reconcile(cluster.env.now)
        outcome.counters["energy.residual_j"] = report.residual_joules
        if not report.ok(RESIDUAL_TOLERANCE_J):
            problems.append(
                f"energy ledger residual {report.residual_joules!r} J"
            )
        tracer = cluster.tracer
        outcome.counters["obs.traces_finished"] = tracer.traces_finished
        outcome.counters["obs.traces_dropped"] = tracer.traces_dropped
        document = {"traceEvents": chrome_trace_events(cluster.finished_traces())}
        problems += [f"trace: {p}" for p in validate_chrome_trace(document)]
        return problems


def _serial_counters(clusters, submitted: int) -> Dict[str, float]:
    """Counters summed over serial (or inline shard) clusters."""
    orchestrators = [cluster.orchestrator for cluster in clusters]
    attempts = submitted + sum(
        o.resubmissions + o.timeout_retries + o.hedges for o in orchestrators
    )
    delivered = sum(o.telemetry.count for o in orchestrators)
    return {
        "sim.events": sum(cluster.env._sequence for cluster in clusters),
        "core.resubmissions": sum(o.resubmissions for o in orchestrators),
        "core.jobs_lost": sum(o.jobs_lost for o in orchestrators),
        "core.delivered_per_attempt": delivered / attempts if attempts else 0.0,
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Testbed(), Fleet(), Stream(), Observed())
}
