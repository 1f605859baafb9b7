"""Tests of the benchmark itself: span arithmetic, reference checks,
seeded inputs, and the output contract.

Run from the repository root: ``python3 -m pytest simbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from simbench import layers, run, workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_wrapped_children():
    # outer [0, 10] calls inner [1, 3] and inner [4, 8]; inner [4, 8]
    # calls leaf [5, 6].
    clock = FakeClock(0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)
    profiler = layers.LayerProfiler(clock=clock)
    leaf = profiler.wrap_call("leaf", lambda: None)

    def inner_body(with_leaf):
        if with_leaf:
            leaf()

    inner = profiler.wrap_call("inner", inner_body)

    def outer_body():
        inner(False)
        inner(True)

    profiler.wrap_call("outer", outer_body)()
    totals = profiler.totals
    assert totals["outer"].calls == 1
    assert totals["outer"].self_s == 10.0 - (2.0 + 4.0)
    assert totals["outer"].inclusive_s == 10.0
    assert totals["inner"].calls == 2
    assert totals["inner"].self_s == 2.0 + (4.0 - 1.0)
    assert totals["inner"].inclusive_s == 6.0
    assert totals["leaf"].self_s == 1.0
    assert not clock.instants


def test_same_name_nesting_counts_inclusive_time_once():
    # build [0, 10] contains build [2, 7]: self 5 + 5, inclusive 10.
    profiler = layers.LayerProfiler(clock=FakeClock(0.0, 2.0, 7.0, 10.0))
    inner = profiler.wrap_call("build", lambda: None)
    profiler.wrap_call("build", inner)()
    totals = profiler.totals["build"]
    assert totals.calls == 2
    assert totals.self_s == 10.0
    assert totals.inclusive_s == 10.0


def test_iterator_spans_exclude_the_consumer():
    # Two items and the final StopIteration: three spans of 1 s each;
    # the consumer's 100 s between items is not charged.
    profiler = layers.LayerProfiler(
        clock=FakeClock(0.0, 1.0, 101.0, 102.0, 202.0, 203.0)
    )
    items = profiler.wrap_iter("gen", lambda: iter("ab"))()
    assert list(items) == ["a", "b"]
    assert profiler.totals["gen"].calls == 3
    assert profiler.totals["gen"].self_s == 3.0


def test_install_and_uninstall_restore_every_target():
    from repro.sim.kernel import Environment

    original = Environment.__dict__["run"]
    profiler = layers.LayerProfiler()
    profiler.install()
    try:
        assert Environment.__dict__["run"] is not original
        env = Environment()
        env.timeout(1.0)
        env.run()
    finally:
        profiler.uninstall()
    assert Environment.__dict__["run"] is original
    assert profiler.totals["sim"].calls == 1


def test_reference_matches_and_a_perturbed_digest_fails():
    workload = workloads.WORKLOADS["observed"]
    state = workload.setup(workload.inputs(workloads.DEFAULT_SEED))
    outcome = workload.run(state)
    assert workload.check(state, outcome) == []
    reference = workloads.load_reference()
    assert workloads.reference_problems("observed", outcome.stats, reference) == []
    perturbed = json.loads(json.dumps(reference))
    joules = perturbed["observed"]["joules"]
    perturbed["observed"]["joules"] = math.nextafter(joules, math.inf)
    problems = workloads.reference_problems("observed", outcome.stats, perturbed)
    assert len(problems) == 1 and "joules" in problems[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_arrivals_and_nothing_else(name):
    workload = workloads.WORKLOADS[name]
    config = dict(workload.config)
    first = workload.arrivals(workload.inputs(1))
    again = workload.arrivals(workload.inputs(1))
    other = workload.arrivals(workload.inputs(2))
    assert first == again
    assert first != other
    assert workload.config == config
    if name == "testbed":  # a reordering of the same batch
        assert sorted(first) == sorted(other)


@pytest.mark.parametrize("name", ["testbed", "stream", "observed"])
def test_the_cluster_does_not_see_the_seed(name):
    workload = workloads.WORKLOADS[name]
    for seed in (1, 2):
        state = workload.setup(workload.inputs(seed))
        try:
            clusters = {
                "testbed": lambda: state[1],
                "stream": lambda: (state[1],),
                "observed": lambda: (state["cluster"],),
            }[name]()
            assert all(c.seed == workloads.CLUSTER_SEED for c in clusters)
        finally:
            workload.close(state)


def test_traced_output_contract(capsys):
    assert run.main(
        ["--workload", "observed", "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["energy.bill.calls"] > 0
    assert metrics["obs.traces_dropped"] > 0
    assert abs(metrics["energy.residual_j"]) <= workloads.RESIDUAL_TOLERANCE_J
    report = json.loads(lines[-2])["report"]
    assert report["problems"] == []


def test_benchmark_file_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "simbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "testbed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
