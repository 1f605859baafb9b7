"""Per-span energy attribution reconciled with the energy ledger.

Two ground truths, one per claim:

- The per-function sums of delivered attempts' active joules (boot +
  transfers + execute, integrated from span intervals) must equal the
  ledger's ``function_joules``, which bills the same boards over each
  delivered attempt's service window.
- Under chaos, attempts of the same logical job run on disjoint time
  windows, so retried/hedged invocations never double-count a joule:
  summing attempt energies equals integrating the union of their
  windows.
"""

from collections import Counter

from repro.cluster import MicroFaaSCluster
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.energy.controlplane import EnergyLedger
from repro.obs import trace as obs
from repro.obs.energy import attribute
from repro.obs.trace import TraceConfig
from repro.reliability import ChaosEngine, ChaosPlan, ChaosProfile
from repro.services.backend import BackendCapacityModel

TOLERANCE_J = 1e-9


def traced_cluster(worker_count=4, seed=7, recovery=None, trace=None):
    """A traced cluster with an energy ledger attached."""
    cluster = MicroFaaSCluster(
        worker_count=worker_count,
        seed=seed,
        policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel() if recovery else None,
        recovery=recovery,
        trace=trace if trace is not None else TraceConfig(),
    )
    cluster.enable_energy_ledger()
    return cluster


def trace_energies(cluster):
    ledger = cluster.orchestrator.ledger
    return [attribute(trace, ledger) for trace in cluster.finished_traces()]


def assert_span_side_matches_ledger(cluster):
    """Per-function sums of delivered attempts' active joules equal the
    ledger's delivered joules per function."""
    span_side = {}
    for energy in trace_energies(cluster):
        span_side[energy.function] = (
            span_side.get(energy.function, 0.0) + energy.delivered_active_j
        )
    billed = cluster.orchestrator.ledger.function_joules
    assert billed and set(span_side) == set(billed)
    for function, joules in billed.items():
        assert abs(span_side[function] - joules) <= TOLERANCE_J


def test_fault_free_energy_reconciles_with_accounting():
    cluster = traced_cluster()
    cluster.run_saturated(invocations_per_function=3)
    assert_span_side_matches_ledger(cluster)


def test_phase_energies_tile_the_attempt_window():
    cluster = traced_cluster()
    cluster.run_saturated(invocations_per_function=2)
    for energy in trace_energies(cluster):
        for attempt in energy.attempts:
            assert attempt.total_j > 0
            # Phases never claim more than the window holds.
            assert attempt.idle_j >= -TOLERANCE_J
            # phase_totals includes the idle residual and adds up.
        totals = energy.phase_totals()
        assert abs(sum(totals.values()) - energy.total_j) < TOLERANCE_J
        assert totals[obs.EXECUTE] > 0


def test_per_function_energy_summary():
    cluster = traced_cluster()
    cluster.run_saturated(invocations_per_function=2)
    energies = trace_energies(cluster)
    counts = Counter(energy.function for energy in energies)
    assert len(counts) == 17
    assert set(counts.values()) == {2}
    for energy in energies:
        assert energy.total_j >= energy.active_j - TOLERANCE_J
        assert energy.active_j > 0
        assert energy.wasted_j == 0.0  # fault-free: nothing wasted


def test_unknown_worker_attributes_zero_not_crash():
    cluster = traced_cluster()
    cluster.run_saturated(invocations_per_function=1)
    (first, *_) = cluster.finished_traces()
    energy = attribute(first, EnergyLedger(clock=lambda: 0.0))  # no boards
    assert energy.total_j == 0.0
    assert energy.attempts


# ---------------------------------------------------------------------------
# Under chaos: linked attempts, no double-counted energy
# ---------------------------------------------------------------------------


def chaos_run(scale=4.0, seed=7, invocations_per_function=3):
    cluster = traced_cluster(
        worker_count=4,
        seed=seed,
        recovery=RecoveryPolicy(),
        trace=TraceConfig(boot_stages=False),
    )
    plan = ChaosPlan.sample(
        ChaosProfile(scale=scale),
        worker_count=4,
        horizon_s=120.0,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    cluster.run_saturated(
        invocations_per_function=invocations_per_function
    )
    return cluster


def test_chaos_links_extra_attempts_into_one_trace():
    cluster = chaos_run()
    traces = cluster.finished_traces()
    submitted = len(cluster.orchestrator.jobs)
    # Every logical job still produced exactly one sealed trace.
    assert len(traces) == submitted
    retried = [t for t in traces if len(t.attempts()) > 1]
    assert retried, "chaos at scale 4 should force at least one retry"
    for trace in retried:
        # The delivered attempt is one of the linked attempts...
        attempt_ids = {a.span_id for a in trace.attempts()}
        assert trace.delivered_attempt in attempt_ids
        # ...and the non-delivering ones closed with a recorded outcome.
        for attempt in trace.attempts():
            if attempt.span_id != trace.delivered_attempt:
                assert (attempt.attrs or {}).get("outcome") in {
                    "crashed", "discarded", "completed"
                }


def test_chaos_attempt_windows_are_disjoint_per_board():
    """A board runs one job at a time, so no two attempts overlap on
    the same worker — the structural reason energy cannot double-count."""
    cluster = chaos_run()
    by_worker = {}
    for trace in cluster.finished_traces():
        for attempt in trace.attempts():
            by_worker.setdefault(attempt.worker_id, []).append(
                (attempt.start_s, attempt.end_s)
            )
    for windows in by_worker.values():
        windows.sort()
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end - 1e-9


def test_chaos_energy_still_reconciles_and_waste_is_positive():
    cluster = chaos_run()
    # Delivered attempts reconcile with the ledger's billing even when
    # crashed attempts are interleaved on the same boards.
    assert_span_side_matches_ledger(cluster)
    # Crashed attempts burned real, separately-billed joules.
    energies = trace_energies(cluster)
    wasted = sum(e.wasted_j for e in energies)
    retried = [e for e in energies if len(e.attempts) > 1]
    assert retried and wasted > 0
    for energy in retried:
        # No double counting: total is exactly the sum of its
        # (disjoint) attempts, and waste is total minus delivered.
        assert abs(
            energy.total_j - sum(a.total_j for a in energy.attempts)
        ) < TOLERANCE_J
        delivered = sum(
            a.total_j for a in energy.attempts if a.delivered
        )
        assert abs(
            energy.wasted_j - (energy.total_j - delivered)
        ) < TOLERANCE_J


def test_chaos_events_are_annotated_on_affected_traces():
    cluster = chaos_run()
    annotations = [
        span
        for trace in cluster.finished_traces()
        for span in trace.find(obs.CHAOS_EVENT)
    ]
    assert annotations, "scale-4 chaos should hit at least one traced job"
    for span in annotations:
        assert span.duration_s == 0.0
        assert "kind" in (span.attrs or {})
