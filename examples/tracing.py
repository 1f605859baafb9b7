"""Tracing: see where one invocation's milliseconds and joules went.

The aggregate telemetry says *what* the cluster did (199 func/min at
5.7 J/function); the span trees from ``repro.obs`` say *why*: every
sampled invocation records its queue wait, the 1.51 s boot with
per-stage children, input transfer, execute, result transfer, and the
clean-state reboot — plus orchestrator annotations (assign, retries,
hedges, chaos events).  This example runs a small traced cluster with
an energy ledger, walks one trace's critical path, attributes its
joules span by span through the ledger, shows both reconciling exactly
with the aggregate accounting, and writes a Perfetto-ready trace file.

Run:  python examples/tracing.py
"""

from repro.cluster import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.obs import TraceConfig
from repro.obs.critical_path import analyze, max_reconciliation_gap, reconcile
from repro.obs.energy import attribute
from repro.obs.export import validate_chrome_trace_file, write_chrome_trace


def main() -> None:
    print("=== A traced 6-board run ===")
    cluster = MicroFaaSCluster(
        worker_count=6,
        seed=11,
        policy=LeastLoadedPolicy(),
        trace=TraceConfig(sample_rate=1.0),
    )
    ledger = cluster.enable_energy_ledger()
    result = cluster.run_saturated(invocations_per_function=3)
    traces = cluster.finished_traces()
    print(f"  jobs completed : {result.jobs_completed}")
    print(f"  traces sealed  : {len(traces)}")

    print("\n=== One invocation's critical path ===")
    trace = max(traces, key=lambda t: t.end_s - t.start_s)
    path = analyze(trace)
    print(f"  function       : {trace.function} (job {trace.trace_id}, "
          f"worker {path.worker_id})")
    for name, seconds in path.segments().items():
        print(f"  {name:16s}: {seconds * 1e3:8.1f} ms")
    print(f"  {'end to end':16s}: {path.latency_s * 1e3:8.1f} ms "
          f"({path.unattributed_s * 1e3:.3f} ms unattributed)")

    print("\n=== The same invocation's joules, span by span ===")
    energy = attribute(trace, ledger)
    for phase, joules in energy.phase_totals().items():
        print(f"  {phase:16s}: {joules:8.3f} J")
    print(f"  {'total':16s}: {energy.total_j:8.3f} J "
          f"(delivered active {energy.delivered_active_j:.3f} J, "
          f"wasted {energy.wasted_j:.3f} J)")

    print("\n=== Reconciliation with the aggregate accounting ===")
    gap = max_reconciliation_gap(
        reconcile(traces, cluster.orchestrator.telemetry)
    )
    print(f"  worst span-vs-telemetry working/overhead gap: {gap:.2e} s")
    span_side = {}
    for t in traces:
        e = attribute(t, ledger)
        span_side[t.function] = (
            span_side.get(t.function, 0.0) + e.delivered_active_j
        )
    worst = max(
        abs(span_side[name] - joules)
        for name, joules in ledger.function_joules.items()
    )
    print(f"  worst span-vs-accounting energy gap         : {worst:.2e} J")

    print("\n=== Export for https://ui.perfetto.dev ===")
    events = write_chrome_trace(traces, "tracing_example.json")
    problems = validate_chrome_trace_file("tracing_example.json")
    print(f"  tracing_example.json: {events} events, "
          f"{len(problems)} validation problems")
    assert not problems


if __name__ == "__main__":
    main()
