"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro fig1
    python -m repro table2
    python -m repro headline --invocations 60
    python -m repro all
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    energy_study,
    fault_study,
    federation_study,
    fig1_boot,
    fig3_runtime,
    fig4_vmsweep,
    fig5_power,
    hardware_selection,
    headline,
    hybrid_study,
    megatrace,
    scale_study,
    sdk_study,
    table1_workloads,
    table2_tco,
)

#: artifact name -> (description, runner(invocations, jobs, trace,
#: shards) -> text).  ``jobs`` reaches the experiments ported onto
#: :mod:`repro.experiments.runner`, which recompute every point on each
#: run; ``trace`` is the ``--trace`` export path and only reaches the
#: artifacts in :data:`TRACEABLE`; ``shards`` is the ``--shards``
#: simulation split and only reaches :data:`SHARDABLE` artifacts.
ARTIFACTS: Dict[str, tuple] = {
    "fig1": (
        "worker-OS boot-time trajectory (1.51 s ARM / 0.96 s x86)",
        lambda n, jobs, trace, shards: fig1_boot.render(fig1_boot.run()),
    ),
    "table1": (
        "the 17-function workload suite, executed live",
        lambda n, jobs, trace, shards: table1_workloads.render(
            table1_workloads.run(scale=0.05, jobs=jobs)
        ),
    ),
    "fig3": (
        "per-function Working/Overhead split on both clusters",
        lambda n, jobs, trace, shards: fig3_runtime.render(
            fig3_runtime.run(invocations_per_function=n)
        ),
    ),
    "fig4": (
        "energy efficiency & throughput vs VM count",
        lambda n, jobs, trace, shards: fig4_vmsweep.render(
            fig4_vmsweep.run(
                invocations_per_function=max(4, n // 3),
                jobs=jobs,
            )
        ),
    ),
    "fig5": (
        "power vs active workers (energy proportionality)",
        lambda n, jobs, trace, shards: fig5_power.render(
            fig5_power.run(invocations=max(3, n // 4))
        ),
    ),
    "table2": (
        "5-year TCO comparison (exact to the dollar)",
        lambda n, jobs, trace, shards: table2_tco.render(table2_tco.run()),
    ),
    "headline": (
        "throughput match + the 5.6x energy headline",
        lambda n, jobs, trace, shards: headline.render(
            headline.run(
                invocations_per_function=n,
                jobs=jobs,
                trace_path=trace,
            )
        ),
    ),
    "fault-study": (
        "goodput/energy under escalating chaos; recovery stack (extension)",
        lambda n, jobs, trace, shards: fault_study.render(
            fault_study.run(
                invocations_per_function=max(2, n // 8),
                jobs=jobs,
                trace_path=trace,
            )
        ),
    ),
    "federation-study": (
        "multi-region federation: failover, WAN, per-geo latency (extension)",
        lambda n, jobs, trace, shards: federation_study.render(
            federation_study.run(
                duration_s=max(30.0, 4.0 * n),
                jobs=jobs,
                trace_path=trace,
            )
        ),
    ),
    "hybrid-study": (
        "SBC:VM mix sweep on the heterogeneous cluster (extension)",
        lambda n, jobs, trace, shards: hybrid_study.render(
            hybrid_study.run(
                invocations_per_function=max(2, n // 8),
                jobs=jobs,
                trace_path=trace,
                shards=shards,
            )
        ),
    ),
    "sdk-study": (
        "client SDK map_reduce sweep: users x fan-out x backend (extension)",
        lambda n, jobs, trace, shards: sdk_study.render(
            sdk_study.run(
                fanouts=tuple(sorted({8, max(8, n)})),
                jobs=jobs,
                trace_path=trace,
            )
        ),
    ),
    "energy-study": (
        "power-cap frontier + per-tenant energy budgets (extension)",
        lambda n, jobs, trace, shards: energy_study.render(
            energy_study.run(
                duration_s=max(60.0, 8.0 * n),
                jobs=jobs,
                trace_path=trace,
                shards=shards,
            )
        ),
    ),
    "hardware": (
        "candidate worker boards compared (extension)",
        lambda n, jobs, trace, shards: hardware_selection.render(
            hardware_selection.run(invocations_per_function=n)
        ),
    ),
    "scale": (
        "the prototype architecture at fleet scale (extension)",
        lambda n, jobs, trace, shards: scale_study.render(
            scale_study.run(
                worker_counts=(10, 100, 400, 800),
                jobs_per_worker=max(2, n // 8),
                jobs=jobs,
            )
        ),
    ),
    "scale-frontier": (
        "the 2,000-5,000-worker streaming-telemetry sweep (extension)",
        lambda n, jobs, trace, shards: scale_study.render(
            scale_study.run_frontier(
                jobs_per_worker=max(2, n // 10),
                jobs=jobs,
                shards=shards,
            )
        ),
    ),
    "megatrace": (
        "fast-path trace replay, 10,000 x --invocations arrivals (extension)",
        lambda n, jobs, trace, shards, streaming: megatrace.render(
            megatrace.run(
                invocations=n * 10_000,
                trace_path=trace,
                shards=shards,
                streaming=streaming,
            )
        ),
    ),
}

#: Artifacts that honour ``--trace`` (the rest would silently ignore it).
TRACEABLE = frozenset(
    {"headline", "fault-study", "federation-study", "hybrid-study",
     "megatrace", "sdk-study", "energy-study"}
)

#: Artifacts that honour ``--shards`` (multi-process sharded simulation;
#: see :mod:`repro.shard`).
SHARDABLE = frozenset(
    {"scale-frontier", "megatrace", "hybrid-study", "energy-study"}
)

#: Artifacts that honour ``--streaming`` (the bounded-RSS replay fast
#: path: chunked trace generation + autocompacting power traces).
STREAMABLE = frozenset({"megatrace"})


def _only(names) -> str:
    """``"a, b, c only"``: the artifacts an option applies to."""
    return ", ".join(sorted(names)) + " only"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MicroFaaS (DATE 2022) reproduction harness",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all", "list"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=30,
        help="invocations per function for simulation-backed artifacts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-shaped artifacts "
        "(0 = one per CPU core)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write per-invocation span trees to PATH (Chrome trace-event "
        "JSON; JSONL if PATH ends in .jsonl) — " + _only(TRACEABLE),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split each simulation across N shard processes "
        f"({_only(SHARDABLE)})",
    )
    parser.add_argument(
        "--streaming",
        choices=["auto", "on", "off"],
        default="auto",
        help="bounded-RSS replay fast path: chunked arrival generation + "
        f"autocompacting power traces ({_only(STREAMABLE)}; auto = on past "
        f"{megatrace.STREAMING_THRESHOLD:,} invocations)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each artifact under cProfile and write "
        "profile_<artifact>.pstats into --export-dir",
    )
    parser.add_argument(
        "--export-dir",
        default="artifacts",
        help="directory for --profile pstats output (CSV exports come from "
        "repro.experiments.export.export_all, not the CLI)",
    )
    return parser


def _run_artifact(name: str, args, jobs: Optional[int]) -> int:
    """Run one artifact, optionally under cProfile."""
    runner = ARTIFACTS[name][1]
    trace = args.trace if name in TRACEABLE else None
    shards = args.shards if name in SHARDABLE else 1
    # Streamable artifacts take one extra argument; the rest keep the
    # four-argument runner signature.
    extra = ()
    if name in STREAMABLE:
        extra = ({"auto": None, "on": True, "off": False}[args.streaming],)
    if not args.profile:
        print(runner(args.invocations, jobs, trace, shards, *extra))
        print()
        if trace is not None:
            print(f"trace written to {trace}", file=sys.stderr)
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        text = runner(args.invocations, jobs, trace, shards, *extra)
    finally:
        profiler.disable()
    print(text)
    print()
    os.makedirs(args.export_dir, exist_ok=True)
    stats_path = os.path.join(
        args.export_dir, f"profile_{name.replace('-', '_')}.pstats"
    )
    profiler.dump_stats(stats_path)
    print(f"profile written to {stats_path}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.invocations < 1:
        print("error: --invocations must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs > 0 else None  # None -> cpu_count
    if args.trace is not None and args.artifact not in TRACEABLE:
        print(
            "error: --trace applies to " + _only(TRACEABLE),
            file=sys.stderr,
        )
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 and args.artifact not in SHARDABLE:
        print(
            "error: --shards applies to " + _only(SHARDABLE),
            file=sys.stderr,
        )
        return 2
    if args.artifact == "list":
        width = max(len(name) for name in ARTIFACTS)
        for name in sorted(ARTIFACTS):
            print(f"{name:{width}s} {ARTIFACTS[name][0]}")
        return 0
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in names:
        _run_artifact(name, args, jobs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
