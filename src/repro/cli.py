"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro fig1
    python -m repro table2 --export-dir out
    python -m repro headline --invocations 60 --trace headline.json
    python -m repro all

:data:`ARTIFACTS` is the one table of artifacts (see :class:`Artifact`);
the help text and the option checks are derived from it.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import (
    energy_study,
    fault_study,
    federation_study,
    fig1_boot,
    fig2_testbed,
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
from repro.experiments.report import Table, write_tables


@dataclass(frozen=True)
class Artifact:
    """One artifact: how the CLI runs, renders and exports it."""

    description: str
    #: The study module: its ``render(result)`` prints the artifact and
    #: its ``tables(result)``, where it has one, is what ``--export-dir``
    #: writes.
    module: ModuleType
    #: Parsed arguments -> the study's result.  ``jobs`` is ``None`` for
    #: one process per CPU core; ``trace`` and ``shards`` reach only the
    #: artifacts that declare them below.
    run: Callable[[argparse.Namespace], Any]
    #: Options the run honours; the CLI rejects each one elsewhere.
    trace: bool = False
    shards: bool = False
    #: False where the module's tables would overwrite another entry's.
    exports: bool = True

    @property
    def tables(self) -> Optional[Callable[[Any], List[Table]]]:
        return getattr(self.module, "tables", None) if self.exports else None


ARTIFACTS: Dict[str, Artifact] = {
    "fig1": Artifact(
        "worker-OS boot-time trajectory (1.51 s ARM / 0.96 s x86)",
        fig1_boot, lambda a: fig1_boot.run(),
    ),
    "fig2": Artifact(
        "the prototype test cluster's composition (inventory view)",
        fig2_testbed, lambda a: fig2_testbed.run(),
    ),
    "table1": Artifact(
        "the 17-function workload suite, executed live",
        table1_workloads,
        lambda a: table1_workloads.run(scale=0.05, jobs=a.jobs),
    ),
    "fig3": Artifact(
        "per-function Working/Overhead split on both clusters",
        fig3_runtime,
        lambda a: fig3_runtime.run(invocations_per_function=a.invocations),
    ),
    "fig4": Artifact(
        "energy efficiency & throughput vs VM count",
        fig4_vmsweep,
        lambda a: fig4_vmsweep.run(
            invocations_per_function=max(4, a.invocations // 3), jobs=a.jobs
        ),
    ),
    "fig5": Artifact(
        "power vs active workers (energy proportionality)",
        fig5_power,
        lambda a: fig5_power.run(invocations=max(3, a.invocations // 4)),
    ),
    "table2": Artifact(
        "5-year TCO comparison (exact to the dollar)",
        table2_tco, lambda a: table2_tco.run(),
    ),
    "headline": Artifact(
        "throughput match + the 5.6x energy headline",
        headline,
        lambda a: headline.run(
            invocations_per_function=a.invocations,
            jobs=a.jobs,
            trace_path=a.trace,
        ),
        trace=True,
    ),
    "fault-study": Artifact(
        "goodput/energy under escalating chaos; recovery stack (extension)",
        fault_study,
        lambda a: fault_study.run(
            invocations_per_function=max(2, a.invocations // 8),
            jobs=a.jobs,
            trace_path=a.trace,
        ),
        trace=True,
    ),
    "federation-study": Artifact(
        "multi-region federation: failover, WAN, per-geo latency (extension)",
        federation_study,
        lambda a: federation_study.run(
            duration_s=max(30.0, 4.0 * a.invocations),
            jobs=a.jobs,
            trace_path=a.trace,
        ),
        trace=True,
    ),
    "hybrid-study": Artifact(
        "SBC:VM mix sweep on the heterogeneous cluster (extension)",
        hybrid_study,
        lambda a: hybrid_study.run(
            invocations_per_function=max(2, a.invocations // 8),
            jobs=a.jobs,
            trace_path=a.trace,
            shards=a.shards,
        ),
        trace=True,
        shards=True,
    ),
    "sdk-study": Artifact(
        "client SDK map_reduce sweep: users x fan-out x backend (extension)",
        sdk_study,
        lambda a: sdk_study.run(
            fanouts=tuple(sorted({8, max(8, a.invocations)})),
            jobs=a.jobs,
            trace_path=a.trace,
        ),
        trace=True,
    ),
    "energy-study": Artifact(
        "power-cap frontier + per-tenant energy budgets (extension)",
        energy_study,
        lambda a: energy_study.run(
            duration_s=max(60.0, 8.0 * a.invocations),
            jobs=a.jobs,
            trace_path=a.trace,
            shards=a.shards,
        ),
        trace=True,
        shards=True,
    ),
    "hardware": Artifact(
        "candidate worker boards compared (extension)",
        hardware_selection,
        lambda a: hardware_selection.run(
            invocations_per_function=a.invocations
        ),
    ),
    "scale": Artifact(
        "the prototype architecture at fleet scale (extension)",
        scale_study,
        lambda a: scale_study.run(
            worker_counts=(10, 100, 400, 800),
            jobs_per_worker=max(2, a.invocations // 8),
            jobs=a.jobs,
        ),
    ),
    "scale-frontier": Artifact(
        "the 2,000-5,000-worker streaming-telemetry sweep (extension)",
        scale_study,
        lambda a: scale_study.run_frontier(
            jobs_per_worker=max(2, a.invocations // 10),
            jobs=a.jobs,
            shards=a.shards,
        ),
        shards=True,
        exports=False,  # scale_study.csv is the scale entry's
    ),
    "megatrace": Artifact(
        "fast-path trace replay, 10,000 x --invocations arrivals (extension)",
        megatrace,
        lambda a: megatrace.run(
            invocations=a.invocations * 10_000,
            trace_path=a.trace,
            shards=a.shards,
        ),
        trace=True,
        shards=True,
    ),
}


def _only(option: str) -> str:
    """``"a, b, c only"``: the artifacts whose entry declares ``option``
    (a field of :class:`Artifact`)."""
    names = sorted(
        name for name, artifact in ARTIFACTS.items()
        if getattr(artifact, option)
    )
    return ", ".join(names) + " only"


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
        "JSON; JSONL if PATH ends in .jsonl) — " + _only("trace"),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split each simulation across N shard processes "
        f"({_only('shards')})",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each artifact under cProfile and write "
        "profile_<artifact>.pstats into --export-dir (default: artifacts)",
    )
    parser.add_argument(
        "--export-dir",
        metavar="DIR",
        default=None,
        help="write the CSV tables of each result just rendered into DIR "
        f"({_only('tables')}; all exports every one of them); "
        "--profile writes here too",
    )
    return parser


def _run_artifact(name: str, args: argparse.Namespace) -> None:
    """Run, render and print one artifact; export its tables and its
    profile when asked."""
    artifact = ARTIFACTS[name]

    def produce():
        result = artifact.run(args)
        return result, artifact.module.render(result)

    profiler = cProfile.Profile() if args.profile else None
    result, text = profiler.runcall(produce) if profiler else produce()
    print(text)
    print()
    if args.trace is not None:
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.export_dir is not None and artifact.tables is not None:
        for path in write_tables(args.export_dir, artifact.tables(result)):
            print(f"table written to {path}", file=sys.stderr)
    if profiler is not None:
        directory = args.export_dir or "artifacts"
        os.makedirs(directory, exist_ok=True)
        stats_path = os.path.join(
            directory, f"profile_{name.replace('-', '_')}.pstats"
        )
        profiler.dump_stats(stats_path)
        print(f"profile written to {stats_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.invocations < 1:
        print("error: --invocations must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    artifact = ARTIFACTS.get(args.artifact)
    for flag, field, given in (
        ("--trace", "trace", args.trace is not None),
        ("--shards", "shards", args.shards > 1),
        # --export-dir also takes --profile output, and ``all`` exports
        # every artifact that has tables.
        ("--export-dir", "tables", args.export_dir is not None
         and not args.profile and args.artifact != "all"),
    ):
        if given and not getattr(artifact, field, None):
            print(f"error: {flag} applies to " + _only(field), file=sys.stderr)
            return 2
    args.jobs = args.jobs or None  # None -> one process per CPU core
    if args.artifact == "list":
        width = max(len(name) for name in ARTIFACTS)
        for name in sorted(ARTIFACTS):
            print(f"{name:{width}s} {ARTIFACTS[name].description}")
        return 0
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in names:
        _run_artifact(name, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
