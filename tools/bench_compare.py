"""Compare a pytest-benchmark JSON run against a committed baseline.

The repo pins its performance story with committed baselines
(``BENCH_kernel.json``, ``BENCH_build.json``, ``BENCH_scale.json``) and
this tool turns a fresh ``--benchmark-json`` run into a regression
verdict: each benchmark's median is matched to the baseline by name and
must stay within a tolerance band.  Where either side's entry records
no median, both sides are compared by mean, and the output marks that
row.

Benchmarks are matched on their fully-qualified name.  Baselines are
appended to, never rewritten, so a name may appear more than once: the
last appended entry is the one compared, and the output lists every
repeated name with its entry count.  Benchmarks present on only one
side are reported but never fail the run (suites grow; baselines are
regenerated deliberately).  Baselines may also carry a top-level
``extra_runs`` object (e.g. the 10^8-invocation megatrace wall-clock,
measured outside pytest-benchmark); those are printed for context and
never compared — a CI runner's wall-clock is not the baseline
machine's.

Run::

    python tools/bench_compare.py BENCH_build.json fresh.json
    python tools/bench_compare.py BENCH_build.json fresh.json --tolerance 0.5
    python tools/bench_compare.py BENCH_build.json fresh.json --warn-only

Exits 0 when every matched benchmark is inside the band (or with
``--warn-only``, always); 1 when any regression exceeds it.  The wide
default band (+100%) reflects that wall-clock on shared CI runners
swings hard; the trajectory matters, not the third decimal.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict:
    """Map fullname -> ``(stats, entries)`` from a pytest-benchmark JSON
    file: the stats of the last appended entry of that name, and how
    many entries the name has in the file."""
    with open(path) as handle:
        payload = json.load(handle)
    runs = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats", {})
        if name and "mean" in stats:
            runs.setdefault(name, []).append(stats)
    return {name: (entries[-1], len(entries)) for name, entries in runs.items()}


def pick_seconds(baseline: dict, current: dict) -> "tuple[dict, dict, set]":
    """Seconds to compare per name: medians, or means on both sides
    where either side's entry records no median.

    Returns the baseline and current ``{fullname: seconds}`` and the
    names compared by mean.
    """
    sides = (baseline, current)
    by_mean = {
        name
        for side in sides
        for name, (stats, _count) in side.items()
        if "median" not in stats
    }
    baseline_s, current_s = (
        {
            name: stats["mean" if name in by_mean else "median"]
            for name, (stats, _count) in side.items()
        }
        for side in sides
    )
    return baseline_s, current_s, by_mean


def load_extra_runs(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle).get("extra_runs", {})


def compare(
    baseline: dict, current: dict, tolerance: float
) -> "tuple[list, list, list]":
    """Split matched benchmarks into (ok, regressions, unmatched).

    A regression is ``current > baseline * (1 + tolerance)``.  Getting
    faster is never a failure — it is the expected direction.
    """
    ok, regressions, unmatched = [], [], []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline or name not in current:
            unmatched.append((name, "baseline" if name in current else "current"))
            continue
        base, now = baseline[name], current[name]
        ratio = now / base if base > 0 else float("inf")
        row = (name, base, now, ratio)
        if now > base * (1.0 + tolerance):
            regressions.append(row)
        else:
            ok.append(row)
    return ok, regressions, unmatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare pytest-benchmark JSON against a baseline"
    )
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("current", help="fresh --benchmark-json output")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.0,
        help="allowed slowdown as a fraction of the baseline median "
        "(default 1.0 = may take up to 2x the baseline)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI trend mode)",
    )
    args = parser.parse_args(argv)

    paths = (args.baseline, args.current)
    loaded = [load_benchmarks(path) for path in paths]
    baseline_s, current_s, by_mean = pick_seconds(*loaded)
    ok, regressions, unmatched = compare(baseline_s, current_s, args.tolerance)

    def statistic(name: str) -> str:
        return ", means: no median" if name in by_mean else ""

    for path, side in zip(paths, loaded):
        for name, (_stats, count) in sorted(side.items()):
            if count > 1:
                print(
                    f"  repeated  {name}: {count} entries in {path}, "
                    "comparing the last appended"
                )
    for name, base, now, ratio in ok:
        print(
            f"  ok        {name}: {base:.4f}s -> {now:.4f}s "
            f"({ratio:.2f}x{statistic(name)})"
        )
    for name, side in unmatched:
        print(f"  unmatched {name} (missing from {side})")
    for name, base, now, ratio in regressions:
        print(
            f"  REGRESSED {name}: {base:.4f}s -> {now:.4f}s "
            f"({ratio:.2f}x{statistic(name)}, band is "
            f"{1.0 + args.tolerance:.2f}x)"
        )

    extra = load_extra_runs(args.baseline)
    if extra:
        print("  baseline extra runs (informational):")
        for name, info in sorted(extra.items()):
            print(f"    {name}: {json.dumps(info, sort_keys=True)}")

    matched = len(ok) + len(regressions)
    verdict = "within band" if not regressions else "REGRESSIONS FOUND"
    print(
        f"{verdict}: {len(ok)}/{matched} matched benchmarks inside "
        f"{1.0 + args.tolerance:.2f}x band"
    )
    if regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
