"""Alternating A/B pairs of simbench runs from two checkouts.

Host speed on a shared machine drifts over minutes, so a speed claim
compares the two sides in pairs that run back to back, with the side
that runs first alternating from pair to pair.  For every seed this
runs ``--pairs`` pairs of ``simbench/run.py`` (``--trace 0``), once from
each checkout, and prints each side's median and quartiles of every
end-to-end metric and how many pairs the change won.  A pair whose two
values are equal is a tie and counts for neither side.

Run from anywhere, with two checkouts of the repository (say, a
``git archive`` of the parent commit and the working tree)::

    python tools/simbench_pairs.py PARENT CHANGE --workload testbed \\
        --seeds 1 3 --pairs 10 --seconds 20
    python tools/simbench_pairs.py PARENT CHANGE --workload stream \\
        --pairs 3 --json-out pairs.json --label "owner-kept bookings"

Every metric is lower-is-better.  ``--json-out`` writes the runs in the
shape of a ``BENCH_*.json`` ``extra_runs`` entry: per seed, both sides'
``us_per_inv`` in run order, their medians and quartiles, the change's
wins, and the other metrics' medians.
Exits 1 if any run printed ``"correct": false`` or failed invocations.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

#: End-to-end metrics simbench prints; lower is better for each.
METRICS = ("us_per_inv", "setup_s", "peak_rss_mib")


def summarize(parent: Sequence[float],
              change: Sequence[float]) -> Dict[str, object]:
    """Medians, quartiles and pair wins of one lower-is-better metric.

    ``parent[i]`` and ``change[i]`` are pair ``i``.  Quartiles are
    :func:`statistics.quantiles`' default (exclusive) method, and need
    at least two values per side.  ``change_wins`` counts pairs where
    the change is lower, ``parent_wins`` those where the parent is;
    equal values count for neither.
    """
    if len(parent) != len(change):
        raise ValueError(
            f"unpaired runs: {len(parent)} parent, {len(change)} change"
        )
    if len(parent) < 2:
        raise ValueError("need at least two pairs")
    change_wins = sum(1 for p, c in zip(parent, change) if c < p)
    parent_wins = sum(1 for p, c in zip(parent, change) if c > p)
    summary: Dict[str, object] = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        summary[f"{side}_median"] = statistics.median(values)
        summary[f"{side}_quartiles"] = [q1, q3]
    summary["change_wins"] = change_wins
    summary["parent_wins"] = parent_wins
    summary["pairs"] = len(parent)
    return summary


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``simbench/run.py`` run from ``checkout``: its last line."""
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: simbench exited {done.returncode}: "
            f"{done.stderr.strip()[-500:]}"
        )
    return json.loads(lines[-1])


def run_pairs(parent: str, change: str, workload: str, seed: int,
              pairs: int, seconds: float) -> Dict[str, Dict[str, List[float]]]:
    """``{"parent"|"change": {metric: [value per pair]}}``, plus each
    side's ``"bad"`` count of incorrect or failing runs."""
    sides = {"parent": parent, "change": change}
    values = {side: {name: [] for name in METRICS} for side in sides}
    bad = {side: 0 for side in sides}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, seed, seconds)
            if not result.get("correct") or result.get("failed"):
                bad[side] += 1
            for name in METRICS:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"  seed {seed} pair {index + 1}/{pairs}: "
              + ", ".join(f"{side} {values[side]['us_per_inv'][-1]:.2f}"
                          for side in sides), file=sys.stderr)
    values["parent"]["bad"] = bad["parent"]
    values["change"]["bad"] = bad["change"]
    return values


def _rounded(value, digits: int):
    if isinstance(value, list):
        return [round(item, digits) for item in value]
    return round(value, digits) if isinstance(value, float) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=("testbed", "fleet", "stream", "observed"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json-out", help="write an extra_runs entry here")
    parser.add_argument("--label", default="",
                        help="what the change is, for --json-out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    entry: Dict[str, object] = {
        "bench": f"simbench {args.workload}",
        "command": (
            f"python3 simbench/run.py --workload {args.workload} --seed "
            f"{{{','.join(map(str, args.seeds))}}} --seconds "
            f"{args.seconds:g} --trace 0, {args.pairs} pairs per seed "
            "alternating which side runs first"
        ),
        "measured": datetime.date.today().isoformat(),
        "change": args.label,
    }
    failing = False
    for seed in args.seeds:
        values = run_pairs(args.parent, args.change, args.workload, seed,
                           args.pairs, args.seconds)
        print(f"{args.workload} seed {seed}, {args.pairs} pairs "
              "(parent → change):")
        seed_entry: Dict[str, object] = {}
        for name in METRICS:
            summary = summarize(values["parent"][name],
                                values["change"][name])
            q1, q3 = summary["parent_quartiles"]
            print(
                f"  {name}: median {summary['parent_median']:.4g} → "
                f"{summary['change_median']:.4g} (parent IQR {q3 - q1:.4g}); "
                f"change better in {summary['change_wins']}/{args.pairs}, "
                f"parent better in {summary['parent_wins']}/{args.pairs}"
            )
            if name == "us_per_inv":
                seed_entry[f"parent_{name}"] = _rounded(values["parent"][name], 2)
                seed_entry[f"change_{name}"] = _rounded(values["change"][name], 2)
                for key in ("parent_median", "parent_quartiles",
                            "change_median", "change_quartiles"):
                    seed_entry[key] = _rounded(summary[key], 2)
                seed_entry["change_wins"] = (
                    f"{summary['change_wins']}/{args.pairs}"
                )
            else:
                seed_entry[f"{name}_medians"] = [
                    _rounded(summary["parent_median"], 4),
                    _rounded(summary["change_median"], 4),
                ]
        for side in ("parent", "change"):
            if values[side]["bad"]:
                failing = True
                print(f"  {side}: {values[side]['bad']} runs incorrect or "
                      "with failed invocations")
        entry[f"seed_{seed}"] = seed_entry
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(entry, handle, indent=1)
            handle.write("\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
