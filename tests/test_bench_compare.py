"""tools/bench_compare.py: baseline matching, tolerance band, exit codes."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
)
import bench_compare  # noqa: E402


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def bench_json(means, **extra):
    return {
        "benchmarks": [
            {"fullname": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ],
        **extra,
    }


def test_compare_splits_ok_regressed_unmatched():
    ok, regressions, unmatched = bench_compare.compare(
        baseline={"t1": 1.0, "t2": 2.0, "gone": 0.5},
        current={"t1": 1.5, "t2": 4.5, "new": 0.1},
        tolerance=1.0,
    )
    assert [row[0] for row in ok] == ["t1"]
    assert [row[0] for row in regressions] == ["t2"]
    assert sorted(name for name, _ in unmatched) == ["gone", "new"]


def test_faster_is_never_a_regression():
    ok, regressions, _ = bench_compare.compare(
        baseline={"t": 10.0}, current={"t": 0.01}, tolerance=0.0
    )
    assert regressions == []
    assert ok[0][3] == pytest.approx(0.001)


def test_main_exit_codes(tmp_path, capsys):
    baseline = write(
        tmp_path,
        "base.json",
        bench_json(
            {"t1": 1.0, "t2": 2.0},
            extra_runs={"megatrace_1e8": {"wall_clock_s": 9000.0}},
        ),
    )
    regressed = write(tmp_path, "cur.json", bench_json({"t1": 1.1, "t2": 9.0}))
    assert bench_compare.main([baseline, regressed]) == 1
    assert bench_compare.main([baseline, regressed, "--warn-only"]) == 0
    assert bench_compare.main([baseline, regressed, "--tolerance", "5.0"]) == 0
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    # extra_runs are reported, never compared.
    assert "megatrace_1e8" in out


def test_main_clean_pass(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", bench_json({"t1": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"t1": 1.2}))
    assert bench_compare.main([baseline, current]) == 0
    assert "within band" in capsys.readouterr().out


def test_unmatched_benchmarks_never_fail(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"old": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"new": 1.0}))
    assert bench_compare.main([baseline, current]) == 0


def entry(name, **stats):
    return {"fullname": name, "stats": stats}


def test_repeated_name_compares_the_last_appended_entry(tmp_path, capsys):
    # The old 1.0 s entry would flag 5.5 s as a regression; the newer
    # 5.0 s entry, appended after it, is the one compared.
    baseline = write(tmp_path, "base.json", {"benchmarks": [
        entry("t", median=1.0, mean=1.0),
        entry("t", median=5.0, mean=5.0),
    ]})
    current = write(tmp_path, "cur.json", {"benchmarks": [
        entry("t", median=5.5, mean=5.5),
    ]})
    assert bench_compare.load_benchmarks(baseline) == {
        "t": ({"median": 5.0, "mean": 5.0}, 2)
    }
    assert bench_compare.main([baseline, current]) == 0
    out = capsys.readouterr().out
    assert f"repeated  t: 2 entries in {baseline}, comparing the last appended" in out
    assert "ok        t: 5.0000s -> 5.5000s (1.10x)" in out


def test_compares_medians_and_falls_back_to_means(tmp_path, capsys):
    # By median "t" moved 1.5x (inside the 2x band); by mean it would
    # be 50x.  "old" has no median in the baseline, so both of its
    # sides are compared by mean: 1.5x, where the current median alone
    # would read 4.5x.
    baseline = write(tmp_path, "base.json", {"benchmarks": [
        entry("t", median=1.0, mean=0.1),
        entry("old", mean=2.0),
    ]})
    current = write(tmp_path, "cur.json", {"benchmarks": [
        entry("t", median=1.5, mean=5.0),
        entry("old", median=9.0, mean=3.0),
    ]})
    baseline_s, current_s, by_mean = bench_compare.pick_seconds(
        bench_compare.load_benchmarks(baseline),
        bench_compare.load_benchmarks(current),
    )
    assert baseline_s == {"t": 1.0, "old": 2.0}
    assert current_s == {"t": 1.5, "old": 3.0}
    assert by_mean == {"old"}
    assert bench_compare.main([baseline, current]) == 0
    out = capsys.readouterr().out
    assert "ok        t: 1.0000s -> 1.5000s (1.50x)" in out
    assert "ok        old: 2.0000s -> 3.0000s (1.50x, means: no median)" in out
