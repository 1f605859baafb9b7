"""tools/simbench_pairs.py: the paired statistics a speed claim reads."""

import os
import statistics
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
)
import simbench_pairs  # noqa: E402


def test_summarize_counts_wins_and_ties_for_neither_side():
    parent = [70.0, 71.0, 69.0, 72.0, 70.0]
    change = [60.0, 71.0, 70.0, 61.0, 59.0]
    summary = simbench_pairs.summarize(parent, change)
    # Pair 2 is a tie, pair 3 a parent win, the other three change wins.
    assert summary["change_wins"] == 3
    assert summary["parent_wins"] == 1
    assert summary["pairs"] == 5
    assert summary["parent_median"] == 70.0
    assert summary["change_median"] == 61.0


def test_summarize_quartiles_are_the_exclusive_method():
    """The quartiles the committed BENCH entries record: a
    ``power_trace_running_total`` parent side reads 73.24 and 78.22."""
    parent = [78.23, 76.12, 76.98, 72.41, 76.68, 78.22, 78.56, 73.52,
              75.03, 69.32]
    summary = simbench_pairs.summarize(parent, parent)
    q1, q3 = summary["parent_quartiles"]
    assert (round(q1, 2), round(q3, 2)) == (73.24, 78.22)
    assert summary["parent_median"] == statistics.median(parent)
    assert summary["change_wins"] == summary["parent_wins"] == 0


@pytest.mark.parametrize("parent, change", [
    ([1.0, 2.0], [1.0]),
    ([1.0], [1.0]),
])
def test_summarize_rejects_bad_input(parent, change):
    with pytest.raises(ValueError):
        simbench_pairs.summarize(parent, change)
