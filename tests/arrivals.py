"""Hand-written arrival traces for tests."""

import numpy as np

from repro.workloads.traces import ColumnarTrace


def pairs_trace(pairs, duration_s):
    """A :class:`ColumnarTrace` of ``(time_s, function)`` pairs, in order."""
    functions = tuple(sorted({function for _, function in pairs}))
    return ColumnarTrace(
        times=np.array([time_s for time_s, _ in pairs], dtype=float),
        function_ids=np.array(
            [functions.index(function) for _, function in pairs],
            dtype=np.int64,
        ),
        functions=functions,
        duration_s=duration_s,
    )
