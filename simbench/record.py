"""Record the default seed's simulated statistics into reference.json.

Usage, from the repository root::

    python3 simbench/record.py

``fleet``'s reference comes from its serial twin (one unsharded cluster
replaying the same trace), and the sharded run must reproduce it.  Run
this only when a change is meant to alter simulated outputs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from simbench import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.inputs(workloads.DEFAULT_SEED)
        if name == "fleet":
            reference[name] = workload.serial_twin(inputs)
        state = workload.setup(inputs)
        try:
            outcome = workload.run(state)
            problems = workload.check(state, outcome)
        finally:
            workload.close(state)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        if name == "fleet" and outcome.stats != reference[name]:
            print(
                f"fleet: sharded {outcome.stats} != serial {reference[name]}",
                file=sys.stderr,
            )
            return 1
        reference[name] = outcome.stats
        print(name, outcome.stats)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
