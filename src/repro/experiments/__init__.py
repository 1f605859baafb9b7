"""Experiment harness: regenerate every table and figure.

One module per paper artifact (``python -m repro <artifact>`` runs
each; :data:`repro.cli.ARTIFACTS` is the table of them):

- :mod:`repro.experiments.fig1_boot` — worker-OS boot-time trajectory.
- :mod:`repro.experiments.table1_workloads` — the 17-function suite,
  executed live.
- :mod:`repro.experiments.fig2_testbed` — the prototype test cluster's
  composition.
- :mod:`repro.experiments.fig3_runtime` — per-function Working/Overhead
  on both clusters.
- :mod:`repro.experiments.fig4_vmsweep` — energy efficiency and
  throughput vs. VM count.
- :mod:`repro.experiments.fig5_power` — power vs. active workers.
- :mod:`repro.experiments.table2_tco` — the 5-year cost comparison.
- :mod:`repro.experiments.headline` — the throughput match and the
  5.6x energy headline.
- :mod:`repro.experiments.fault_study` — goodput, latency, and energy
  under escalating chaos with the full recovery stack (extension).
- :mod:`repro.experiments.hybrid_study` — the SBC:VM mix sweep on the
  heterogeneous cluster with per-platform telemetry (extension).
- :mod:`repro.experiments.federation_study` — multi-region federation:
  users × regions × outage rates, failover MTTR, per-geo latency
  (extension).
- :mod:`repro.experiments.sdk_study` — client-driven map_reduce
  workloads through the :mod:`repro.client` SDK: users × fan-out ×
  backend kind (extension).
- :mod:`repro.experiments.energy_study` — the power-cap frontier
  (energy saved vs p99 paid) and per-tenant energy-budget runs on the
  online attribution ledger (extension).

Every module exposes ``run(...)`` returning structured results and
``render(...)`` producing the text the CLI and the benchmark harness
print; the studies with CSV data also expose ``tables(result)``, the
``(filename, headers, rows)`` tables that ``python -m repro <artifact>
--export-dir DIR`` writes (see :func:`repro.experiments.report.write_tables`).

:mod:`repro.experiments.runner` is the shared execution layer: the
sweep-shaped experiments fan their independent points across worker
processes via :func:`repro.experiments.runner.run_map`, which computes
every point afresh on each call.  The studies that honour ``--trace``
go through :func:`repro.experiments.runner.map_traced`: their chosen
point records spans inside the sweep, so no point is simulated twice.
"""

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
    runner,
    scale_study,
    sdk_study,
    table1_workloads,
    table2_tco,
)

__all__ = [
    "energy_study",
    "fault_study",
    "federation_study",
    "fig1_boot",
    "fig2_testbed",
    "fig3_runtime",
    "fig4_vmsweep",
    "fig5_power",
    "hardware_selection",
    "headline",
    "hybrid_study",
    "runner",
    "scale_study",
    "sdk_study",
    "table1_workloads",
    "table2_tco",
]
