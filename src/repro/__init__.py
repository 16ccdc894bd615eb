"""Reproduction of *DAPPER: A Performance-Attack-Resilient Tracker for
RowHammer Defense* (HPCA 2025).

The package is organised by subsystem:

* :mod:`repro.config`   -- system configuration (Table I) and presets.
* :mod:`repro.dram`     -- request-level DDR5 timing, refresh and energy model.
* :mod:`repro.cache`    -- shared last-level cache.
* :mod:`repro.cpu`      -- synthetic workloads and the MLP-limited core model.
* :mod:`repro.crypto`   -- the low-latency block cipher used by DAPPER.
* :mod:`repro.mc`       -- the memory controller and tracker integration.
* :mod:`repro.trackers` -- baseline RowHammer mitigations (Hydra, START,
  CoMeT, ABACUS, BlockHammer, PARA, PrIDE, PRAC).
* :mod:`repro.core`     -- the paper's contribution: DAPPER-S and DAPPER-H.
* :mod:`repro.attacks`  -- Performance-Attack and RowHammer kernels.
* :mod:`repro.analysis` -- analytical security models and the ground-truth
  security auditor.
* :mod:`repro.sim`      -- the multi-core simulator and experiment helpers.
* :mod:`repro.eval`     -- per-figure / per-table experiment definitions.
"""

from repro.config import (
    MitigationCommand,
    SystemConfig,
    baseline_config,
    large_system_config,
)
from repro.sim.experiment import run_workload
from repro.trackers.registry import available_trackers, create_tracker

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "MitigationCommand",
    "baseline_config",
    "large_system_config",
    "run_workload",
    "available_trackers",
    "create_tracker",
    "__version__",
]
