"""Simulation drivers: the multi-core simulator, metrics, experiment helpers
and the parallel sweep engine used by the evaluation harness, examples and
benchmarks.
"""

from repro.sim.metrics import (
    benign_normalized_performance,
    geometric_mean,
    normalized_performance,
    slowdown_percent,
    weighted_speedup,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.sweep import (
    ResultCache,
    ScenarioSpec,
    SweepOutcome,
    SweepRunner,
    SweepStats,
)
from repro.sim.experiment import run_workload

__all__ = [
    "Simulator",
    "SimulationResult",
    "run_workload",
    "ScenarioSpec",
    "SweepRunner",
    "SweepOutcome",
    "SweepStats",
    "ResultCache",
    "normalized_performance",
    "benign_normalized_performance",
    "weighted_speedup",
    "slowdown_percent",
    "geometric_mean",
]
