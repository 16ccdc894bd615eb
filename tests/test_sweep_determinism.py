"""Determinism and regression tests for the sweep engine.

The same :class:`ScenarioSpec` batch must produce bit-identical normalized
performance whether it is executed serially, fanned out over a process pool,
or replayed from a warm on-disk cache -- otherwise cached and distributed
sweeps could silently disagree with the figures in the paper reproduction.
"""

from __future__ import annotations

import json

import pytest

from repro.config import reduced_row_config
from repro.cpu.workloads import get_workload
from repro.sim.simulator import SimulationResult
from repro.sim.sweep import ScenarioSpec, SweepRunner

REQUESTS = 500


@pytest.fixture(scope="module")
def sweep_config():
    return reduced_row_config(nrh=500, rows_per_bank=2048).with_refresh_window_scale(
        1 / 32
    )


@pytest.fixture(scope="module")
def specs(sweep_config):
    """A small batch covering benign, mitigated and attacked scenarios."""
    return [
        ScenarioSpec(
            tracker="none",
            workload="470.lbm",
            requests_per_core=REQUESTS,
            config=sweep_config,
        ),
        ScenarioSpec(
            tracker="dapper-h",
            workload="470.lbm",
            requests_per_core=REQUESTS,
            config=sweep_config,
        ),
        ScenarioSpec(
            tracker="comet",
            workload="470.lbm",
            attack="rat-thrash",
            requests_per_core=REQUESTS,
            attack_warmup_activations=20_000,
            config=sweep_config,
        ),
    ]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep-cache") / "wh.sqlite"


@pytest.fixture(scope="module")
def serial_outcomes(specs, warm_store):
    """Reference run: serial execution, populating the on-disk cache."""
    return SweepRunner(store=warm_store, jobs=1).run(specs)


def _fingerprint(outcomes):
    """Everything determinism guarantees: normals and per-core IPCs."""
    return [
        (
            outcome.normalized,
            tuple(core.ipc for core in outcome.result.core_results),
            tuple(core.ipc for core in outcome.baseline.core_results),
        )
        for outcome in outcomes
    ]


class TestExecutionPathDeterminism:
    def test_serial_run_is_simulated_not_cached(self, serial_outcomes):
        assert all(not outcome.from_cache for outcome in serial_outcomes)

    def test_process_pool_matches_serial(self, specs, serial_outcomes):
        pool_outcomes = SweepRunner(jobs=4).run(specs)
        assert _fingerprint(pool_outcomes) == _fingerprint(serial_outcomes)

    def test_warm_cache_replay_matches_serial(
        self, specs, serial_outcomes, warm_store
    ):
        replayed = SweepRunner(store=warm_store, jobs=1).run(specs)
        assert all(outcome.from_cache for outcome in replayed)
        assert _fingerprint(replayed) == _fingerprint(serial_outcomes)

    def test_benign_scenario_normalizes_to_exactly_one(self, serial_outcomes):
        # The "none" benign scenario *is* its own baseline: the sweep planner
        # must collapse the two into one simulation, making the ratio exact.
        assert serial_outcomes[0].normalized == 1.0

    def test_attack_scenario_actually_degrades(self, serial_outcomes):
        assert serial_outcomes[2].normalized < 0.95


class TestScenarioHash:
    def test_key_is_stable_across_equivalent_specs(self, sweep_config):
        by_name = ScenarioSpec(
            tracker="dapper-h", workload="470.lbm", config=sweep_config
        )
        by_profile = ScenarioSpec(
            tracker="dapper-h", workload=get_workload("470.lbm"), config=sweep_config
        )
        assert by_name.cache_key() == by_profile.cache_key()

    def test_benign_specs_ignore_unused_warmup_cap(self, sweep_config):
        base = ScenarioSpec(tracker="none", workload="470.lbm", config=sweep_config)
        capped = ScenarioSpec(
            tracker="none",
            workload="470.lbm",
            attack_warmup_activations=99_999,
            config=sweep_config,
        )
        assert base.cache_key() == capped.cache_key()

    def test_normalization_flag_does_not_change_measured_key(self, sweep_config):
        plain = ScenarioSpec(
            tracker="dapper-h",
            workload="470.lbm",
            attack="refresh",
            config=sweep_config,
        )
        matched = ScenarioSpec(
            tracker="dapper-h",
            workload="470.lbm",
            attack="refresh",
            attack_matched_baseline=True,
            config=sweep_config,
        )
        assert plain.cache_key() == matched.cache_key()
        assert (
            plain.baseline_spec().cache_key() != matched.baseline_spec().cache_key()
        )


class TestResultSerialization:
    def test_round_trip_through_json_is_lossless(self, serial_outcomes):
        for outcome in serial_outcomes:
            result = outcome.result
            replayed = SimulationResult.from_dict(
                json.loads(json.dumps(result.to_dict()))
            )
            assert replayed == result

    def test_round_trip_preserves_security_report(self, sweep_config):
        spec = ScenarioSpec(
            tracker="none",
            workload="453.povray",
            attack="rowhammer",
            requests_per_core=400,
            enable_auditor=True,
            config=sweep_config,
        )
        result = spec.run()
        replayed = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert replayed.security is not None
        assert replayed.security.is_secure == result.security.is_secure
        assert replayed.security.violations == result.security.violations
        assert replayed == result
