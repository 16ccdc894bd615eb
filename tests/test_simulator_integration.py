"""Integration tests: full simulations through the public experiment API.

These use the reduced-row configuration and small request budgets so the whole
file runs in tens of seconds while still exercising every layer (workload
generation, LLC, controller, tracker, DRAM timing, metrics, security audit).
"""

import pytest

from repro.config import reduced_row_config
from repro.sim.experiment import run_workload
from repro.sim.sweep import ScenarioSpec, SweepRunner
from repro.trackers.registry import available_trackers, create_tracker


REQUESTS = 1_500
WARMUP = 4_000


@pytest.fixture(scope="module")
def config():
    return reduced_row_config(nrh=500, rows_per_bank=2048).with_refresh_window_scale(
        1 / 32
    )


def _runner(config, requests_per_core, attack_warmup_activations):
    """``run(tracker, workload, ...)``: one scenario through one shared
    :class:`SweepRunner`, normalised against its insecure baseline."""
    sweep = SweepRunner()

    def run(tracker, workload, attack=None, attack_matched_baseline=False):
        return sweep.run_one(
            ScenarioSpec(
                tracker=tracker,
                workload=workload,
                attack=attack,
                requests_per_core=requests_per_core,
                attack_matched_baseline=attack_matched_baseline,
                attack_warmup_activations=attack_warmup_activations,
                config=config,
            )
        )

    return run


@pytest.fixture(scope="module")
def runner(config):
    return _runner(config, REQUESTS, WARMUP)


class TestRegistry:
    def test_all_trackers_listed(self):
        names = available_trackers()
        assert "dapper-s" in names and "dapper-h" in names
        # The paper's eight baselines + the unprotected baseline + the two
        # DAPPER variants + the Graphene / MINT related-work baselines.
        assert len(names) == 13

    def test_create_unknown_rejected(self, config):
        with pytest.raises(ValueError):
            create_tracker("not-a-tracker", config)

    def test_every_tracker_instantiates(self, config):
        for name in available_trackers():
            tracker = create_tracker(name, config)
            assert tracker.storage_report() is not None


class TestBasicSimulation:
    def test_baseline_run_produces_sane_results(self, config):
        result = run_workload(
            config=config,
            tracker="none",
            workload="470.lbm",
            requests_per_core=REQUESTS,
            llc_warmup_accesses=2_000,
        )
        assert result.elapsed_ns > 0
        assert len(result.core_results) == 4
        for core in result.core_results:
            assert 0.0 < core.ipc < 16.0
            assert core.requests == REQUESTS
        assert result.dram_stats.reads > 0
        assert result.energy.total_nj > 0

    def test_simulation_is_deterministic(self, config):
        a = run_workload(
            config=config, tracker="dapper-h", workload="429.mcf",
            requests_per_core=800, llc_warmup_accesses=1_000,
        )
        b = run_workload(
            config=config, tracker="dapper-h", workload="429.mcf",
            requests_per_core=800, llc_warmup_accesses=1_000,
        )
        assert [c.ipc for c in a.core_results] == [c.ipc for c in b.core_results]

    def test_attack_scenario_marks_attacker_core(self, config):
        result = run_workload(
            config=config,
            tracker="none",
            workload="470.lbm",
            attack="refresh",
            requests_per_core=REQUESTS,
            llc_warmup_accesses=2_000,
        )
        attackers = [c for c in result.core_results if c.is_attacker]
        assert len(attackers) == 1
        assert attackers[0].core_id == 0
        assert len(result.benign_results()) == 3

    def test_memory_intensity_orders_ipc(self, config):
        heavy = run_workload(
            config=config, tracker="none", workload="429.mcf",
            requests_per_core=REQUESTS, llc_warmup_accesses=2_000,
        )
        light = run_workload(
            config=config, tracker="none", workload="453.povray",
            requests_per_core=REQUESTS, llc_warmup_accesses=2_000,
        )
        assert light.core_results[1].ipc > heavy.core_results[1].ipc


class TestNormalization:
    def test_normalized_close_to_one_for_no_mitigation(self, runner):
        run = runner("none", "470.lbm")
        assert run.normalized == pytest.approx(1.0, abs=0.02)

    def test_dapper_h_benign_overhead_is_small(self, runner):
        run = runner("dapper-h", "470.lbm")
        assert run.normalized > 0.97

    def test_attack_matched_baseline_differs_from_clean(self, runner):
        clean = runner("dapper-s", "470.lbm", attack="refresh")
        matched = runner(
            "dapper-s", "470.lbm", attack="refresh", attack_matched_baseline=True
        )
        assert matched.normalized >= clean.normalized

    def test_average_normalized(self, runner):
        runs = [runner("none", workload) for workload in ("470.lbm", "429.mcf")]
        value = sum(run.normalized for run in runs) / len(runs)
        assert value == pytest.approx(1.0, abs=0.02)


class TestPerformanceAttackShape:
    """The headline qualitative result: Perf-Attacks devastate the shared-state
    trackers while DAPPER-H shrugs them off.

    These runs need the tracker warmed all the way into the attack's exploited
    regime, so they use a generous warm-up cap.
    """

    @pytest.fixture(scope="class")
    def attack_runner(self, config):
        return _runner(config, 2_000, 150_000)

    @pytest.fixture(scope="class")
    def full_geometry_runner(self):
        # DAPPER's group statistics (aliasing between hot rows and row groups)
        # only look like the paper's at the full 2M-rows-per-rank geometry.
        from repro.config import baseline_config

        return _runner(
            baseline_config(nrh=500).with_refresh_window_scale(1 / 32), 2_000, 40_000
        )

    def test_hydra_suffers_under_rcc_conflicts(self, attack_runner):
        run = attack_runner("hydra", "470.lbm", attack="rcc-conflict")
        assert run.normalized < 0.75
        assert run.result.dram_stats.counter_reads > 0

    def test_comet_suffers_under_rat_thrashing(self, attack_runner):
        run = attack_runner("comet", "470.lbm", attack="rat-thrash")
        assert run.normalized < 0.75
        assert (
            run.result.tracker_stats.structure_resets
            + run.result.tracker_stats.mitigations_issued
            > 0
        )

    def test_dapper_h_resists_the_refresh_attack(self, full_geometry_runner):
        run = full_geometry_runner(
            "dapper-h", "470.lbm", attack="refresh", attack_matched_baseline=True
        )
        assert run.normalized > 0.9

    def test_dapper_h_beats_dapper_s_under_refresh_attack(self, full_geometry_runner):
        dapper_s = full_geometry_runner(
            "dapper-s", "470.lbm", attack="refresh", attack_matched_baseline=True
        )
        dapper_h = full_geometry_runner(
            "dapper-h", "470.lbm", attack="refresh", attack_matched_baseline=True
        )
        assert dapper_h.normalized >= dapper_s.normalized


class TestSecurityAudit:
    def test_no_mitigation_is_insecure_under_hammering(self, config):
        result = run_workload(
            config=config,
            tracker="none",
            workload="453.povray",
            attack="rowhammer",
            requests_per_core=1_200,
            enable_auditor=True,
            llc_warmup_accesses=500,
        )
        assert result.security is not None
        assert not result.security.is_secure

    def test_dapper_h_prevents_rowhammer(self, config):
        result = run_workload(
            config=config,
            tracker="dapper-h",
            workload="453.povray",
            attack="rowhammer",
            requests_per_core=1_200,
            enable_auditor=True,
            llc_warmup_accesses=500,
        )
        assert result.security.is_secure
        assert result.security.max_count <= config.rowhammer.nrh

    def test_dapper_s_prevents_rowhammer(self, config):
        result = run_workload(
            config=config,
            tracker="dapper-s",
            workload="453.povray",
            attack="rowhammer",
            requests_per_core=1_200,
            enable_auditor=True,
            llc_warmup_accesses=500,
        )
        assert result.security.is_secure

    def test_benign_run_is_secure_even_without_mitigation(self, config):
        result = run_workload(
            config=config,
            tracker="none",
            workload="403.gcc",
            requests_per_core=1_000,
            enable_auditor=True,
            llc_warmup_accesses=500,
        )
        assert result.security.is_secure
