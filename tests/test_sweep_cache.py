"""On-disk result cache behaviour: hit/miss accounting, invalidation when the
configuration or seed changes, and tolerance to corrupted cache files."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import MitigationCommand, reduced_row_config
from repro.sim.experiment import run_workload
from repro.sim.sweep import CODE_VERSION, ScenarioSpec, SweepRunner

REQUESTS = 300


@pytest.fixture(scope="module")
def sweep_config():
    return reduced_row_config(nrh=500, rows_per_bank=2048).with_refresh_window_scale(
        1 / 32
    )


@pytest.fixture
def spec(sweep_config):
    return ScenarioSpec(
        tracker="none",
        workload="453.povray",
        requests_per_core=REQUESTS,
        config=sweep_config,
    )


class TestHitMissAccounting:
    def test_cold_run_counts_misses(self, spec, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path, jobs=1)
        outcome = runner.run_one(spec)
        assert not outcome.from_cache
        # The benign "none" scenario is its own baseline: one simulation.
        assert runner.stats.simulations == 1
        assert runner.stats.cache_misses == 1
        assert runner.stats.cache_hits == 0

    def test_fresh_runner_is_served_from_disk(self, spec, tmp_path):
        SweepRunner(cache_dir=tmp_path, jobs=1).run_one(spec)
        replay = SweepRunner(cache_dir=tmp_path, jobs=1)
        outcome = replay.run_one(spec)
        assert outcome.from_cache
        assert outcome.baseline_from_cache
        assert replay.stats.cache_hits == 1
        assert replay.stats.cache_misses == 0
        assert replay.stats.hit_rate == 1.0

    def test_memory_memo_returns_identical_objects(self, spec):
        runner = SweepRunner()     # no disk cache at all
        first = runner.run_one(spec)
        second = runner.run_one(spec)
        assert second.from_cache
        assert second.result is first.result

    def test_batch_shares_baseline_across_trackers(self, sweep_config):
        specs = [
            ScenarioSpec(
                tracker=tracker,
                workload="453.povray",
                requests_per_core=REQUESTS,
                config=sweep_config,
            )
            for tracker in ("none", "dapper-h")
        ]
        runner = SweepRunner()
        runner.run(specs)
        # none-benign (shared baseline + measured run) and dapper-h: 2 sims.
        assert runner.stats.simulations == 2
        assert runner.stats.baselines_shared == 1


class TestInvalidation:
    def test_seed_change_invalidates(self, spec):
        reseeded = dataclasses.replace(spec, seed=1234)
        assert reseeded.cache_key() != spec.cache_key()

    def test_nrh_change_invalidates(self, spec, sweep_config):
        changed = dataclasses.replace(spec, config=sweep_config.with_nrh(250))
        assert changed.cache_key() != spec.cache_key()

    def test_llc_associativity_change_invalidates(self, spec, sweep_config):
        llc = dataclasses.replace(sweep_config.llc, ways=8)
        changed = dataclasses.replace(
            spec, config=dataclasses.replace(sweep_config, llc=llc)
        )
        assert changed.cache_key() != spec.cache_key()

    def test_core_count_and_mlp_change_invalidate(self, spec, sweep_config):
        for cores in (
            dataclasses.replace(sweep_config.cores, num_cores=8),
            dataclasses.replace(sweep_config.cores, max_outstanding_misses=4),
        ):
            changed = dataclasses.replace(
                spec, config=dataclasses.replace(sweep_config, cores=cores)
            )
            assert changed.cache_key() != spec.cache_key()

    def test_requests_change_invalidates(self, spec):
        changed = dataclasses.replace(spec, requests_per_core=REQUESTS + 1)
        assert changed.cache_key() != spec.cache_key()

    def test_refresh_window_scale_change_invalidates(self, spec, sweep_config):
        changed = dataclasses.replace(
            spec, config=sweep_config.with_refresh_window_scale(0.5)
        )
        assert changed.cache_key() != spec.cache_key()
        assert changed.baseline_spec().cache_key() != spec.baseline_spec().cache_key()


class TestBaselineSharing:
    """Scenarios that differ only in their mitigation back-end share one
    insecure baseline: tracker ``none`` never mitigates."""

    @pytest.fixture
    def attack_spec(self, sweep_config):
        return ScenarioSpec(
            tracker="dapper-h",
            workload="453.povray",
            attack="refresh",
            requests_per_core=REQUESTS,
            attack_matched_baseline=True,
            config=sweep_config,
        )

    def test_mitigation_backend_keys_the_run_but_not_the_baseline(self, attack_spec):
        config = attack_spec.config
        for command, blast_radius in (
            (MitigationCommand.DRFM_SB, 1),
            (MitigationCommand.VRR, 2),
            (MitigationCommand.DRFM_SB, 2),
        ):
            changed = dataclasses.replace(
                attack_spec, config=config.with_mitigation(command, blast_radius)
            )
            assert changed.cache_key() != attack_spec.cache_key()
            assert (
                changed.baseline_spec().cache_key()
                == attack_spec.baseline_spec().cache_key()
            )

    def test_default_mitigation_keys_are_unchanged(self, attack_spec):
        # Captured before baselines shared across mitigation back-ends:
        # specs at the default back-end keep their stored entries.
        assert attack_spec.cache_key() == (
            "9512460c729fb1d111a3557adf8eaee1babf4257b864cb83cd6daae1c9eeba66"
        )
        assert attack_spec.baseline_spec().cache_key() == (
            "bf161889e3dc3d3af7ad87a9efb5907838fea66b794c811e816c70b1b3bad8eb"
        )
        clean = dataclasses.replace(attack_spec, attack_matched_baseline=False)
        assert clean.baseline_spec().cache_key() == (
            "e960b36b397a2cf9c6c1da36571e0af18ccce9f3c6b3c60755fb7ed946c11bdf"
        )

    def test_unmitigated_run_ignores_the_mitigation_backend(self, sweep_config):
        def run(config):
            return run_workload(
                config=config,
                tracker="none",
                workload="453.povray",
                attack="refresh",
                requests_per_core=REQUESTS,
                llc_warmup_accesses=1_000,
            ).to_dict()

        drfm = sweep_config.with_mitigation(MitigationCommand.DRFM_SB, 2)
        assert run(drfm) == run(sweep_config)


class TestCorruptionTolerance:
    def _cache_files(self, tmp_path):
        files = list(tmp_path.glob("*.json"))
        assert files, "expected the sweep to have written cache entries"
        return files

    def test_garbage_bytes_fall_back_to_rerun(self, spec, tmp_path):
        reference = SweepRunner(cache_dir=tmp_path).run_one(spec)
        for path in self._cache_files(tmp_path):
            path.write_text("{ this is not json", encoding="utf-8")
        recovered = SweepRunner(cache_dir=tmp_path)
        outcome = recovered.run_one(spec)
        assert not outcome.from_cache           # corruption = miss, not crash
        assert recovered.stats.cache_misses == 1
        assert outcome.normalized == reference.normalized
        # The re-run must heal the cache in place.
        healed = SweepRunner(cache_dir=tmp_path).run_one(spec)
        assert healed.from_cache

    def test_wrong_schema_falls_back_to_rerun(self, spec, tmp_path):
        SweepRunner(cache_dir=tmp_path).run_one(spec)
        for path in self._cache_files(tmp_path):
            path.write_text(
                json.dumps({"code_version": CODE_VERSION, "result": {"bogus": 1}}),
                encoding="utf-8",
            )
        outcome = SweepRunner(cache_dir=tmp_path).run_one(spec)
        assert not outcome.from_cache

    def test_stale_code_version_is_ignored(self, spec, tmp_path):
        SweepRunner(cache_dir=tmp_path).run_one(spec)
        for path in self._cache_files(tmp_path):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["code_version"] = "some-older-version"
            path.write_text(json.dumps(payload), encoding="utf-8")
        outcome = SweepRunner(cache_dir=tmp_path).run_one(spec)
        assert not outcome.from_cache

    def test_empty_file_falls_back_to_rerun(self, spec, tmp_path):
        SweepRunner(cache_dir=tmp_path).run_one(spec)
        for path in self._cache_files(tmp_path):
            path.write_text("", encoding="utf-8")
        outcome = SweepRunner(cache_dir=tmp_path).run_one(spec)
        assert not outcome.from_cache

    def test_unusable_cache_dir_degrades_to_cacheless_run(self, spec, tmp_path):
        # A regular file where the cache directory should be: every store and
        # load raises OSError, which must degrade to a cache-less sweep
        # rather than losing the completed simulations.
        bogus_dir = tmp_path / "not-a-directory"
        bogus_dir.write_text("occupied", encoding="utf-8")
        runner = SweepRunner(cache_dir=bogus_dir)
        outcome = runner.run_one(spec)
        assert not outcome.from_cache
        assert outcome.normalized == 1.0
        assert bogus_dir.read_text(encoding="utf-8") == "occupied"
