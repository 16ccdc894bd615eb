"""Scenario-catalog tests: suite round-trips, cache-key stability, errors.

The catalog's contract is that a suite file is *data*: loading it twice, in
any process, must compile to the same :class:`ScenarioSpec` list with the
same cache keys (otherwise the on-disk sweep cache would silently fracture),
and every malformed input must surface as a ``ValueError`` naming the
offending entry rather than a traceback from deep inside the simulator.
"""

from __future__ import annotations

import json

import pytest

from repro.config import MitigationCommand, large_system_config
from repro.scenarios import (
    available_families,
    family_by_name,
    load_suite,
    parse_suite_text,
)
from repro.scenarios.families import (
    figure5_series,
    figure13_series,
    paper_batch,
    probabilistic_series,
)
from repro.sim.sweep import CoreAssignment, ScenarioSpec, SweepRunner

YAML_SUITE = """
suite: roundtrip
defaults:
  nrh: 500
  requests_per_core: 700
  geometry: reduced
scenarios:
  - family: multi-attacker
    params:
      tracker: dapper-h
      attackers:
        - blind-random-rows
        - { attack: row-streaming, hammer_rate: 0.5 }
      workloads:
        - { workload: 429.mcf, intensity: 1.5 }
        - 470.lbm
  - family: attacker-count-sweep
    params:
      tracker: dapper-h
      attack: refresh
      counts: [0, 2]
      workloads: [433.milc]
  - family: fuzz
    params: { count: 3, seed: 11 }
"""

#: The same suite expressed as JSON (the YAML-less fallback format).
JSON_SUITE = json.dumps(
    {
        "suite": "roundtrip",
        "defaults": {"nrh": 500, "requests_per_core": 700, "geometry": "reduced"},
        "scenarios": [
            {
                "family": "multi-attacker",
                "params": {
                    "tracker": "dapper-h",
                    "attackers": [
                        "blind-random-rows",
                        {"attack": "row-streaming", "hammer_rate": 0.5},
                    ],
                    "workloads": [
                        {"workload": "429.mcf", "intensity": 1.5},
                        "470.lbm",
                    ],
                },
            },
            {
                "family": "attacker-count-sweep",
                "params": {
                    "tracker": "dapper-h",
                    "attack": "refresh",
                    "counts": [0, 2],
                    "workloads": ["433.milc"],
                },
            },
            {"family": "fuzz", "params": {"count": 3, "seed": 11}},
        ],
    }
)


def _keys(specs: list[ScenarioSpec]) -> list[str]:
    return [spec.cache_key() for spec in specs]


class TestSuiteRoundTrip:
    def test_yaml_suite_compiles(self):
        specs = parse_suite_text(YAML_SUITE).compile()
        # 1 multi-attacker + 2 counts + 3 fuzz scenarios.
        assert len(specs) == 6
        assert all(isinstance(spec, ScenarioSpec) for spec in specs)

    def test_cache_keys_stable_across_loads(self):
        first = parse_suite_text(YAML_SUITE).compile()
        second = parse_suite_text(YAML_SUITE).compile()
        assert _keys(first) == _keys(second)

    def test_yaml_and_json_forms_share_cache_keys(self):
        from_yaml = parse_suite_text(YAML_SUITE, format="yaml").compile()
        from_json = parse_suite_text(JSON_SUITE, format="json").compile()
        assert _keys(from_yaml) == _keys(from_json)

    def test_load_suite_from_disk(self, tmp_path):
        path = tmp_path / "suite.yaml"
        path.write_text(YAML_SUITE, encoding="utf-8")
        suite = load_suite(path)
        assert suite.name == "roundtrip"
        assert _keys(suite.compile()) == _keys(parse_suite_text(YAML_SUITE).compile())

    def test_defaults_apply_only_declared_parameters(self):
        # `geometry` is not a paper-family knob; a shared default must not
        # break the entry.
        suite = parse_suite_text(
            """
            defaults: {geometry: reduced, requests_per_core: 600}
            scenarios:
              - family: paper-figure11
                params: {workloads: [429.mcf]}
            """
        )
        specs = suite.compile()
        assert len(specs) == 1
        assert specs[0].requests_per_core == 600

    def test_multi_attacker_plan_shape(self):
        spec = parse_suite_text(YAML_SUITE).compile()[0]
        assert spec.core_plan is not None
        roles = [assignment.role for assignment in spec.core_plan]
        assert roles == ["attack", "attack", "workload", "workload"]
        assert spec.core_plan[1].hammer_rate == 0.5
        assert spec.core_plan[2].intensity == 1.5


class TestFuzzDeterminism:
    def test_same_seed_same_scenarios(self):
        fuzz = family_by_name("fuzz")
        first = fuzz.expand({"count": 5, "seed": 42})
        second = fuzz.expand({"count": 5, "seed": 42})
        assert _keys(first) == _keys(second)

    def test_different_seed_different_scenarios(self):
        fuzz = family_by_name("fuzz")
        a = family_by_name("fuzz").expand({"count": 5, "seed": 1})
        b = fuzz.expand({"count": 5, "seed": 2})
        assert _keys(a) != _keys(b)


class TestErrorPaths:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            parse_suite_text("scenarios: [{family: nope}]").compile()

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not take parameter"):
            family_by_name("single").expand(
                {"tracker": "dapper-h", "workload": "429.mcf", "frobnicate": 1}
            )

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="requires parameter"):
            family_by_name("single").expand({"workload": "429.mcf"})

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            family_by_name("single").expand(
                {"tracker": "dapper-h", "workload": "bogus"}
            )

    def test_unknown_attack(self):
        with pytest.raises(ValueError, match="unknown attack"):
            family_by_name("multi-attacker").expand(
                {
                    "tracker": "dapper-h",
                    "attackers": ["no-such-attack"],
                    "workloads": ["429.mcf"],
                }
            )

    def test_unknown_tracker(self):
        with pytest.raises(ValueError):
            family_by_name("single").expand(
                {"tracker": "no-such-tracker", "workload": "429.mcf"}
            )

    def test_too_many_attackers(self):
        with pytest.raises(ValueError, match="no benign core"):
            family_by_name("multi-attacker").expand(
                {
                    "tracker": "none",
                    "attackers": [{"attack": "refresh", "cores": 4}],
                    "workloads": ["429.mcf"],
                }
            )

    def test_bad_hammer_rate(self):
        with pytest.raises(ValueError, match="hammer_rate"):
            family_by_name("multi-attacker").expand(
                {
                    "tracker": "none",
                    "attackers": [{"attack": "refresh", "hammer_rate": 2.0}],
                    "workloads": ["429.mcf"],
                }
            )

    def test_malformed_suite_document(self):
        with pytest.raises(ValueError, match="non-empty list"):
            parse_suite_text("suite: empty")
        with pytest.raises(ValueError, match="unknown top-level keys"):
            parse_suite_text("scenarioz: []")
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_suite_text("{", format="json")

    def test_available_families_lists_builtins(self):
        names = available_families()
        for expected in ("single", "multi-attacker", "fuzz", "paper-figure3"):
            assert expected in names


class TestPlanSpecSemantics:
    def test_plan_and_attack_mutually_exclusive(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="workload", name="429.mcf"),
        )
        with pytest.raises(ValueError, match="mutually exclusive"):
            ScenarioSpec(
                tracker="none", workload="429.mcf", attack="refresh", core_plan=plan
            )

    def test_benign_plan_canonicalises_warmup(self):
        plan = (CoreAssignment(role="workload", name="429.mcf"),)
        spec = ScenarioSpec(
            tracker="none",
            workload="429.mcf",
            core_plan=plan,
            attack_warmup_activations=9999,
        )
        assert spec.attack_warmup_activations == 0

    def test_baseline_replaces_attackers_with_idle(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="workload", name="429.mcf"),
        )
        spec = ScenarioSpec(tracker="dapper-h", workload="429.mcf", core_plan=plan)
        baseline = spec.baseline_spec()
        assert baseline.tracker == "none"
        assert [a.role for a in baseline.core_plan] == ["idle", "workload"]

    def test_attack_matched_baseline_keeps_attackers(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="workload", name="429.mcf"),
        )
        spec = ScenarioSpec(
            tracker="dapper-h",
            workload="429.mcf",
            core_plan=plan,
            attack_matched_baseline=True,
        )
        baseline = spec.baseline_spec()
        assert [a.role for a in baseline.core_plan] == ["attack", "workload"]

    def test_plan_changes_cache_key(self):
        base = ScenarioSpec(tracker="none", workload="429.mcf")
        planned = ScenarioSpec(
            tracker="none",
            workload="429.mcf",
            core_plan=(
                CoreAssignment(role="workload", name="429.mcf"),
                CoreAssignment(role="workload", name="470.lbm"),
            ),
        )
        assert base.cache_key() != planned.cache_key()

    def test_bad_parameter_type_reported_as_value_error(self):
        # Builders coerce with float()/int(); a list where a number belongs
        # must still honour the ValueError error contract.
        with pytest.raises(ValueError, match="bad parameter value"):
            family_by_name("multi-attacker").expand(
                {
                    "tracker": "none",
                    "attackers": [{"attack": "refresh", "hammer_rate": [1, 2]}],
                    "workloads": ["429.mcf"],
                }
            )


class TestHammerRate:
    def test_throttle_preserves_fractional_rates(self):
        """Sub-integer stretches (e.g. rate 0.75) must not round away."""
        from repro.cpu.trace import TraceEntry
        from repro.sim.experiment import ThrottledGenerator

        class Ones:
            bypasses_llc = True

            def next_entry(self):
                return TraceEntry(gap_instructions=1, address=0, is_write=False)

        for rate in (0.75, 0.5, 0.25):
            throttled = ThrottledGenerator(Ones(), rate)
            total = sum(
                throttled.next_entry().gap_instructions for _ in range(600)
            )
            assert total / 600 == pytest.approx(1.0 / rate, rel=0.01)

    def test_label_does_not_affect_plan_cache_key(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="workload", name="429.mcf"),
        )
        a = ScenarioSpec(tracker="none", workload="429.mcf", core_plan=plan)
        b = ScenarioSpec(tracker="none", workload="470.lbm", core_plan=plan)
        assert a.cache_key() == b.cache_key()


@pytest.fixture(scope="module")
def plan_specs():
    """A small multi-attacker + mixed-blend batch (reduced geometry)."""
    return parse_suite_text(
        """
        defaults: {requests_per_core: 400, geometry: reduced}
        scenarios:
          - family: multi-attacker
            params:
              tracker: dapper-h
              attackers: [blind-random-rows, {attack: refresh, hammer_rate: 0.5}]
              workloads: [{workload: 429.mcf, intensity: 0.5}, 470.lbm]
          - family: workload-blend
            params:
              workloads: [429.mcf, {workload: 470.lbm, cores: 2}]
        """
    ).compile()


def _fingerprint(outcomes):
    return [
        (
            outcome.normalized,
            tuple(core.ipc for core in outcome.result.core_results),
            tuple(core.ipc for core in outcome.baseline.core_results),
        )
        for outcome in outcomes
    ]


class TestPlanExecutionDeterminism:
    """Serial == pooled == cache-replayed, for catalog-shaped scenarios."""

    def test_serial_pool_and_cache_agree(self, plan_specs, tmp_path):
        store = tmp_path / "wh.sqlite"
        serial = SweepRunner(store=store, jobs=1).run(plan_specs)
        pooled = SweepRunner(jobs=2).run(plan_specs)
        replayed_runner = SweepRunner(store=store, jobs=1)
        replayed = replayed_runner.run(plan_specs)
        assert _fingerprint(serial) == _fingerprint(pooled)
        assert _fingerprint(serial) == _fingerprint(replayed)
        # The replay must actually have come from the on-disk cache.
        assert replayed_runner.stats.cache_misses == 0
        assert all(outcome.from_cache for outcome in replayed)

    def test_attackers_flagged_and_baseline_idle(self, plan_specs):
        outcome = SweepRunner().run_one(plan_specs[0])
        attacker_ids = [
            core.core_id
            for core in outcome.result.core_results
            if core.is_attacker
        ]
        assert attacker_ids == [0, 1]
        # Baseline replaced the attackers with idle cores: only the benign
        # cores produce results, on unchanged core ids.
        assert [core.core_id for core in outcome.baseline.core_results] == [2, 3]
        assert 0.0 < outcome.normalized <= 1.5


class TestScenarioIdentity:
    """``describe()`` is a run's identity in the warehouse and in ``campaign
    diff``: specs with different cache keys must describe differently."""

    @staticmethod
    def _identities(specs):
        return {json.dumps(spec.describe(), sort_keys=True) for spec in specs}

    @pytest.mark.parametrize(
        "batch",
        [
            # Figure 13 at NRH 500: three mitigation back-ends, benign and
            # under the refresh attack.
            lambda: paper_batch([500], figure13_series, ["429.mcf"], 300),
            # Figures 15 and 16: PARA, PrIDE and DAPPER-H, each on two
            # back-ends.
            lambda: paper_batch([500], probabilistic_series, ["429.mcf"], 300),
            lambda: paper_batch(
                [500],
                lambda nrh: probabilistic_series(nrh, attack="refresh"),
                ["429.mcf"],
                300,
            ),
            # Figure 5 over three LLC sizes on the 8-channel system.
            lambda: paper_batch(
                (2, 3, 4),
                lambda llc_mb: figure5_series(llc_mb, 500),
                ["429.mcf"],
                300,
                matched_baselines=False,
            ),
        ],
        ids=["figure13", "figure15", "figure16", "figure5"],
    )
    def test_one_identity_per_spec(self, batch):
        specs = batch()
        assert len(set(_keys(specs))) == len(specs)
        assert len(self._identities(specs)) == len(specs)

    def test_default_spec_identity_is_unchanged(self):
        # Captured before the back-end and geometry joined the identity:
        # default scenarios keep the identities their stored runs carry.
        spec = ScenarioSpec(tracker="dapper-h", workload="429.mcf", attack="refresh")
        assert spec.describe() == {
            "tracker": "dapper-h",
            "workload": "429.mcf",
            "attack": "refresh",
            "seed": 14326242,
            "requests_per_core": 8000,
            "attack_matched_baseline": False,
            "nrh": 500,
        }

    def test_only_non_default_fields_are_named(self):
        config = large_system_config(per_core_llc_mb=3).with_mitigation(
            MitigationCommand.DRFM_SB, 2
        )
        spec = ScenarioSpec(tracker="dapper-h", workload="429.mcf", config=config)
        default = ScenarioSpec(tracker="dapper-h", workload="429.mcf").describe()
        extra = {
            key: value
            for key, value in spec.describe().items()
            if key not in default
        }
        assert extra == {
            "mitigation_command": "DRFMsb",
            "blast_radius": 2,
            "dram_channels": 8,
            "dram_ranks_per_channel": 4,
            "llc_size_bytes": 12 * 1024 * 1024,
        }

    def test_warehouse_stores_the_full_identity(self, tmp_path):
        from repro.config import reduced_row_config
        from repro.store import SqliteStore

        config = reduced_row_config(nrh=500, rows_per_bank=2048).with_mitigation(
            MitigationCommand.DRFM_SB, 2
        )
        spec = ScenarioSpec(
            tracker="dapper-h",
            workload="453.povray",
            requests_per_core=200,
            config=config,
        )
        store = SqliteStore(tmp_path / "wh.sqlite")
        SweepRunner(store=store).run_one(spec)
        stored = store.get(spec.cache_key()).scenario
        assert stored == spec.describe()
        assert stored["mitigation_command"] == "DRFMsb"
        assert stored["blast_radius"] == 2
        assert stored["dram_rows_per_bank"] == 2048
