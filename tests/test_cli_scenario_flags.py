"""The scenario verbs' front end: ``run``, ``obs trace`` and ``security``
expand the catalog's ``single`` family from their flags, and ``sweep`` its
``cross-product`` family.

The specs each verb builds are pinned against explicit constructions, so a
front-end change that moves a cache key, and so misses every stored result,
fails here.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.config import baseline_config, reduced_row_config
from repro.sim.sweep import ScenarioSpec, SweepRunner


class _Built(Exception):
    """Raised in place of a simulation, carrying the specs a verb built."""

    def __init__(self, specs):
        super().__init__(len(specs))
        self.specs = list(specs)


@pytest.fixture
def built(monkeypatch):
    """``built(argv)``: the specs the verb in ``argv`` hands to the engine,
    without simulating them."""

    def stop(specs):
        raise _Built(specs)

    monkeypatch.setattr(SweepRunner, "run", lambda runner, specs: stop(specs))
    monkeypatch.setattr(ScenarioSpec, "run", lambda spec, **kwargs: stop([spec]))

    def build(argv):
        with pytest.raises(_Built) as caught:
            main(argv)
        return caught.value.specs

    return build


def _full(nrh: int = 500, trefw_scale: float = 1.0 / 16.0):
    return baseline_config(nrh=nrh).with_refresh_window_scale(trefw_scale)


def _audit(tracker: str, nrh: int, requests: int) -> ScenarioSpec:
    """The audit ``security`` runs: the rowhammer kernel next to 403.gcc on
    ``reduced_row_config(nrh, 4096)`` at the full refresh window, with the
    auditor and no tracker warm-up."""
    return ScenarioSpec(
        tracker=tracker,
        workload="403.gcc",
        attack="rowhammer",
        requests_per_core=requests,
        enable_auditor=True,
        attack_warmup_activations=0,
        config=reduced_row_config(nrh=nrh, rows_per_bank=4096),
    )


FLAG_CASES = {
    "run": (
        [
            "run", "--tracker", "dapper-s", "--workload", "403.gcc",
            "--attack", "refresh", "--requests", "1000", "--nrh", "250",
            "--trefw-scale", "0.125", "--attack-matched-baseline",
        ],
        [
            ScenarioSpec(
                tracker="dapper-s",
                workload="403.gcc",
                attack="refresh",
                requests_per_core=1000,
                attack_matched_baseline=True,
                config=_full(250, 0.125),
            )
        ],
    ),
    "run-defaults": (
        ["run"],
        [
            ScenarioSpec(
                tracker="dapper-h",
                workload="429.mcf",
                requests_per_core=4000,
                config=_full(),
            )
        ],
    ),
    "run-attack-none": (
        ["run", "--attack", "none", "--requests", "500"],
        [
            ScenarioSpec(
                tracker="dapper-h",
                workload="429.mcf",
                requests_per_core=500,
                config=_full(),
            )
        ],
    ),
    "obs-trace": (
        [
            "obs", "trace", "--tracker", "graphene", "--workload", "470.lbm",
            "--attack", "refresh", "--nrh", "1000", "--trefw-scale", "0.25",
            "--requests", "300", "--seed", "9",
        ],
        [
            ScenarioSpec(
                tracker="graphene",
                workload="470.lbm",
                attack="refresh",
                seed=9,
                requests_per_core=300,
                config=_full(1000, 0.25),
            )
        ],
    ),
    "obs-trace-defaults": (
        ["obs", "trace"],
        [
            ScenarioSpec(
                tracker="dapper-h",
                workload="429.mcf",
                requests_per_core=4000,
                config=_full(),
            )
        ],
    ),
    "security": (
        ["security", "--tracker", "graphene", "--nrh", "1000", "--requests", "1500"],
        [_audit("graphene", 1000, 1500)],
    ),
    "security-defaults": (["security"], [_audit("dapper-h", 500, 4000)]),
    "sweep": (
        [
            "sweep", "--trackers", "none,graphene", "--attacks", "none,refresh",
            "--workloads", "453.povray,470.lbm", "--requests", "400",
            "--seed", "5", "--nrh", "250", "--trefw-scale", "0.125",
            "--attack-matched-baseline",
        ],
        [
            ScenarioSpec(
                tracker=tracker,
                workload=workload,
                attack=attack,
                seed=5,
                requests_per_core=400,
                attack_matched_baseline=True,
                config=_full(250, 0.125),
            )
            for tracker in ("none", "graphene")
            for attack in (None, "refresh")
            for workload in ("453.povray", "470.lbm")
        ],
    ),
    "sweep-defaults": (
        ["sweep"],
        [
            ScenarioSpec(
                tracker="dapper-h",
                workload="429.mcf",
                requests_per_core=4000,
                config=_full(),
            )
        ],
    ),
}


class TestSpecsFromFlags:
    @pytest.mark.parametrize("case", sorted(FLAG_CASES))
    def test_flags_build_the_explicit_specs(self, case, built, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv, expected = FLAG_CASES[case]
        specs = built(argv)
        assert [spec.cache_key() for spec in specs] == [
            spec.cache_key() for spec in expected
        ]
        # Equal fields too: attack_matched_baseline is not in the key.
        assert specs == expected


def _obs(tmp_path, name: str, *argv: str) -> bytes:
    output = tmp_path / name
    assert main(["obs", "trace", *argv, "-o", str(output)]) == 0
    return output.read_bytes()


class TestObsTrace:
    def test_flags_and_a_one_entry_single_suite_trace_alike(self, tmp_path, capsys):
        suite = tmp_path / "single.json"
        suite.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {
                            "family": "single",
                            "params": {
                                "tracker": "graphene",
                                "workload": "429.mcf",
                                "attack": "refresh",
                                "requests_per_core": 300,
                            },
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        from_flags = _obs(
            tmp_path, "flags.json", "--tracker", "graphene", "--attack", "refresh",
            "--requests", "300",
        )
        from_suite = _obs(tmp_path, "suite.json", "--suite", str(suite))
        assert from_flags == from_suite

    def test_attack_none_runs_benign(self, tmp_path, capsys):
        _obs(tmp_path, "benign.json", "--attack", "none", "--requests", "200")
        scenario = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("scenario :")
        )
        assert json.loads(scenario.split(":", 1)[1])["attack"] is None

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--workload", "unknown workload 'no-such'"),
            ("--attack", "unknown attack 'no-such'"),
            ("--tracker", "unknown tracker 'no-such'"),
        ],
    )
    def test_unknown_name_exits_2(self, flag, message, tmp_path, capsys):
        output = tmp_path / "trace.json"
        assert main(["obs", "trace", flag, "no-such", "-o", str(output)]) == 2
        assert f"obs: {message}" in capsys.readouterr().err
        assert not output.exists()


class TestBreakhammerComposition:
    """A composed tracker name is a registry name like any other, on every
    verb that names a scenario (``sweep``'s is in test_cli_sweep.py)."""

    def test_run(self, capsys):
        argv = ["run", "--tracker", "breakhammer:dapper-h", "--workload",
                "453.povray", "--requests", "200"]
        assert main(argv) == 0
        assert "breakhammer:dapper-h" in capsys.readouterr().out

    def test_obs_trace(self, tmp_path, capsys):
        _obs(tmp_path, "bh.json", "--tracker", "breakhammer:dapper-h",
             "--workload", "453.povray", "--requests", "200")
        assert '"tracker": "breakhammer:dapper-h"' in capsys.readouterr().out

    def test_security(self, capsys):
        argv = ["security", "--tracker", "breakhammer:dapper-h",
                "--requests", "600"]
        assert main(argv) == 0
        assert "SECURE" in capsys.readouterr().out


class TestRequestBudget:
    @pytest.mark.parametrize("verb", [["run"], ["obs", "trace"], ["security"], ["sweep"]])
    def test_budget_below_one_exits_2(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*verb, "--requests", "0"]) == 2
        assert "requests_per_core must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_suite_budget_below_one_exits_2(self, tmp_path, capsys):
        suite = tmp_path / "zero.json"
        suite.write_text(
            '{"scenarios": [{"family": "single", "params": {"tracker": "none", '
            '"workload": "429.mcf", "requests_per_core": 0}}]}',
            encoding="utf-8",
        )
        assert main(["scenarios", "run", str(suite), "--cache-dir", ""]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb",
        [["run"], ["obs", "trace"], ["security"], ["sweep"], ["security-sweep"]],
    )
    def test_threshold_below_one_exits_2(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*verb, "--nrh", "0"]) == 2
        assert "RowHammer threshold must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_suite_threshold_below_one_exits_2(self, tmp_path, capsys):
        suite = tmp_path / "nrh0.json"
        suite.write_text(
            '{"defaults": {"nrh": 0}, "scenarios": [{"family": "single", '
            '"params": {"tracker": "none", "workload": "429.mcf"}}]}',
            encoding="utf-8",
        )
        assert main(["scenarios", "run", str(suite), "--cache-dir", ""]) == 2
        assert "RowHammer threshold must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_refresh_window_scale_must_be_positive(self, scale, capsys):
        assert main(["run", "--trefw-scale", scale, "--requests", "200"]) == 2
        assert "refresh-window scale must be > 0" in capsys.readouterr().err
