"""Tests for the ``scenarios`` CLI subcommands: list, show, dry-run, run
(report schema and cache replay), and the exit-code contract for bad suites."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

FAST_SUITE = """
suite: cli-test
defaults: {requests_per_core: 300, geometry: reduced}
scenarios:
  - family: multi-attacker
    params:
      tracker: dapper-h
      attackers: [{attack: refresh, hammer_rate: 0.5}]
      workloads: [453.povray]
  - family: single
    params: {tracker: none, workload: 453.povray}
"""


@pytest.fixture
def suite_path(tmp_path):
    path = tmp_path / "suite.yaml"
    path.write_text(FAST_SUITE, encoding="utf-8")
    return path


def _run(suite_path, tmp_path, *extra: str) -> tuple[int, dict]:
    report_path = tmp_path / "report.json"
    code = main(
        [
            "scenarios", "run", str(suite_path),
            "--cache-dir", str(tmp_path / "cache.sqlite"),
            "-o", str(report_path),
            *extra,
        ]
    )
    report = (
        json.loads(report_path.read_text(encoding="utf-8"))
        if report_path.exists()
        else {}
    )
    return code, report


class TestBrowsing:
    def test_list_names_builtin_families(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("multi-attacker", "fuzz", "paper-figure3"):
            assert name in out

    def test_show_prints_parameters(self, capsys):
        assert main(["scenarios", "show", "multi-attacker"]) == 0
        out = capsys.readouterr().out
        assert "attackers" in out and "(required)" in out
        assert "hammer_rate" in out

    def test_show_unknown_family_exits_2(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 2
        assert "unknown scenario family" in capsys.readouterr().err


class TestRun:
    def test_report_schema_and_replay(self, suite_path, tmp_path, capsys):
        code, report = _run(suite_path, tmp_path)
        assert code == 0
        assert set(report) == {"suite", "scenarios", "summary"}
        assert report["suite"]["name"] == "cli-test"
        assert report["suite"]["families"] == ["multi-attacker", "single"]
        assert len(report["scenarios"]) == 2
        planned = report["scenarios"][0]
        # One attacker core; the one-entry blend is cycled over the rest.
        assert planned["cores"] == ["attack:refresh@r0.5"] + ["453.povray"] * 3
        assert 0.0 < planned["normalized_performance"] <= 1.5
        capsys.readouterr()

        # Second invocation: everything must replay from the on-disk cache
        # with identical numbers.
        code, replay = _run(suite_path, tmp_path)
        assert code == 0
        assert replay["summary"]["cache_hit_rate"] == 1.0
        assert [s["normalized_performance"] for s in replay["scenarios"]] == [
            s["normalized_performance"] for s in report["scenarios"]
        ]

    def test_default_cache_is_a_warehouse_in_the_working_directory(
        self, suite_path, tmp_path, monkeypatch, capsys
    ):
        from repro.store import SqliteStore

        monkeypatch.chdir(tmp_path)
        reports = []
        for _ in range(2):
            assert main(["scenarios", "run", str(suite_path)]) == 0
            reports.append(
                json.loads(Path("scenario-report.json").read_text(encoding="utf-8"))
            )
        first, replay = reports
        assert first["summary"]["cache_dir"] == ".sweep-cache.sqlite"
        assert replay["summary"]["cache_hit_rate"] == 1.0
        store = SqliteStore(tmp_path / ".sweep-cache.sqlite")
        assert len(store) == first["summary"]["cache_misses"]
        plans = [record.scenario.get("cores") for record in store.records()]
        store.close()
        assert ["attack:refresh@r0.5"] + ["453.povray"] * 3 in plans

    def test_legacy_cache_directory_runs_uncached(
        self, suite_path, tmp_path, capsys
    ):
        (tmp_path / "reference").mkdir()
        _, reference = _run(suite_path, tmp_path / "reference", "--cache-dir", "")
        legacy = tmp_path / ".sweep-cache"
        legacy.mkdir()
        (legacy / "entry.json").write_text("{}", encoding="utf-8")
        capsys.readouterr()
        code, report = _run(suite_path, tmp_path, "--cache-dir", str(legacy))
        assert code == 0
        assert "store import" in capsys.readouterr().err
        assert report["summary"]["cache_hits"] == 0
        assert [s["normalized_performance"] for s in report["scenarios"]] == [
            s["normalized_performance"] for s in reference["scenarios"]
        ]
        assert [path.name for path in legacy.iterdir()] == ["entry.json"]

    def test_dry_run_compiles_without_simulating(self, suite_path, tmp_path, capsys):
        code, report = _run(suite_path, tmp_path, "--dry-run")
        assert code == 0
        assert report == {}  # no report file written
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out

    def test_bad_suite_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenarios: [{family: nope}]", encoding="utf-8")
        assert main(["scenarios", "run", str(bad)]) == 2
        assert "unknown scenario family" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["scenarios", "run", str(tmp_path / "absent.yaml")]) == 2
        assert "cannot read suite file" in capsys.readouterr().err


class TestTraceReplayInput:
    """A ``trace-replay`` entry whose file cannot be read is a refused suite
    (exit 2, the path named on stderr) on every verb that compiles suites."""

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize(
        "verb",
        [
            ["scenarios", "run"],
            ["campaign", "run"],
            ["obs", "trace", "--suite"],
        ],
        ids=["scenarios-run", "campaign-run", "obs-trace"],
    )
    def test_unreadable_trace_exits_2(
        self, verb, target, tmp_path, monkeypatch, capsys
    ):
        trace = tmp_path / "absent.trace"
        if target == "directory":
            trace = tmp_path / "traces"
            trace.mkdir()
        suite = tmp_path / "suite.json"
        entry = {"family": "trace-replay", "params": {"trace": str(trace)}}
        suite.write_text(json.dumps({"scenarios": [entry]}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        extra = {
            "scenarios": ["--cache-dir", ""],
            "campaign": ["--store", str(tmp_path / "w.sqlite")],
            "obs": ["-o", str(tmp_path / "trace.json")],
        }[verb[0]]
        assert main([*verb, str(suite), *extra]) == 2
        err = capsys.readouterr().err
        assert "family 'trace-replay'" in err
        assert f"cannot read trace file {str(trace)!r}" in err
        assert not (tmp_path / "trace.json").exists()
