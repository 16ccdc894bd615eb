"""Tests for the ``sweep`` CLI subcommand: argument parsing, parallel jobs,
the JSON report schema, cache behaviour across invocations, and exit codes."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.store import SqliteStore

WORKLOAD = "453.povray"
FAST_ARGS = ["--requests", "300", "--nrh", "500"]


def _sweep(tmp_path, *extra: str) -> tuple[int, dict]:
    report_path = tmp_path / "report.json"
    code = main(
        [
            "sweep",
            "--workloads", WORKLOAD,
            "--cache-dir", str(tmp_path / "cache.sqlite"),
            "-o", str(report_path),
            *FAST_ARGS,
            *extra,
        ]
    )
    report = (
        json.loads(report_path.read_text(encoding="utf-8"))
        if report_path.exists()
        else {}
    )
    return code, report


class TestReportSchema:
    def test_report_written_with_expected_schema(self, tmp_path, capsys):
        code, report = _sweep(tmp_path, "--trackers", "none,dapper-h")
        assert code == 0
        assert set(report) == {"config", "scenarios", "summary"}
        assert len(report["scenarios"]) == 2
        for scenario in report["scenarios"]:
            assert scenario["workload"] == WORKLOAD
            assert scenario["attack"] is None
            assert 0.0 < scenario["normalized_performance"] <= 1.5
            assert isinstance(scenario["from_cache"], bool)
            assert len(scenario["cache_key"]) == 64       # sha256 hex
        summary = report["summary"]
        assert summary["scenarios"] == 2
        assert summary["cache_hits"] + summary["cache_misses"] == summary["simulations"]
        assert summary["jobs"] == 1
        out = capsys.readouterr().out
        assert "cache hits" in out

    def test_attack_cross_product(self, tmp_path):
        code, report = _sweep(
            tmp_path,
            "--trackers", "none",
            "--attacks", "none,cache-thrashing",
        )
        assert code == 0
        attacks = [scenario["attack"] for scenario in report["scenarios"]]
        assert attacks == [None, "cache-thrashing"]

    def test_report_to_stdout(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--trackers", "none",
                "--workloads", WORKLOAD,
                "--cache-dir", str(tmp_path / "cache.sqlite"),
                "-o", "-",
                *FAST_ARGS,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["summary"]["scenarios"] == 1


class TestJobsAndCache:
    def test_parallel_jobs_match_serial(self, tmp_path):
        code_serial, serial = _sweep(
            tmp_path / "serial", "--trackers", "none,dapper-h", "--jobs", "1"
        )
        code_parallel, parallel = _sweep(
            tmp_path / "parallel", "--trackers", "none,dapper-h", "--jobs", "2"
        )
        assert code_serial == code_parallel == 0
        assert [s["normalized_performance"] for s in serial["scenarios"]] == [
            s["normalized_performance"] for s in parallel["scenarios"]
        ]

    def test_second_invocation_is_served_from_cache(self, tmp_path):
        _sweep(tmp_path, "--trackers", "none,dapper-h")
        code, report = _sweep(tmp_path, "--trackers", "none,dapper-h")
        assert code == 0
        summary = report["summary"]
        assert summary["cache_hit_rate"] >= 0.9
        assert all(s["from_cache"] for s in report["scenarios"])


class TestCacheTarget:
    """``--cache-dir`` names the warehouse file: ``.sweep-cache.sqlite`` in
    the working directory by default, ``''`` for none, and a path that is
    not a warehouse degrades to a cache-less run that leaves it untouched."""

    ARGS = [
        "sweep", "--trackers", "none,dapper-h", "--workloads", WORKLOAD,
        *FAST_ARGS,
    ]

    def _run(self, *extra: str) -> dict:
        assert main([*self.ARGS, *extra]) == 0
        return json.loads(Path("sweep-report.json").read_text(encoding="utf-8"))

    @staticmethod
    def _normalized(report: dict) -> list[float]:
        return [row["normalized_performance"] for row in report["scenarios"]]

    def test_default_cache_is_a_warehouse_in_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        first = self._run()
        assert first["summary"]["cache_dir"] == ".sweep-cache.sqlite"
        assert first["summary"]["cache_misses"] == 2
        store = SqliteStore(tmp_path / ".sweep-cache.sqlite")
        assert {record.scenario["tracker"] for record in store.records()} == {
            "none", "dapper-h",
        }
        store.close()
        replay = self._run()
        assert replay["summary"]["cache_hit_rate"] == 1.0
        assert self._normalized(replay) == self._normalized(first)

    def test_empty_cache_dir_disables_the_warehouse(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            report = self._run("--cache-dir", "")
            assert report["summary"]["cache_dir"] is None
            assert report["summary"]["cache_hits"] == 0
        assert [path.name for path in tmp_path.iterdir()] == ["sweep-report.json"]

    def test_legacy_cache_directory_runs_uncached_and_is_left_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        reference = self._run("--cache-dir", "")
        legacy = tmp_path / ".sweep-cache"
        legacy.mkdir()
        entry = '{"code_version": "old", "scenario": {}, "result": {}}'
        (legacy / "entry.json").write_text(entry, encoding="utf-8")
        capsys.readouterr()
        report = self._run("--cache-dir", ".sweep-cache")
        assert "store import .sweep-cache" in capsys.readouterr().err
        assert report["summary"]["cache_hits"] == 0
        assert self._normalized(report) == self._normalized(reference)
        assert [path.name for path in legacy.iterdir()] == ["entry.json"]
        assert (legacy / "entry.json").read_text(encoding="utf-8") == entry
        assert not (tmp_path / ".sweep-cache.sqlite").exists()

    def test_non_database_cache_file_runs_uncached_and_is_left_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        occupied = tmp_path / "results.sqlite"
        occupied.write_text("not a database", encoding="utf-8")
        for _ in range(2):
            report = self._run("--cache-dir", "results.sqlite")
            assert "store import" in capsys.readouterr().err
            assert report["summary"]["cache_hits"] == 0
            assert len(report["scenarios"]) == 2
        assert occupied.read_text(encoding="utf-8") == "not a database"


class TestExitCodes:
    def test_unknown_tracker_exits_2(self, tmp_path, capsys):
        code, _ = _sweep(tmp_path, "--trackers", "definitely-not-a-tracker")
        assert code == 2
        assert "unknown tracker" in capsys.readouterr().err

    def test_unknown_attack_exits_2(self, tmp_path, capsys):
        code, _ = _sweep(tmp_path, "--trackers", "none", "--attacks", "nope")
        assert code == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--workloads", "not-a-workload", *FAST_ARGS])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_empty_tracker_list_exits_2(self, tmp_path, capsys):
        code, _ = _sweep(tmp_path, "--trackers", ",")
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_breakhammer_composition_is_accepted(self, tmp_path):
        code, report = _sweep(tmp_path, "--trackers", "breakhammer:dapper-h")
        assert code == 0
        assert report["scenarios"][0]["tracker"] == "breakhammer:dapper-h"
