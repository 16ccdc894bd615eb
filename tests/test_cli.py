"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestListing:
    def test_list_trackers(self, capsys):
        assert main(["list-trackers"]) == 0
        output = capsys.readouterr().out
        assert "dapper-h" in output
        assert "hydra" in output

    def test_list_workloads_all(self, capsys):
        assert main(["list-workloads"]) == 0
        output = capsys.readouterr().out
        assert "429.mcf" in output
        assert "ycsb-a" in output

    def test_list_workloads_filtered_by_suite(self, capsys):
        assert main(["list-workloads", "--suite", "TPC"]) == 0
        output = capsys.readouterr().out
        assert "tpcc64" in output
        assert "429.mcf" not in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStorageCommand:
    def test_storage_table_printed(self, capsys):
        assert main(["storage"]) == 0
        output = capsys.readouterr().out
        assert "dapper-h" in output
        assert "sram_kb" in output


class TestRunCommand:
    def test_benign_run(self, capsys):
        code = main(
            [
                "run",
                "--tracker", "dapper-h",
                "--workload", "403.gcc",
                "--requests", "1000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "normalized perf" in output
        assert "mitigations" in output

    def test_attack_run_with_matched_baseline(self, capsys):
        code = main(
            [
                "run",
                "--tracker", "dapper-s",
                "--workload", "403.gcc",
                "--attack", "refresh",
                "--requests", "1000",
                "--attack-matched-baseline",
            ]
        )
        assert code == 0
        assert "refresh" in capsys.readouterr().out

    def test_unknown_tracker_rejected(self, capsys):
        assert main(["run", "--tracker", "definitely-not-a-tracker"]) == 2
        assert "unknown tracker" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        # Rejected up front with the message ``sweep`` prints, before any
        # simulation starts.
        assert main(["run", "--workload", "no-such", "--requests", "200"]) == 2
        assert "unknown workload 'no-such'" in capsys.readouterr().err

    def test_unknown_attack_exits_2(self, capsys):
        assert main(["run", "--attack", "no-such", "--requests", "200"]) == 2
        assert "unknown attack 'no-such'" in capsys.readouterr().err


class TestSecurityCommand:
    def test_protected_system_is_secure(self, capsys):
        code = main(
            ["security", "--tracker", "dapper-h", "--requests", "1200"]
        )
        assert code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_unprotected_system_is_vulnerable(self, capsys):
        code = main(["security", "--tracker", "none", "--requests", "1200"])
        assert code == 0        # "none" is allowed to be vulnerable
        assert "VULNERABLE" in capsys.readouterr().out


class TestOutputDirectory:
    """An ``-o`` path into a missing directory is refused while parsing:
    exit 2, nothing simulated, no store opened, no file created."""

    #: Every verb with ``-o/--output``, given a store path and a suite file.
    VERBS = {
        "sweep": lambda store, suite: [
            "sweep", "--trackers", "none", "--workloads", "453.povray",
            "--requests", "200", "--cache-dir", store,
        ],
        "scenarios-run": lambda store, suite: [
            "scenarios", "run", suite, "--cache-dir", store,
        ],
        "obs-trace": lambda store, suite: [
            "obs", "trace", "--tracker", "none", "--workload", "453.povray",
            "--requests", "200", "--store", store,
        ],
        "trace-record": lambda store, suite: ["trace-record", "--entries", "10"],
        "campaign-report": lambda store, suite: [
            "campaign", "report", "any", "--store", store,
        ],
        "campaign-diff": lambda store, suite: [
            "campaign", "diff", "a", "b", "--store", store,
        ],
        "store-export": lambda store, suite: ["store", "export", "--store", store],
        "store-metrics": lambda store, suite: [
            "store", "metrics", "--list", "--store", store,
        ],
    }

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_missing_directory_exits_2_and_writes_nothing(
        self, verb, tmp_path, monkeypatch, capsys
    ):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {
                    "suite": "one",
                    "scenarios": [
                        {
                            "family": "single",
                            "params": {
                                "tracker": "none",
                                "workload": "453.povray",
                                "requests_per_core": 200,
                            },
                        }
                    ],
                }
            )
        )
        monkeypatch.chdir(tmp_path)
        argv = self.VERBS[verb](str(tmp_path / "w.sqlite"), str(suite))
        output = tmp_path / "nodir" / "out.json"
        with pytest.raises(SystemExit) as exited:
            main([*argv, "-o", str(output)])
        assert exited.value.code == 2
        assert "no directory" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["suite.json"]
