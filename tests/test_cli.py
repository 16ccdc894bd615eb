"""Tests for the command-line interface."""

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
