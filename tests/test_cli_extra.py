"""Tests for the extended CLI commands (figures, tables, sweeps, traces)."""

import pytest

import repro.analysis.security_eval as security_eval
from repro.cli import FIGURE_IDS, TABLE_IDS, main
from repro.cpu.tracefile import read_trace


class TestFigureAndTableListing:
    def test_figure_list_shows_every_regenerable_figure(self, capsys):
        assert main(["figure", "--list"]) == 0
        output = capsys.readouterr().out
        for number in FIGURE_IDS:
            assert f"figure {number:>2}:" in output

    def test_figure_without_number_defaults_to_listing(self, capsys):
        assert main(["figure"]) == 0
        assert "figure  1:" in capsys.readouterr().out

    def test_unknown_figure_number_is_rejected(self, capsys):
        assert main(["figure", "7"]) == 2
        assert "available" in capsys.readouterr().out

    def test_table_list_shows_every_regenerable_table(self, capsys):
        assert main(["table", "--list"]) == 0
        output = capsys.readouterr().out
        for number in TABLE_IDS:
            assert f"table {number}:" in output

    def test_unknown_table_number_is_rejected(self, capsys):
        assert main(["table", "9"]) == 2
        assert "available" in capsys.readouterr().out

    def test_table_1_prints_the_system_configuration(self, capsys):
        assert main(["table", "1"]) == 0
        output = capsys.readouterr().out
        assert "DDR5" in output or "parameter" in output

    def test_table_2_prints_the_mapping_capture_analysis(self, capsys):
        assert main(["table", "2"]) == 0
        output = capsys.readouterr().out
        assert "reset" in output.lower()

    def test_table_3_prints_the_storage_comparison(self, capsys):
        assert main(["table", "3"]) == 0
        output = capsys.readouterr().out
        assert "dapper-h" in output
        assert "sram_kb" in output


class TestListAttacks:
    def test_every_attack_kernel_is_listed(self, capsys):
        assert main(["list-attacks"]) == 0
        output = capsys.readouterr().out
        for name in ("rcc-conflict", "refresh", "blind-random-rows", "rowhammer"):
            assert name in output


class TestSecuritySweep:
    def test_sweep_of_secure_trackers_exits_cleanly(self, capsys):
        code = main(
            [
                "security-sweep",
                "--trackers", "dapper-h,graphene",
                "--attacks", "rowhammer",
                "--activations", "4000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "dapper-h" in output
        assert "graphene" in output
        assert "NO" not in output

    def test_sweep_reports_an_insecure_tracker_with_nonzero_exit(self, capsys):
        code = main(
            [
                "security-sweep",
                "--trackers", "dapper-h",
                "--attacks", "rowhammer",
                "--activations", "4000",
                "--nrh", "500",
            ]
        )
        assert code == 0
        # The unprotected baseline, in contrast, must be reported vulnerable.
        code = main(
            [
                "security-sweep",
                "--trackers", "none",
                "--attacks", "rowhammer",
                "--activations", "6000",
            ]
        )
        # "none" is excluded from the failing-exit criterion (it is the
        # deliberately unprotected baseline), so the command still exits 0...
        assert code == 0
        # ...but the table must flag it as insecure.
        assert "NO" in capsys.readouterr().out


    def test_names_are_stripped(self, capsys):
        code = main(
            [
                "security-sweep",
                "--trackers", "graphene, hydra",
                "--attacks", " rowhammer",
                "--activations", "1000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "graphene" in output and "hydra" in output

    @pytest.mark.parametrize(
        "flag, names, message",
        [
            ("--trackers", "dapper-h,nope", "unknown tracker 'nope'"),
            ("--attacks", "rowhammer,nope", "unknown attack 'nope'"),
        ],
    )
    def test_unknown_name_exits_2_before_any_evaluation(
        self, flag, names, message, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("evaluated before every name was checked")

        monkeypatch.setattr(security_eval, "evaluate_tracker_security", never)
        assert main(["security-sweep", flag, names]) == 2
        assert message in capsys.readouterr().err


class TestTraceRecord:
    def test_records_a_replayable_trace(self, tmp_path, capsys):
        output = tmp_path / "mcf.trace"
        code = main(
            [
                "trace-record",
                "--workload", "429.mcf",
                "--entries", "200",
                "-o", str(output),
            ]
        )
        assert code == 0
        assert "wrote 200 entries" in capsys.readouterr().out
        assert len(read_trace(output)) == 200

    def test_unknown_workload_is_rejected(self, tmp_path, capsys):
        output = tmp_path / "x.trace"
        code = main(
            [
                "trace-record",
                "--workload", "not-a-workload",
                "--entries", "10",
                "-o", str(output),
            ]
        )
        assert code == 2
        assert (
            "trace-record: unknown workload 'not-a-workload'"
            in capsys.readouterr().err
        )
        assert not output.exists()

    @pytest.mark.parametrize("entries", ["0", "-5"])
    def test_entries_below_one_are_rejected(self, entries, tmp_path, capsys):
        output = tmp_path / "x.trace"
        assert main(["trace-record", "--entries", entries, "-o", str(output)]) == 2
        assert "trace-record: --entries must be >= 1" in capsys.readouterr().err
        assert not output.exists()
