"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import _build_parser, main
from repro.store import SqliteStore

#: A suite of one small benign scenario.
ONE_SCENARIO = {
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


def _leaf_verbs(parser, path=()):
    """``(argv path, parser)`` of every leaf verb under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_verbs(child, (*path, name))
            return
    yield path, parser


LEAF_VERBS = dict(_leaf_verbs(_build_parser()))


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
        suite.write_text(json.dumps(ONE_SCENARIO))
        monkeypatch.chdir(tmp_path)
        argv = self.VERBS[verb](str(tmp_path / "w.sqlite"), str(suite))
        output = tmp_path / "nodir" / "out.json"
        with pytest.raises(SystemExit) as exited:
            main([*argv, "-o", str(output)])
        assert exited.value.code == 2
        assert "no directory" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["suite.json"]


class TestOutputToStdout:
    """``-o -`` puts the verb's document alone on stdout, as ``-o FILE``
    writes it (a batch report up to its wall time), and leaves no file
    named ``-`` behind."""

    #: Verbs with ``-o/--output``, given a warehouse holding the campaign
    #: ``one``, the key of a run's metrics stored there, and a suite file.
    VERBS = {
        "sweep": lambda store, key, suite: [
            "sweep", "--trackers", "none", "--workloads", "453.povray",
            "--requests", "200", "--cache-dir", "",
        ],
        "scenarios-run": lambda store, key, suite: [
            "scenarios", "run", suite, "--cache-dir", "",
        ],
        "obs-trace": lambda store, key, suite: [
            "obs", "trace", "--tracker", "none", "--workload", "453.povray",
            "--requests", "200",
        ],
        "trace-record": lambda store, key, suite: ["trace-record", "--entries", "10"],
        "store-export": lambda store, key, suite: ["store", "export", "--store", store],
        "campaign-report": lambda store, key, suite: [
            "campaign", "report", "one", "--store", store, "--format", "json",
        ],
        "store-metrics": lambda store, key, suite: [
            "store", "metrics", "--store", store, "--key", key, "--format", "csv",
        ],
    }

    @pytest.fixture(scope="class")
    def warehouse(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("warehouse")
        suite = root / "suite.json"
        suite.write_text(json.dumps(ONE_SCENARIO))
        store = root / "w.sqlite"
        assert main(["campaign", "run", str(suite), "--store", str(store)]) == 0
        trace = root / "trace.json"
        assert main([
            "obs", "trace", "--suite", str(suite), "--store", str(store),
            "-o", str(trace),
        ]) == 0
        opened = SqliteStore(store)
        (key,) = opened.metrics_keys()
        opened.close()
        return str(store), key, str(suite)

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_dash_prints_the_document_alone(
        self, verb, warehouse, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = self.VERBS[verb](*warehouse)
        assert main([*argv, "-o", "document"]) == 0
        capsys.readouterr()
        assert main([*argv, "-o", "-"]) == 0
        printed = capsys.readouterr()
        assert [path.name for path in tmp_path.iterdir()] == ["document"]
        written = (tmp_path / "document").read_text(encoding="utf-8")
        if verb in ("sweep", "scenarios-run"):
            reports = [json.loads(printed.out), json.loads(written)]
            for report in reports:
                del report["summary"]["elapsed_seconds"]
            assert reports[0] == reports[1]
            assert "simulations: 1" in printed.err
        else:
            assert printed.out == written


class TestParserTree:
    def test_twenty_five_leaf_verbs(self):
        assert len(LEAF_VERBS) == 25

    @pytest.mark.parametrize("path", list(LEAF_VERBS), ids="-".join)
    def test_leaf_binds_a_handler_and_prints_help(self, path, capsys):
        assert callable(LEAF_VERBS[path].get_default("handler"))
        with pytest.raises(SystemExit) as exited:
            main([*path, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")
