"""CLI coverage for the warehouse verbs (``campaign ...`` / ``store ...``)
plus the ``--cache-dir foo.sqlite`` path of the existing subcommands, and
figure/table replay from the warehouse -- fresh, and imported from a legacy
JSON cache directory."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import main
from repro.sim.sweep import CODE_VERSION, SweepRunner
from repro.store import RunRecord, SqliteStore

SUITE = {
    "suite": "cli-campaign",
    "description": "tiny campaign for CLI tests",
    "scenarios": [
        {
            "family": "cross-product",
            "params": {
                "trackers": ["none", "dapper-h"],
                "attacks": ["none"],
                "workloads": ["453.povray"],
                "requests_per_core": 200,
                "geometry": "reduced",
            },
        }
    ],
}


@pytest.fixture()
def suite_path(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SUITE), encoding="utf-8")
    return path


def _campaign(tmp_path, suite_path, *extra: str) -> int:
    return main(
        [
            "campaign",
            "run",
            str(suite_path),
            "--store",
            str(tmp_path / "wh.sqlite"),
            *extra,
        ]
    )


class TestCampaignVerbs:
    def test_run_resume_status_report_diff(
        self, tmp_path, suite_path, capsys, caplog
    ):
        import logging

        # Batch progress/ETA is logged (stderr), not printed: the summary on
        # stdout stays machine-greppable while -q can silence the chatter.
        with caplog.at_level(logging.INFO, logger="repro.campaign"):
            assert _campaign(tmp_path, suite_path, "--batch-size", "1") == 0
        first = capsys.readouterr().out
        assert "2 executed" in first
        assert any("batch" in record.message for record in caplog.records)

        # Re-running resumes with zero executions ("..., 0 executed)" is the
        # anchored form: a bare "0 executed" would also match "10 executed").
        assert _campaign(tmp_path, suite_path) == 0
        assert "(2 already stored, 0 executed)" in capsys.readouterr().out

        store_arg = ["--store", str(tmp_path / "wh.sqlite")]
        assert main(["campaign", "status", "cli-campaign", *store_arg]) == 0
        status_out = capsys.readouterr().out
        assert "2/2 complete" in status_out and "complete" in status_out

        assert main(["campaign", "list", *store_arg]) == 0
        assert "cli-campaign" in capsys.readouterr().out

        assert main(["campaign", "report", "cli-campaign", *store_arg]) == 0
        assert "normalized_performance" in capsys.readouterr().out

        report_csv = tmp_path / "report.csv"
        assert main(
            ["campaign", "report", "cli-campaign", *store_arg,
             "-o", str(report_csv)]
        ) == 0
        capsys.readouterr()
        header, *rows = report_csv.read_text(encoding="utf-8").splitlines()
        assert "normalized_performance" in header
        assert len(rows) == 2

        assert main(
            ["campaign", "diff", "cli-campaign", "cli-campaign", *store_arg]
        ) == 0
        assert "matched 2 scenario(s)" in capsys.readouterr().out

    def test_status_report_leases_json_documents(
        self, tmp_path, suite_path, capsys
    ):
        assert _campaign(tmp_path, suite_path) == 0
        capsys.readouterr()
        store_arg = ["--store", str(tmp_path / "wh.sqlite")]

        assert main(
            ["campaign", "status", "cli-campaign", *store_arg, "--json"]
        ) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["name"] == "cli-campaign"
        assert status["state"] == "complete" and status["percent"] == 100.0

        assert main(
            ["campaign", "report", "cli-campaign", *store_arg, "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_rows"] == 2 and report["returned"] == 2
        assert report["next_offset"] is None
        assert report["rows"][0]["normalized_performance"] is not None

        # No distributed worker joined: an empty-but-valid lease document.
        assert main(
            ["campaign", "leases", "cli-campaign", *store_arg, "--json"]
        ) == 0
        leases = json.loads(capsys.readouterr().out)
        assert leases == {"shards": [], "summary": None}

    def test_unknown_campaign_and_bad_suite_exit_2(self, tmp_path, capsys):
        store_arg = ["--store", str(tmp_path / "wh.sqlite")]
        assert main(["campaign", "status", "nope", *store_arg]) == 2
        assert "unknown campaign" in capsys.readouterr().err
        bad_suite = tmp_path / "bad.json"
        bad_suite.write_text('{"scenarios": [{"family": "nope"}]}')
        assert main(["campaign", "run", str(bad_suite), *store_arg]) == 2
        assert "unknown scenario family" in capsys.readouterr().err


class TestStoreVerbs:
    def _seed_record(self, key="k1", code_version=CODE_VERSION) -> RunRecord:
        return RunRecord(
            key=key,
            code_version=code_version,
            scenario={
                "tracker": "dapper-h",
                "workload": "453.povray",
                "attack": None,
                "seed": 7,
                "nrh": 500,
            },
            result={
                "core_results": [{"ipc": 2.0, "is_attacker": False}],
                "dram_stats": {"activations": 123},
                "tracker_stats": {"mitigations_issued": 1},
            },
            elapsed_seconds=0.5,
        )

    def test_query_group_by_export_gc(self, tmp_path, capsys):
        store_path = tmp_path / "wh.sqlite"
        store = SqliteStore(store_path)
        store.put(self._seed_record("a"))
        store.put(self._seed_record("b", code_version="older"))
        store.close()
        store_arg = ["--store", str(store_path)]

        assert main(["store", "query", *store_arg, "--tracker", "dapper-h"]) == 0
        assert "dapper-h" in capsys.readouterr().out

        assert main(["store", "query", *store_arg, "--group-by", "tracker"]) == 0
        out = capsys.readouterr().out
        assert "runs" in out and "mean_benign_ipc_mean" in out

        exported = tmp_path / "runs.csv"
        assert main(["store", "export", *store_arg, "-o", str(exported)]) == 0
        capsys.readouterr()
        assert "dapper-h" in exported.read_text(encoding="utf-8")

        assert main(["store", "gc", *store_arg, "--dry-run"]) == 0
        assert "would delete 1" in capsys.readouterr().out
        assert main(["store", "gc", *store_arg]) == 0
        assert "deleted 1" in capsys.readouterr().out
        assert SqliteStore(store_path).keys() == {"a"}

    def test_query_offset_pages_through_rows(self, tmp_path, capsys):
        store_path = tmp_path / "wh.sqlite"
        store = SqliteStore(store_path)
        for key in ("row-a", "row-b", "row-c"):
            store.put(self._seed_record(key))
        store.close()
        store_arg = ["--store", str(store_path)]

        assert main(
            ["store", "query", *store_arg, "--limit", "1", "--offset", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "row-b" in out
        assert "row-a" not in out and "row-c" not in out

        # Offset past the data is an empty table, not an error.
        assert main(["store", "query", *store_arg, "--offset", "9"]) == 0
        assert "row-" not in capsys.readouterr().out

    def test_import_json_dir_into_warehouse(
        self, tmp_path, capsys, write_legacy_cache
    ):
        source = SqliteStore(tmp_path / "source.sqlite")
        source.put(self._seed_record("imported"))
        write_legacy_cache(tmp_path / "cache", source)
        store_path = tmp_path / "wh.sqlite"
        args = [
            "store", "import", str(tmp_path / "cache"),
            "--store", str(store_path),
        ]
        assert main(args) == 0
        assert "imported 1 record(s)" in capsys.readouterr().out
        assert main(args) == 0   # idempotent
        assert "(1 already present)" in capsys.readouterr().out
        assert SqliteStore(store_path).get("imported") is not None

    def test_import_nonexistent_source_exits_2(self, tmp_path, capsys):
        # A typo'd .sqlite source must not be silently created as an empty
        # warehouse at the wrong path.
        missing = tmp_path / "warehose.sqlite"
        code = main(
            ["store", "import", str(missing),
             "--store", str(tmp_path / "wh.sqlite")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_import_another_warehouse(self, tmp_path, capsys):
        source = SqliteStore(tmp_path / "a.sqlite")
        source.put(self._seed_record("copied"))
        source.close()
        store_path = tmp_path / "b.sqlite"
        assert main(
            ["store", "import", str(tmp_path / "a.sqlite"),
             "--store", str(store_path)]
        ) == 0
        assert "imported 1 record(s)" in capsys.readouterr().out
        assert SqliteStore(store_path).get("copied") is not None

    def test_non_database_paths_exit_2(self, tmp_path, capsys):
        # A file that is not a warehouse, given to --store or as an import
        # source, is a usage error with a message -- never a traceback.
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a database", encoding="utf-8")
        store_arg = ["--store", str(bogus)]
        for argv in (
            ["store", "query", *store_arg],
            ["store", "gc", *store_arg],
            ["campaign", "list", *store_arg],
            ["campaign", "status", "any", *store_arg],
            ["campaign", "leases", "any", *store_arg],
        ):
            assert main(argv) == 2, argv
            assert "store import" in capsys.readouterr().err
        assert main(
            ["store", "import", str(bogus), "--store", str(tmp_path / "wh.sqlite")]
        ) == 2
        assert "cannot open" in capsys.readouterr().err
        assert bogus.read_text(encoding="utf-8") == "not a database"

    def test_newer_schema_store_exits_2(self, tmp_path, capsys):
        import sqlite3

        path = tmp_path / "future.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version = 99")
        connection.commit()
        connection.close()
        assert main(["store", "query", "--store", str(path)]) == 2
        assert "newer than this code" in capsys.readouterr().err

    #: Every verb that opens a ``--store``, given the paths it needs: the
    #: store under test, a good warehouse, a suite file and an output path.
    STORE_VERBS = {
        "store-query": lambda p: ["store", "query", "--store", p.store],
        "store-export": lambda p: [
            "store", "export", "--store", p.store, "-o", p.output,
        ],
        "store-import": lambda p: ["store", "import", p.store, "--store", p.store],
        "store-gc": lambda p: ["store", "gc", "--store", p.store],
        "store-metrics": lambda p: ["store", "metrics", "--list", "--store", p.store],
        "campaign-run": lambda p: ["campaign", "run", p.suite, "--store", p.store],
        "campaign-worker": lambda p: [
            "campaign", "worker", p.suite, "--init", "--store", p.store,
        ],
        "campaign-status": lambda p: [
            "campaign", "status", "any", "--store", p.store,
        ],
        "campaign-list": lambda p: ["campaign", "list", "--store", p.store],
        "campaign-report": lambda p: [
            "campaign", "report", "any", "--store", p.store, "-o", p.output,
        ],
        "campaign-leases": lambda p: [
            "campaign", "leases", "any", "--store", p.store,
        ],
        "campaign-diff": lambda p: [
            "campaign", "diff", "a", "b", "--store", p.store, "-o", p.output,
        ],
        "campaign-diff-store-b": lambda p: [
            "campaign", "diff", "a", "b", "--store", p.warehouse,
            "--store-b", p.store, "-o", p.output,
        ],
        "obs-trace": lambda p: [
            "obs", "trace", "--tracker", "none", "--workload", "453.povray",
            "--requests", "200", "-o", p.output, "--store", p.store,
        ],
    }

    @pytest.mark.parametrize("verb", list(STORE_VERBS))
    def test_legacy_cache_directory_as_store_exits_2(
        self, verb, tmp_path, suite_path, capsys, write_legacy_cache
    ):
        # A legacy JSON cache directory -- what `--cache-dir` held before the
        # warehouse was the only store -- passed as `--store` is a usage
        # error that names the upgrade; nothing runs and the directory is
        # left exactly as it was.
        source = SqliteStore(tmp_path / "source.sqlite")
        source.put(self._seed_record("legacy"))
        legacy = tmp_path / ".sweep-cache"
        write_legacy_cache(legacy, source)
        before = {path.name: path.read_bytes() for path in legacy.iterdir()}
        SqliteStore(tmp_path / "wh.sqlite").close()
        paths = argparse.Namespace(
            store=str(legacy),
            warehouse=str(tmp_path / "wh.sqlite"),
            suite=str(suite_path),
            output=str(tmp_path / "out.json"),
        )
        assert main(self.STORE_VERBS[verb](paths)) == 2
        err = capsys.readouterr().err
        assert "cannot open" in err and "store import" in err
        assert {path.name: path.read_bytes() for path in legacy.iterdir()} == before
        assert not (tmp_path / "out.json").exists()


class TestSqliteCacheDir:
    def test_sweep_cache_dir_accepts_warehouse_path(self, tmp_path, capsys):
        args = [
            "sweep",
            "--trackers", "none",
            "--workloads", "453.povray",
            "--requests", "200",
            "--cache-dir", str(tmp_path / "wh.sqlite"),
            "-o", str(tmp_path / "report.json"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["cache_hit_rate"] == 1.0
        # The sweep filled a queryable warehouse as a side effect.
        assert len(SqliteStore(tmp_path / "wh.sqlite").query(tracker="none")) == 1


class TestFigureParityAcrossBackends:
    """Figures/tables replay identically from the warehouse: straight from a
    fresh store, and from a legacy JSON cache directory upgraded with
    ``store import``.  Every simulated figure and table runs through the same
    ``SweepRunner.run``; figure 11 and table 4 cover the benign and
    attack/energy paths, figure 13 the non-default mitigation back-ends, in
    tier-1 time."""

    @staticmethod
    def _replays(tmp_path, capsys, write_legacy_cache, regenerate, misses):
        fresh = SqliteStore(tmp_path / "fresh.sqlite")
        first = SweepRunner(store=fresh)
        reference = regenerate(first)
        assert first.stats.cache_misses == misses

        # A new runner on the same warehouse simulates nothing.
        replay = SweepRunner(store=tmp_path / "fresh.sqlite")
        assert regenerate(replay) == reference
        assert replay.stats.cache_misses == 0

        # The same runs as a legacy JSON cache directory, upgraded with
        # `store import`, replay identically too.
        assert write_legacy_cache(tmp_path / "cache", fresh) == misses
        imported = tmp_path / "imported.sqlite"
        assert main(
            ["store", "import", str(tmp_path / "cache"), "--store", str(imported)]
        ) == 0
        assert f"imported {misses} record(s)" in capsys.readouterr().out
        from_legacy = SweepRunner(store=imported)
        assert regenerate(from_legacy) == reference
        assert from_legacy.stats.cache_misses == 0

    def test_figure11_and_table4_identical_via_imported_warehouse(
        self, tmp_path, capsys, write_legacy_cache
    ):
        from repro.eval.figures import figure11
        from repro.eval.tables import table4

        kwargs = dict(workloads=["453.povray"], requests_per_core=250)

        def regenerate(runner):
            return (
                figure11(sweep=runner, **kwargs).rows,
                table4(sweep=runner, nrh_values=(500,), **kwargs).rows,
            )

        # Figure 11: DAPPER-H and its benign baseline; table 4 adds the
        # streaming and refresh runs and their attack-matched baselines (its
        # benign DAPPER-H run is figure 11's).
        self._replays(tmp_path, capsys, write_legacy_cache, regenerate, 6)

    def test_figure13_identical_via_imported_warehouse(
        self, tmp_path, capsys, write_legacy_cache
    ):
        # Figure 13's non-default mitigation back-ends, and the baselines they
        # share with the default back-end, replay from a warehouse too.
        from repro.eval.figures import figure13

        def regenerate(runner):
            return figure13(
                sweep=runner,
                workloads=["453.povray"],
                requests_per_core=250,
                nrh_values=(500,),
            ).rows

        # 6 measured runs, 1 benign and 1 attack-matched baseline.
        self._replays(tmp_path, capsys, write_legacy_cache, regenerate, 8)
