"""CLI coverage for the warehouse verbs (``campaign ...`` / ``store ...``)
plus the ``--cache-dir foo.sqlite`` path of the existing subcommands, and
figure/table parity between the SQLite warehouse and the legacy JSON cache."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sim.sweep import CODE_VERSION, SweepRunner
from repro.store import JsonDirStore, RunRecord, SqliteStore

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

    def test_import_json_dir_into_warehouse(self, tmp_path, capsys):
        cache = JsonDirStore(tmp_path / "cache")
        cache.put(self._seed_record("imported"))
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
    """Figures/tables render identical numbers from the warehouse and the
    legacy JSON cache.  Every simulated figure and table runs through the
    same ``SweepRunner.run``; figure 11 and table 4 cover the benign and
    attack/energy paths, figure 13 the non-default mitigation back-ends, in
    tier-1 time."""

    def test_figure11_and_table4_identical_via_imported_warehouse(self, tmp_path):
        from repro.eval.figures import figure11
        from repro.eval.tables import table4
        from repro.store import import_store

        workloads = ["453.povray"]
        kwargs = dict(workloads=workloads, requests_per_core=250)

        json_runner = SweepRunner(cache_dir=tmp_path / "cache")
        fig_json = figure11(sweep=json_runner, **kwargs)
        tab_json = table4(sweep=json_runner, nrh_values=(500,), **kwargs)

        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        import_store(warehouse, tmp_path / "cache")
        sqlite_runner = SweepRunner(store=warehouse)
        fig_sqlite = figure11(sweep=sqlite_runner, **kwargs)
        tab_sqlite = table4(sweep=sqlite_runner, nrh_values=(500,), **kwargs)

        # Zero re-simulation: every scenario came from the imported records.
        assert sqlite_runner.stats.cache_misses == 0
        assert fig_sqlite.rows == fig_json.rows
        assert tab_sqlite.rows == tab_json.rows

    def test_figure13_identical_via_imported_warehouse(self, tmp_path):
        # Figure 13's non-default mitigation back-ends, and the baselines they
        # share with the default back-end, replay from a warehouse too.
        from repro.eval.figures import figure13
        from repro.store import import_store

        kwargs = dict(
            workloads=["453.povray"], requests_per_core=250, nrh_values=(500,)
        )
        json_runner = SweepRunner(cache_dir=tmp_path / "cache")
        fig_json = figure13(sweep=json_runner, **kwargs)
        # 6 measured runs, 1 benign and 1 attack-matched baseline.
        assert json_runner.stats.cache_misses == 8

        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        import_store(warehouse, tmp_path / "cache")
        sqlite_runner = SweepRunner(store=warehouse)
        fig_sqlite = figure13(sweep=sqlite_runner, **kwargs)

        assert sqlite_runner.stats.cache_misses == 0
        assert fig_sqlite.rows == fig_json.rows
