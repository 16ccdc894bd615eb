"""The experiment warehouse: store resolution, replay parity with cache-less
runs, the legacy JSON cache import, schema migration, concurrent writers,
failed writes, and the worker cap of the sweep pool."""

from __future__ import annotations

import json
import sqlite3
import threading
from concurrent.futures import Future

import pytest

import repro.sim.sweep as sweep_module
from repro.config import reduced_row_config
from repro.sim.sweep import CODE_VERSION, ResultCache, ScenarioSpec, SweepRunner
from repro.store import (
    SCHEMA_VERSION,
    RunRecord,
    SqliteStore,
    gc_store,
    import_store,
    open_store,
    query_rows,
)
from repro.store.backend import create_schema_v1
from repro.store.query import legacy_json_records

REQUESTS = 250


@pytest.fixture(scope="module")
def sweep_config():
    return reduced_row_config(nrh=500, rows_per_bank=2048).with_refresh_window_scale(
        1 / 32
    )


@pytest.fixture
def spec(sweep_config):
    return ScenarioSpec(
        tracker="dapper-h",
        workload="453.povray",
        requests_per_core=REQUESTS,
        config=sweep_config,
    )


def _record(key="k1", tracker="dapper-h", code_version=CODE_VERSION) -> RunRecord:
    return RunRecord(
        key=key,
        code_version=code_version,
        scenario={
            "tracker": tracker,
            "workload": "453.povray",
            "attack": None,
            "seed": 7,
            "nrh": 500,
        },
        result={"payload": key},
        elapsed_seconds=0.25,
    )


class TestBackendResolution:
    def test_suffix_selects_sqlite(self, tmp_path):
        assert isinstance(open_store(tmp_path / "wh.sqlite"), SqliteStore)
        assert isinstance(open_store(tmp_path / "wh.db"), SqliteStore)

    def test_any_path_selects_sqlite(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, SqliteStore)
        assert (tmp_path / "cache").is_file()

    def test_none_and_empty_disable(self):
        assert open_store(None) is None
        assert open_store("") is None

    def test_store_instance_passes_through(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        assert open_store(store) is store

    def test_runner_takes_the_store_positionally(self, spec, tmp_path):
        # ``store`` is the runner's first parameter, where ``cache_dir`` was.
        SweepRunner(tmp_path / "wh.sqlite").run_one(spec)
        replay = SweepRunner(str(tmp_path / "wh.sqlite"))
        assert replay.run_one(spec).from_cache
        assert replay.stats.cache_misses == 0

    def test_runner_shares_an_open_store(self, spec, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        runner = SweepRunner(store=store)
        assert runner.cache.backend is store
        runner.run_one(spec)
        assert spec.cache_key() in store.keys()
        assert spec.baseline_spec().cache_key() in store.keys()


class TestBackendParity:
    """warehouse == serial: byte-identical stored and replayed results."""

    def test_round_trip_identical_records(self, tmp_path):
        record = _record()
        sqlite_store = SqliteStore(tmp_path / "wh.sqlite")
        sqlite_store.put(record)
        loaded = sqlite_store.get(record.key)
        assert loaded.key == record.key
        assert loaded.code_version == record.code_version
        assert loaded.scenario == record.scenario
        assert loaded.result == record.result
        assert loaded.elapsed_seconds == record.elapsed_seconds

    def test_simulated_results_byte_identical_through_warehouse(
        self, spec, tmp_path
    ):
        serial = SweepRunner().run_one(spec)
        SweepRunner(store=tmp_path / "wh.sqlite").run_one(spec)
        via_sqlite = SweepRunner(store=tmp_path / "wh.sqlite").run_one(spec)
        assert via_sqlite.from_cache
        reference = json.dumps(serial.result.to_dict(), sort_keys=True)
        assert json.dumps(via_sqlite.result.to_dict(), sort_keys=True) == reference
        assert via_sqlite.normalized == serial.normalized

    def test_sqlite_replay_hits_cache(self, spec, tmp_path):
        SweepRunner(store=tmp_path / "wh.sqlite").run_one(spec)
        replay = SweepRunner(store=tmp_path / "wh.sqlite")
        outcome = replay.run_one(spec)
        assert outcome.from_cache and outcome.baseline_from_cache
        assert replay.stats.cache_misses == 0

    def test_json_to_sqlite_import_replays_identically(
        self, spec, tmp_path, write_legacy_cache
    ):
        source = SqliteStore(tmp_path / "source.sqlite")
        reference = SweepRunner(store=source).run_one(spec)
        write_legacy_cache(tmp_path / "cache", source)
        # Unreadable files are skipped, as the JSON cache treated them.
        (tmp_path / "cache" / "truncated.json").write_text("{", encoding="utf-8")
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        counts = import_store(warehouse, tmp_path / "cache")
        assert counts.runs == 2 and counts.skipped == 0  # measured + baseline
        # Imported entries must be replayed as cache hits, bit-identically.
        replay = SweepRunner(store=warehouse)
        outcome = replay.run_one(spec)
        assert outcome.from_cache
        assert replay.stats.cache_misses == 0
        assert json.dumps(outcome.result.to_dict(), sort_keys=True) == json.dumps(
            reference.result.to_dict(), sort_keys=True
        )
        # Importing again skips everything.
        assert import_store(warehouse, tmp_path / "cache") == (0, 0, 0, 2)

    def test_sqlite_tolerates_corrupted_payload(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put(_record())
        store._connection.execute(
            "UPDATE runs SET result = '{not json' WHERE key = 'k1'"
        )
        store._connection.commit()
        assert store.get("k1") is None
        assert ResultCache(store).load("k1") is None  # miss, not crash

    def test_warehouse_imports_another_warehouse(self, tmp_path):
        source = SqliteStore(tmp_path / "a.sqlite")
        source.put(_record("k1"))
        source.close()
        warehouse = SqliteStore(tmp_path / "b.sqlite")
        assert import_store(warehouse, tmp_path / "a.sqlite") == (1, 0, 0, 0)
        assert warehouse.get("k1").result == {"payload": "k1"}


class TestWarehouseImport:
    """``store import A.sqlite``: runs, metric series and campaign manifests
    come over; lease rows do not."""

    @staticmethod
    def _source(path) -> SqliteStore:
        source = SqliteStore(path)
        source.put(_record("k1"))
        source.put_metrics("k1", [("mc.requests", 100.0, 10.0)])
        source.save_campaign("c", {"name": "c", "entries": []})
        source.init_leases("c", [["k1"]])
        return source

    def test_metrics_and_campaigns_come_over(self, tmp_path):
        self._source(tmp_path / "a.sqlite").close()
        warehouse = SqliteStore(tmp_path / "b.sqlite")
        assert import_store(warehouse, tmp_path / "a.sqlite") == (1, 1, 1, 0)
        assert warehouse.metrics_keys() == {"k1"}
        assert warehouse.get_metrics("k1") == {"mc.requests": [(100.0, 10.0)]}
        assert warehouse.campaign_names() == ("c",)
        assert warehouse.load_campaign("c") == {"name": "c", "entries": []}
        # The destination draws its own shard plan on its next run.
        assert warehouse.lease_rows("c") == []
        # Everything is skipped the second time, unless overwriting.
        assert import_store(warehouse, tmp_path / "a.sqlite") == (0, 0, 0, 3)
        assert import_store(
            warehouse, tmp_path / "a.sqlite", overwrite=True
        ) == (1, 1, 1, 0)

    def test_existing_campaign_is_kept_without_overwrite(self, tmp_path):
        source = self._source(tmp_path / "a.sqlite")
        warehouse = SqliteStore(tmp_path / "b.sqlite")
        warehouse.save_campaign("c", {"name": "c", "entries": [], "mine": 1})
        warehouse.init_leases("c", [["k9"]])
        assert import_store(warehouse, source) == (1, 1, 0, 1)
        assert warehouse.load_campaign("c")["mine"] == 1
        assert [row.keys for row in warehouse.lease_rows("c")] == [("k9",)]

    def test_cli_line_counts_all_three(self, tmp_path, capsys):
        from repro.cli import main

        self._source(tmp_path / "a.sqlite").close()
        assert main([
            "store", "import", str(tmp_path / "a.sqlite"),
            "--store", str(tmp_path / "b.sqlite"),
        ]) == 0
        out = capsys.readouterr().out
        assert "imported 1 record(s), 1 metric series and 1 campaign(s)" in out


class TestLegacyJsonImport:
    """``store import DIR``: the one-shot upgrade of a legacy JSON cache
    directory (one ``<key>.json`` file per run), read the way that cache
    read itself."""

    @staticmethod
    def _write(directory, name, payload) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (directory / name).write_text(text, encoding="utf-8")

    @staticmethod
    def _entry(key="k1", **fields) -> dict:
        record = _record(key)
        return {
            "code_version": record.code_version,
            "scenario": record.scenario,
            "result": record.result,
            **fields,
        }

    def test_unreadable_and_incomplete_files_are_skipped(self, tmp_path):
        cache = tmp_path / "cache"
        self._write(cache, "good.json", self._entry("good"))
        self._write(cache, "garbage.json", "{ not json")
        self._write(cache, "empty.json", "")
        self._write(cache, "list.json", [1, 2, 3])
        self._write(
            cache, "no-result.json", {"code_version": CODE_VERSION, "scenario": {}}
        )
        self._write(cache, "no-version.json", {"scenario": {}, "result": {}})
        assert [record.key for record in legacy_json_records(cache)] == ["good"]
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        assert import_store(warehouse, cache) == (1, 0, 0, 0)
        assert warehouse.keys() == {"good"}

    def test_metrics_campaigns_and_temp_files_are_not_runs(self, tmp_path):
        # The JSON cache kept metrics series under metrics/, campaign
        # manifests under campaigns/, and wrote through <key>.tmp.<pid>.
        cache = tmp_path / "cache"
        self._write(cache, "k1.json", self._entry("k1"))
        self._write(cache / "metrics", "k1.json", [["mc.requests", 100.0, 10.0]])
        self._write(cache / "campaigns", "full.json", {"name": "full", "entries": []})
        self._write(cache, "k2.tmp.4242", '{"partial":')
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        assert import_store(warehouse, cache) == (1, 0, 0, 0)
        assert warehouse.keys() == {"k1"}
        assert warehouse.campaign_names() == ()
        assert warehouse.metrics_keys() == set()

    def test_timing_and_stale_code_versions_carry_over(self, tmp_path):
        cache = tmp_path / "cache"
        self._write(cache, "fresh.json", self._entry(
            "fresh",
            elapsed_seconds=1.5,
            peak_memory_bytes=4096,
            created_at="2024-01-02T03:04:05+00:00",
        ))
        self._write(cache, "stale.json", self._entry("stale", code_version="older"))
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        assert import_store(warehouse, cache) == (2, 0, 0, 0)
        fresh = warehouse.get("fresh")
        assert (fresh.elapsed_seconds, fresh.peak_memory_bytes, fresh.created_at) == (
            1.5, 4096, "2024-01-02T03:04:05+00:00",
        )
        assert fresh.scenario == _record().scenario
        # Stale runs come over as they are, for `store gc` to purge.
        assert warehouse.get("stale").code_version == "older"
        assert gc_store(warehouse) == 1
        assert warehouse.keys() == {"fresh"}

    def test_overwrite_replaces_existing_rows(self, tmp_path):
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        warehouse.put(_record("k1"))
        cache = tmp_path / "cache"
        self._write(cache, "k1.json", self._entry("k1", result={"payload": "json"}))
        self._write(cache, "k2.json", self._entry("k2"))
        assert import_store(warehouse, cache) == (1, 0, 0, 1)
        assert warehouse.get("k1").result == {"payload": "k1"}
        assert import_store(warehouse, cache, overwrite=True) == (2, 0, 0, 0)
        assert warehouse.get("k1").result == {"payload": "json"}

    def test_open_warehouse_source_stays_usable(self, tmp_path):
        source = SqliteStore(tmp_path / "a.sqlite")
        source.put(_record("k1"))
        source.put(_record("k2", tracker="graphene"))
        warehouse = SqliteStore(tmp_path / "b.sqlite")
        assert import_store(warehouse, source) == (2, 0, 0, 0)
        assert [record.scenario["tracker"] for record in warehouse.records()] == [
            "dapper-h", "graphene",
        ]
        source.put(_record("k3"))
        assert source.keys() == {"k1", "k2", "k3"}

    def test_missing_source_is_refused_not_created(self, tmp_path):
        warehouse = SqliteStore(tmp_path / "wh.sqlite")
        missing = tmp_path / "warehose.sqlite"
        with pytest.raises(FileNotFoundError, match="does not exist"):
            import_store(warehouse, missing)
        assert not missing.exists()


class TestSchemaMigration:
    def _v1_database(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        create_schema_v1(connection)
        connection.execute(
            "INSERT INTO runs (key, code_version, scenario, result, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                "old-key",
                CODE_VERSION,
                json.dumps(
                    {
                        "tracker": "graphene",
                        "workload": "429.mcf",
                        "attack": "refresh",
                        "seed": 3,
                        "nrh": 1000,
                    }
                ),
                json.dumps({"payload": "v1"}),
                "2026-01-01T00:00:00+00:00",
            ),
        )
        connection.commit()
        connection.close()
        return path

    def test_v1_database_migrates_and_keeps_data(self, tmp_path):
        path = self._v1_database(tmp_path)
        store = SqliteStore(path)
        assert store._schema_version() == SCHEMA_VERSION
        record = store.get("old-key")
        assert record is not None
        assert record.result == {"payload": "v1"}
        assert record.elapsed_seconds is None   # v1 had no timing column

    def test_migration_backfills_scenario_columns(self, tmp_path):
        store = SqliteStore(self._v1_database(tmp_path))
        matched = store.query(tracker="graphene", nrh=1000)
        assert [record.key for record in matched] == ["old-key"]
        assert store.query(tracker="dapper-h") == []

    def test_migration_adds_campaign_table(self, tmp_path):
        store = SqliteStore(self._v1_database(tmp_path))
        store.save_campaign("after-migration", {"entries": []})
        assert store.load_campaign("after-migration") == {"entries": []}

    def test_failed_migration_rolls_back_cleanly(self, tmp_path, monkeypatch):
        # A crash mid-migration must leave the database at v1 so the next
        # open retries from scratch -- a partially-committed migration would
        # fail every subsequent open on "duplicate column name".
        import repro.store.backend as backend_module

        path = self._v1_database(tmp_path)

        def _crashing_migration(connection):
            connection.execute("ALTER TABLE runs ADD COLUMN tracker TEXT")
            raise sqlite3.OperationalError("simulated crash mid-migration")

        monkeypatch.setitem(backend_module.MIGRATIONS, 1, _crashing_migration)
        with pytest.raises(sqlite3.OperationalError, match="simulated crash"):
            SqliteStore(path)
        monkeypatch.undo()

        store = SqliteStore(path)   # the real migration must now succeed
        assert store._schema_version() == SCHEMA_VERSION
        assert store.get("old-key") is not None
        assert [record.key for record in store.query(tracker="graphene")] == [
            "old-key"
        ]

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match="newer than this code"):
            SqliteStore(path)

    def test_reopening_is_idempotent(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        SqliteStore(path).put(_record())
        reopened = SqliteStore(path)
        assert reopened._schema_version() == SCHEMA_VERSION
        assert reopened.get("k1") is not None


class TestConcurrentWriters:
    def test_parallel_writers_lose_nothing(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        SqliteStore(path).close()    # create the schema up front
        per_writer, writers = 25, 4

        def _write(writer: int) -> None:
            # One store (= one connection) per writer, as pool feeders have.
            store = SqliteStore(path)
            for index in range(per_writer):
                store.put(_record(key=f"w{writer}-{index}"))
            store.close()

        threads = [
            threading.Thread(target=_write, args=(writer,))
            for writer in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store = SqliteStore(path)
        assert len(store.keys()) == per_writer * writers
        assert all(record.result for record in store.records())

    def test_concurrent_schema_creation(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        stores: list[SqliteStore] = []
        errors: list[Exception] = []

        def _open() -> None:
            try:
                stores.append(SqliteStore(path))
            except Exception as error:  # pragma: no cover - failure mode
                errors.append(error)

        threads = [threading.Thread(target=_open) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(store._schema_version() == SCHEMA_VERSION for store in stores)


class _FailingCommit:
    """A connection whose ``commit`` fails, as on a full disk: the write
    itself went through, but its transaction never lands."""

    def __init__(self, connection):
        self._connection = connection

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def commit(self):
        raise sqlite3.OperationalError("database or disk is full")


class TestFailedWrites:
    """A failing writer must never leave a truncated or half-written run."""

    def test_unserializable_result_leaves_nothing_behind(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        bad = RunRecord(
            key="bad",
            code_version=CODE_VERSION,
            scenario={},
            result={"unserializable": object()},
        )
        store.put(bad)   # degrades silently, exactly like an unwritable disk
        assert store.get("bad") is None
        assert store.keys() == set()

    def test_interrupted_write_preserves_previous_entry(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put(_record())
        before = store.get("k1")

        connection = store._connection
        store._connection = _FailingCommit(connection)
        store.put(_record(tracker="graphene"))   # written, never committed
        store._connection = connection
        after = store.get("k1")
        assert after is not None
        assert after.result == before.result
        assert after.scenario == before.scenario
        assert store.keys() == {"k1"}


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records max_workers."""

    max_workers_seen: int | None = None

    def __init__(self, max_workers, initializer=None, initargs=()):
        type(self).max_workers_seen = max_workers

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerCap:
    def test_pool_never_exceeds_pending_work(
        self, sweep_config, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor", _RecordingPool
        )
        specs = [
            ScenarioSpec(
                tracker=tracker,
                workload="453.povray",
                requests_per_core=REQUESTS,
                config=sweep_config,
            )
            for tracker in ("none", "dapper-h")
        ]
        runner = SweepRunner(jobs=8)
        runner.run(specs)
        # Two unique simulations pending (dapper-h + the shared baseline):
        # eight requested jobs must be capped at two workers.
        assert _RecordingPool.max_workers_seen == 2


class TestQueryLayer:
    def test_query_filters_and_limit(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        for index, tracker in enumerate(("dapper-h", "dapper-h", "graphene")):
            store.put(_record(key=f"k{index}", tracker=tracker))
        assert len(store.query(tracker="dapper-h")) == 2
        assert len(store.query(tracker="dapper-h", limit=1)) == 1
        assert store.query(tracker="graphene", nrh=999) == []

    def test_query_offset_pages_in_stable_key_order(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        for index in range(5):
            store.put(_record(key=f"k{index}"))
        keys = [record.key for record in store.query()]
        assert keys == sorted(keys)
        assert [r.key for r in store.query(offset=2)] == keys[2:]
        assert [r.key for r in store.query(offset=1, limit=2)] == keys[1:3]
        assert store.query(offset=99) == []
        # A negative offset clamps to the start rather than erroring.
        assert [r.key for r in store.query(offset=-3, limit=2)] == keys[:2]
        # Walking fixed-size pages covers every row exactly once.
        paged = []
        for offset in range(0, len(keys) + 1, 2):
            paged.extend(store.query(limit=2, offset=offset))
        assert [r.key for r in paged] == keys

    def test_query_offset_composes_with_filters(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        for index, tracker in enumerate(("dapper-h", "dapper-h", "graphene")):
            store.put(_record(key=f"k{index}", tracker=tracker))
        matches = store.query(tracker="dapper-h")
        assert store.query(tracker="dapper-h", offset=1) == matches[1:]
        rows = query_rows(store, tracker="dapper-h", offset=1, limit=1)
        assert [row["key"] for row in rows] == [matches[1].key]

    def test_query_rows_flatten(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put(_record())
        rows = query_rows(store, tracker="dapper-h")
        assert rows[0]["tracker"] == "dapper-h"
        assert rows[0]["elapsed_seconds"] == 0.25
        assert rows[0]["code_version"] == CODE_VERSION

    def test_gc_purges_only_other_code_versions(self, tmp_path):
        from repro.store import gc_store

        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put(_record(key="current"))
        store.put(_record(key="stale", code_version="older-version"))
        assert gc_store(store, dry_run=True) == 1
        assert len(store.keys()) == 2
        assert gc_store(store) == 1
        assert store.keys() == {"current"}


class TestMetricsPlane:
    """Schema-v3 metrics time-series: round trip, filters, cleanup."""

    ROWS = [
        ("llc.hit_rate", 100.0, 0.5),
        ("llc.hit_rate", 200.0, 0.625),
        ("mc.requests", 100.0, 10.0),
        ("mc.requests", 200.0, 24.0),
    ]

    def test_round_trip(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put_metrics("k1", self.ROWS)
        series = store.get_metrics("k1")
        assert series == {
            "llc.hit_rate": [(100.0, 0.5), (200.0, 0.625)],
            "mc.requests": [(100.0, 10.0), (200.0, 24.0)],
        }
        assert store.metrics_keys() == {"k1"}
        assert store.get_metrics("k1", metric="mc.requests") == {
            "mc.requests": [(100.0, 10.0), (200.0, 24.0)],
        }
        assert store.get_metrics("missing") == {}

    def test_put_replaces_previous_series(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put_metrics("k1", self.ROWS)
        store.put_metrics("k1", [("dram.activations", 5.0, 1.0)])
        assert store.get_metrics("k1") == {
            "dram.activations": [(5.0, 1.0)],
        }

    def test_delete_cleans_metrics_up(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put(_record())
        store.put_metrics("k1", self.ROWS)
        assert store.delete(["k1"]) == 1
        assert store.get_metrics("k1") == {}
        assert store.metrics_keys() == set()

    def test_metrics_never_raise_on_bad_rows(self, tmp_path):
        # Like put(), metric persistence degrades to a no-op on failure.
        store = SqliteStore(tmp_path / "wh.sqlite")
        store.put_metrics("k1", [("metric", "not-a-number", None)])
        assert store.get_metrics("k1") == {}


class TestSchemaV3Migration:
    def _v2_database(self, tmp_path):
        from repro.store.backend import create_schema_v2

        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        create_schema_v2(connection)
        connection.execute(
            "INSERT INTO runs (key, code_version, scenario, result, "
            "tracker, workload, attack, nrh, seed, elapsed_seconds, "
            "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "v2-key",
                CODE_VERSION,
                json.dumps({"tracker": "graphene", "workload": "429.mcf",
                            "attack": "refresh", "seed": 3, "nrh": 1000}),
                json.dumps({"payload": "v2"}),
                "graphene", "429.mcf", "refresh", 1000, 3, 1.5,
                "2026-01-01T00:00:00+00:00",
            ),
        )
        connection.commit()
        connection.close()
        return path

    def test_v2_database_migrates_and_keeps_data(self, tmp_path):
        store = SqliteStore(self._v2_database(tmp_path))
        assert store._schema_version() == SCHEMA_VERSION
        record = store.get("v2-key")
        assert record.result == {"payload": "v2"}
        assert record.elapsed_seconds == 1.5
        assert record.peak_memory_bytes is None  # v2 had no memory column

    def test_migrated_database_accepts_metrics_and_memory(self, tmp_path):
        store = SqliteStore(self._v2_database(tmp_path))
        store.put_metrics("v2-key", [("llc.hit_rate", 10.0, 0.5)])
        assert store.metrics_keys() == {"v2-key"}
        store.put(_record(key="new-key"))
        assert store.get("new-key").peak_memory_bytes is None

    def test_v1_chain_reaches_v3(self, tmp_path):
        # A v1 database runs both migrations back to back.
        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        create_schema_v1(connection)
        connection.commit()
        connection.close()
        store = SqliteStore(path)
        assert store._schema_version() == SCHEMA_VERSION
        store.put_metrics("k", [("m", 1.0, 2.0)])
        assert store.get_metrics("k") == {"m": [(1.0, 2.0)]}


class TestPeakMemoryTracking:
    def test_opt_in_records_peak_memory(self, spec, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        SweepRunner(store=store, track_memory=True).run_one(spec)
        records = list(store.records())
        assert records
        assert all(
            record.peak_memory_bytes and record.peak_memory_bytes > 0
            for record in records
        )
        row = query_rows(store)[0]
        assert row["peak_memory_bytes"] > 0

    def test_default_leaves_peak_memory_unset(self, spec, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        SweepRunner(store=store).run_one(spec)
        assert all(
            record.peak_memory_bytes is None for record in store.records()
        )

    def test_results_identical_with_tracking(self, spec, tmp_path):
        plain = SweepRunner().run_one(spec)
        tracked = SweepRunner(
            store=SqliteStore(tmp_path / "wh.sqlite"), track_memory=True
        ).run_one(spec)
        assert json.dumps(tracked.result.to_dict(), sort_keys=True) == \
            json.dumps(plain.result.to_dict(), sort_keys=True)


class TestWorkerAccounting:
    def test_pooled_run_reports_utilization(self, sweep_config):
        specs = [
            ScenarioSpec(
                tracker=tracker,
                workload="453.povray",
                attack="refresh",
                requests_per_core=REQUESTS,
                config=sweep_config,
            )
            for tracker in ("graphene", "dapper-h")
        ]
        runner = SweepRunner(jobs=2)
        runner.run(specs)
        report = runner.worker_report()
        assert report is not None
        assert report["workers"] == 2
        assert report["total_busy_seconds"] > 0
        assert 0.0 < report["utilization"] <= 1.0
        assert report["busy_seconds_by_pid"]

    def test_serial_run_has_no_worker_report(self, spec):
        runner = SweepRunner()
        runner.run_one(spec)
        assert runner.worker_report() is None


class TestSchemaV4Migration:
    """v3 warehouses (runs + metrics, no leases) migrate in place to v4."""

    def _v3_database(self, tmp_path):
        from repro.store.backend import create_schema_v3

        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        create_schema_v3(connection)
        connection.execute(
            "INSERT INTO runs (key, code_version, scenario, result, "
            "tracker, workload, attack, nrh, seed, elapsed_seconds, "
            "peak_memory_bytes, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "v3-key",
                CODE_VERSION,
                json.dumps({"tracker": "graphene", "workload": "429.mcf",
                            "attack": "refresh", "seed": 3, "nrh": 1000}),
                json.dumps({"payload": "v3"}),
                "graphene", "429.mcf", "refresh", 1000, 3, 1.5, 4096,
                "2026-01-01T00:00:00+00:00",
            ),
        )
        connection.executemany(
            "INSERT INTO metrics (key, metric, t_ns, value) "
            "VALUES (?, ?, ?, ?)",
            [("v3-key", "llc.hit_rate", 10, 0.5),
             ("v3-key", "llc.hit_rate", 20, 0.625)],
        )
        connection.commit()
        connection.close()
        return path

    def test_v3_database_migrates_and_keeps_data(self, tmp_path):
        store = SqliteStore(self._v3_database(tmp_path))
        assert store._schema_version() == SCHEMA_VERSION
        record = store.get("v3-key")
        assert record.result == {"payload": "v3"}
        assert record.peak_memory_bytes == 4096
        # Metrics rows survive the migration untouched.
        assert store.get_metrics("v3-key") == {
            "llc.hit_rate": [(10.0, 0.5), (20.0, 0.625)]
        }

    def test_migrated_database_accepts_leases(self, tmp_path):
        store = SqliteStore(self._v3_database(tmp_path))
        assert store.init_leases("mig", [["a", "b"], ["c"]]) == 2
        lease = store.claim_lease("mig", "w0", now=0.0, duration=10.0)
        assert lease.shard == 0 and lease.keys == ("a", "b")
        assert store.complete_lease("mig", 0, "w0", lease.keys)
        summary = store.lease_summary("mig")
        assert summary["done"] == 1 and summary["pending"] == 1

    def test_v1_chain_reaches_v4(self, tmp_path):
        # A v1 database runs all three migrations back to back.
        path = tmp_path / "wh.sqlite"
        connection = sqlite3.connect(path)
        create_schema_v1(connection)
        connection.commit()
        connection.close()
        store = SqliteStore(path)
        assert store._schema_version() == SCHEMA_VERSION
        assert store.init_leases("chain", [["k"]]) == 1

    def test_fresh_database_is_v4(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        assert store._schema_version() == 4 == SCHEMA_VERSION


class TestLeaseClaimRace:
    """The BEGIN IMMEDIATE claim transaction: racing claimants under WAL
    yield exactly one winner per shard, never a split lease."""

    def _race(self, path, workers: int, barrier_timeout=10.0):
        barrier = threading.Barrier(workers, timeout=barrier_timeout)
        results: dict[str, object] = {}

        def _claim(worker: str) -> None:
            store = SqliteStore(path)       # one connection per worker
            barrier.wait()
            results[worker] = store.claim_lease(
                "race", worker, now=100.0, duration=30.0
            )
            store.close()

        threads = [
            threading.Thread(target=_claim, args=(f"w{index}",))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def test_two_claimants_one_shard_exactly_one_winner(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        store = SqliteStore(path)
        store.init_leases("race", [["only"]])
        store.close()
        results = self._race(path, workers=2)
        winners = [lease for lease in results.values() if lease is not None]
        assert len(winners) == 1
        assert winners[0].shard == 0 and winners[0].attempts == 1

    def test_many_claimants_cover_shards_disjointly(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        store = SqliteStore(path)
        store.init_leases("race", [[f"s{index}"] for index in range(3)])
        store.close()
        results = self._race(path, workers=4)
        claimed = [lease.shard for lease in results.values() if lease is not None]
        # Three shards, four claimants: every shard claimed exactly once,
        # one claimant walks away empty-handed.
        assert sorted(claimed) == [0, 1, 2]
        store = SqliteStore(path)
        rows = store.lease_rows("race")
        assert all(row.state == "leased" and row.attempts == 1 for row in rows)

    def test_racing_init_leases_is_first_writer_wins(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        SqliteStore(path).close()
        barrier = threading.Barrier(2, timeout=10.0)
        counts: list[int] = []

        def _init(plan) -> None:
            store = SqliteStore(path)
            barrier.wait()
            counts.append(store.init_leases("race", plan))
            store.close()

        threads = [
            threading.Thread(target=_init, args=([["a"], ["b"]],)),
            threading.Thread(target=_init, args=([["a", "b"]],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store = SqliteStore(path)
        rows = store.lease_rows("race")
        # Both callers report the same winning plan, whichever one it was.
        assert counts[0] == counts[1] == len(rows)
        assert len(rows) in (1, 2)
