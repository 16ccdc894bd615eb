"""The experiment warehouse: where completed simulation runs live.

The sweep engine (:mod:`repro.sim.sweep`) memoizes every completed
:class:`~repro.sim.simulator.SimulationResult` under a stable content hash of
the scenario.  :class:`SqliteStore` persists those records in one SQLite
database (stdlib ``sqlite3``, WAL journal, busy-timeout retries): one row per
run with the scenario's identifying fields (tracker / workload / attack /
NRH / seed) broken out into indexed columns, plus the code version, per-run
wall-clock timing, a metrics time-series table, campaign manifests and
campaign leases.  This is what makes thousands of runs queryable,
aggregatable, diffable and resumable (:mod:`repro.store.campaign`,
:mod:`repro.store.query`, :mod:`repro.store.worker`).

The schema is versioned (``PRAGMA user_version``) and migrated in place;
opening a database written by a newer schema than this code understands is an
error rather than silent corruption.  :func:`open_store` resolves the
``--store`` / ``--cache-dir`` targets of the CLI: any path is a warehouse
file.  Caches written by older code as one ``<key>.json`` file per run are
upgraded once with ``store import`` (:func:`repro.store.query.import_store`).

Run-record and metrics writes degrade to a no-op on storage failure (full
disk, locked database) instead of raising, because losing a cache write must
never lose the in-memory simulation result it mirrors.  Campaign-manifest
writes, by contrast, *do* raise: a campaign that cannot checkpoint is not
resumable and must say so.  The same is true of the campaign-*lease*
operations (schema v4, used by :mod:`repro.store.worker` to let many
processes or hosts drain one campaign): a claim or heartbeat that failed
silently would let two workers believe they own the same shard.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import sqlite3
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Current on-disk schema of :class:`SqliteStore` (``PRAGMA user_version``).
SCHEMA_VERSION = 4

#: Scenario-description keys broken out into indexed warehouse columns.
SCENARIO_COLUMNS = ("tracker", "workload", "attack", "nrh", "seed")


def utc_now() -> str:
    """Current UTC time in ISO-8601 form (the warehouse timestamp format)."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


@dataclass(frozen=True)
class RunRecord:
    """One completed simulation run, as the warehouse stores it.

    ``scenario`` is the spec's :meth:`~repro.sim.sweep.ScenarioSpec.describe`
    dictionary and ``result`` the serialized
    :class:`~repro.sim.simulator.SimulationResult`; both are plain
    JSON-compatible values.  ``elapsed_seconds`` is the wall-clock cost of the
    simulation that produced the result (``None`` for records imported from
    caches that predate timing capture); ``peak_memory_bytes`` the worker's
    ``tracemalloc`` peak, captured only when memory tracking was requested
    (it roughly halves simulation speed).
    """

    key: str
    code_version: str
    scenario: dict
    result: dict
    elapsed_seconds: float | None = None
    peak_memory_bytes: int | None = None
    created_at: str | None = None


@dataclass(frozen=True)
class LeaseRow:
    """One shard's lease state inside a distributed campaign drain.

    A *shard* is a fixed slice of a campaign's unique simulation keys; the
    lease row is the single source of truth about who is draining it.  A
    shard is ``pending`` until a worker claims it, ``leased`` while a worker
    holds it (the lease expires at ``deadline``, expressed on the claiming
    worker's clock), ``done`` once its results are committed, and
    ``quarantined`` when it has burned through its attempt budget -- the
    poison-shard exit that keeps one crashing scenario from wedging the
    whole campaign.  ``reclaimed`` is per-claim bookkeeping (this claim took
    over an expired lease from a dead worker), not a stored column.
    """

    campaign: str
    shard: int
    keys: tuple[str, ...]
    state: str
    worker: str | None
    deadline: float | None
    heartbeats: int
    attempts: int
    reclaims: int
    last_error: str | None
    acquired_at: str | None
    completed_at: str | None
    reclaimed: bool = False


#: Lease states a shard moves through (see :class:`LeaseRow`).
LEASE_STATES = ("pending", "leased", "done", "quarantined")

#: Lease states in which no further work will happen on a shard.
TERMINAL_LEASE_STATES = ("done", "quarantined")


# --------------------------------------------------------------------------- #
# The warehouse
# --------------------------------------------------------------------------- #

#: The original (v1) warehouse schema, kept so migration from databases
#: written by it stays covered by tests.  v1 stored only the opaque payload;
#: v2 broke the identifying scenario fields out into indexed columns, added
#: per-run timing, and introduced the campaign-manifest table.
V1_SCHEMA = """
CREATE TABLE runs (
    key TEXT PRIMARY KEY,
    code_version TEXT NOT NULL,
    scenario TEXT NOT NULL,
    result TEXT NOT NULL,
    created_at TEXT NOT NULL
);
"""

#: v2 DDL as individual statements: they must run through ``execute`` (never
#: ``executescript``, whose implicit COMMIT would break the single-transaction
#: schema setup in :meth:`SqliteStore._ensure_schema`).
_V2_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        key TEXT PRIMARY KEY,
        code_version TEXT NOT NULL,
        scenario TEXT NOT NULL,
        result TEXT NOT NULL,
        tracker TEXT,
        workload TEXT,
        attack TEXT,
        nrh INTEGER,
        seed INTEGER,
        elapsed_seconds REAL,
        created_at TEXT NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS runs_by_code_version ON runs (code_version)",
    "CREATE INDEX IF NOT EXISTS runs_by_scenario ON runs "
    "(tracker, workload, attack)",
    """
    CREATE TABLE IF NOT EXISTS campaigns (
        name TEXT PRIMARY KEY,
        created_at TEXT NOT NULL,
        manifest TEXT NOT NULL
    )
    """,
)


#: Metrics time-series DDL (new in v3).  The composite primary key also
#: serves as the per-run lookup index, so no extra index is needed.
_METRICS_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS metrics (
        key TEXT NOT NULL,
        metric TEXT NOT NULL,
        t_ns REAL NOT NULL,
        value REAL NOT NULL,
        PRIMARY KEY (key, metric, t_ns)
    )
    """,
)

#: Campaign-lease DDL (new in v4).  One row per campaign shard; ``keys`` is
#: the JSON list of simulation keys the shard covers, persisted so every
#: worker -- whatever sharding flags it was launched with -- drains the
#: exact plan the first worker wrote.
_LEASES_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS leases (
        campaign TEXT NOT NULL,
        shard INTEGER NOT NULL,
        keys TEXT NOT NULL,
        state TEXT NOT NULL DEFAULT 'pending',
        worker TEXT,
        deadline REAL,
        heartbeats INTEGER NOT NULL DEFAULT 0,
        attempts INTEGER NOT NULL DEFAULT 0,
        reclaims INTEGER NOT NULL DEFAULT 0,
        last_error TEXT,
        acquired_at TEXT,
        completed_at TEXT,
        PRIMARY KEY (campaign, shard)
    )
    """,
    "CREATE INDEX IF NOT EXISTS leases_by_state ON leases (campaign, state)",
)

#: v3 DDL: v2 plus per-run peak memory and the metrics time-series table.
_V3_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        key TEXT PRIMARY KEY,
        code_version TEXT NOT NULL,
        scenario TEXT NOT NULL,
        result TEXT NOT NULL,
        tracker TEXT,
        workload TEXT,
        attack TEXT,
        nrh INTEGER,
        seed INTEGER,
        elapsed_seconds REAL,
        peak_memory_bytes INTEGER,
        created_at TEXT NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS runs_by_code_version ON runs (code_version)",
    "CREATE INDEX IF NOT EXISTS runs_by_scenario ON runs "
    "(tracker, workload, attack)",
    """
    CREATE TABLE IF NOT EXISTS campaigns (
        name TEXT PRIMARY KEY,
        created_at TEXT NOT NULL,
        manifest TEXT NOT NULL
    )
    """,
) + _METRICS_STATEMENTS

#: v4 DDL: v3 plus the campaign-lease table for distributed workers.
_V4_STATEMENTS = _V3_STATEMENTS + _LEASES_STATEMENTS


def create_schema_v1(connection: sqlite3.Connection) -> None:
    """Create the historical v1 schema (used by the migration tests)."""
    connection.executescript(V1_SCHEMA)
    connection.execute("PRAGMA user_version = 1")
    connection.commit()


def create_schema_v2(connection: sqlite3.Connection) -> None:
    """Create the historical v2 schema (used by the migration tests)."""
    for statement in _V2_STATEMENTS:
        connection.execute(statement)
    connection.execute("PRAGMA user_version = 2")
    connection.commit()


def create_schema_v3(connection: sqlite3.Connection) -> None:
    """Create the historical v3 schema (used by the migration tests)."""
    for statement in _V3_STATEMENTS:
        connection.execute(statement)
    connection.execute("PRAGMA user_version = 3")
    connection.commit()


def _migrate_v1_to_v2(connection: sqlite3.Connection) -> None:
    """v1 -> v2: scenario columns, per-run timing, campaign manifests."""
    for column, kind in (
        ("tracker", "TEXT"),
        ("workload", "TEXT"),
        ("attack", "TEXT"),
        ("nrh", "INTEGER"),
        ("seed", "INTEGER"),
        ("elapsed_seconds", "REAL"),
    ):
        connection.execute(f"ALTER TABLE runs ADD COLUMN {column} {kind}")
    # Backfill the new columns from the scenario payload of existing rows.
    rows = connection.execute("SELECT key, scenario FROM runs").fetchall()
    for key, scenario_json in rows:
        try:
            scenario = json.loads(scenario_json)
        except ValueError:
            continue
        if not isinstance(scenario, dict):
            continue
        connection.execute(
            "UPDATE runs SET tracker = ?, workload = ?, attack = ?, "
            "nrh = ?, seed = ? WHERE key = ?",
            tuple(scenario.get(column) for column in SCENARIO_COLUMNS) + (key,),
        )
    for statement in _V2_STATEMENTS:
        connection.execute(statement)


def _migrate_v2_to_v3(connection: sqlite3.Connection) -> None:
    """v2 -> v3: per-run peak memory and the metrics time-series table."""
    connection.execute(
        "ALTER TABLE runs ADD COLUMN peak_memory_bytes INTEGER"
    )
    for statement in _METRICS_STATEMENTS:
        connection.execute(statement)


def _migrate_v3_to_v4(connection: sqlite3.Connection) -> None:
    """v3 -> v4: the campaign-lease table for distributed workers."""
    for statement in _LEASES_STATEMENTS:
        connection.execute(statement)


#: Migration steps, keyed by the schema version they upgrade *from*.
MIGRATIONS = {1: _migrate_v1_to_v2, 2: _migrate_v2_to_v3, 3: _migrate_v3_to_v4}


class SqliteStore:
    """The experiment warehouse: one SQLite database of completed runs.

    The database is opened in WAL mode with a generous busy timeout so that
    several pool-feeding processes can append concurrently; every ``put`` is
    one ``INSERT OR REPLACE`` transaction.  The schema version lives in
    ``PRAGMA user_version`` and is migrated forward on open.  Concurrent
    writers in separate processes, each holding its own instance, are safe;
    a single instance is not thread-safe.

    Opening raises :class:`sqlite3.DatabaseError` when ``path`` is not a
    database (or cannot be opened) and :class:`ValueError` when its schema is
    newer than :data:`SCHEMA_VERSION`.
    """

    def __init__(self, path: str | os.PathLike, timeout: float = 30.0):
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # A store instance is not thread-safe (see the class contract), but
        # it may legitimately be created on one thread and used on another
        # (worker pools); disable sqlite3's same-thread assertion.
        self._connection = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        try:
            self._connection.execute(
                "PRAGMA busy_timeout = %d" % int(timeout * 1000)
            )
            try:
                self._connection.execute("PRAGMA journal_mode = WAL")
                self._connection.execute("PRAGMA synchronous = NORMAL")
            except sqlite3.Error:  # pragma: no cover - filesystem-dependent
                pass  # e.g. WAL unavailable on network filesystems
            self._ensure_schema()
        except BaseException:
            self._connection.close()
            raise

    # -- schema --------------------------------------------------------- #

    def _schema_version(self) -> int:
        return self._connection.execute("PRAGMA user_version").fetchone()[0]

    def _ensure_schema(self) -> None:
        # BEGIN IMMEDIATE serialises concurrent creators: only one process
        # runs the DDL; the others wait on the write lock and then see the
        # finished schema.  Everything through the user_version bump happens
        # in this one transaction (plain execute only -- executescript would
        # COMMIT implicitly), so a crash mid-migration rolls back cleanly and
        # the next open retries from the original version.
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            version = self._schema_version()
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"warehouse {self.path} has schema version {version}, "
                    f"newer than this code understands ({SCHEMA_VERSION}); "
                    "refusing to touch it"
                )
            if version == 0:
                for statement in _V4_STATEMENTS:
                    self._connection.execute(statement)
            else:
                while version < SCHEMA_VERSION:
                    MIGRATIONS[version](self._connection)
                    version += 1
            self._connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise

    # -- run records ---------------------------------------------------- #

    def _record_from_row(self, row) -> RunRecord | None:
        key, code_version, scenario_json, result_json, elapsed, peak, created = row
        try:
            scenario = json.loads(scenario_json)
            result = json.loads(result_json)
        except ValueError:
            return None
        return RunRecord(
            key=key,
            code_version=code_version,
            scenario=scenario if isinstance(scenario, dict) else {},
            result=result,
            elapsed_seconds=elapsed,
            peak_memory_bytes=peak,
            created_at=created,
        )

    _SELECT = (
        "SELECT key, code_version, scenario, result, elapsed_seconds, "
        "peak_memory_bytes, created_at FROM runs"
    )

    def get(self, key: str) -> RunRecord | None:
        """The record stored under ``key``, or ``None`` (missing/unreadable)."""
        try:
            row = self._connection.execute(
                f"{self._SELECT} WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            return None
        return self._record_from_row(row) if row is not None else None

    def put(self, record: RunRecord) -> None:
        """Store (or replace) one record; never raises on storage failure."""
        try:
            self._connection.execute(
                "INSERT OR REPLACE INTO runs (key, code_version, scenario, "
                "result, tracker, workload, attack, nrh, seed, "
                "elapsed_seconds, peak_memory_bytes, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.key,
                    record.code_version,
                    json.dumps(record.scenario, default=str),
                    json.dumps(record.result),
                    record.scenario.get("tracker"),
                    record.scenario.get("workload"),
                    record.scenario.get("attack"),
                    record.scenario.get("nrh"),
                    record.scenario.get("seed"),
                    record.elapsed_seconds,
                    record.peak_memory_bytes,
                    record.created_at or utc_now(),
                ),
            )
            self._connection.commit()
        except (sqlite3.Error, TypeError, ValueError):
            # A failed store write degrades to a miss; it never loses the
            # in-memory result.
            try:
                self._connection.rollback()
            except sqlite3.Error:  # pragma: no cover - double failure
                pass

    def keys(self) -> set[str]:
        """Keys of every stored record."""
        try:
            rows = self._connection.execute("SELECT key FROM runs").fetchall()
        except sqlite3.Error:
            return set()
        return {row[0] for row in rows}

    def __len__(self) -> int:
        return len(self.keys())

    def records(self) -> Iterator[RunRecord]:
        """Every readable stored record, in key order."""
        rows = self._connection.execute(f"{self._SELECT} ORDER BY key").fetchall()
        for row in rows:
            record = self._record_from_row(row)
            if record is not None:
                yield record

    def delete(self, keys: Iterable[str]) -> int:
        """Delete the given keys and their metrics; returns how many existed."""
        keys = list(keys)
        if not keys:
            return 0
        deleted = 0
        for key in keys:
            cursor = self._connection.execute(
                "DELETE FROM runs WHERE key = ?", (key,)
            )
            deleted += cursor.rowcount
            self._connection.execute(
                "DELETE FROM metrics WHERE key = ?", (key,)
            )
        self._connection.commit()
        return deleted

    # -- metrics time-series -------------------------------------------- #

    def put_metrics(
        self, key: str, series: Iterable[tuple[str, float, float]]
    ) -> None:
        """Store ``(metric, t_ns, value)`` samples for a run (replace mode)."""
        try:
            self._connection.execute(
                "DELETE FROM metrics WHERE key = ?", (key,)
            )
            self._connection.executemany(
                "INSERT INTO metrics (key, metric, t_ns, value) "
                "VALUES (?, ?, ?, ?)",
                [
                    (key, str(metric), float(t_ns), float(value))
                    for metric, t_ns, value in series
                ],
            )
            self._connection.commit()
        except (sqlite3.Error, TypeError, ValueError):
            # Same degrade-to-miss contract as put().
            try:
                self._connection.rollback()
            except sqlite3.Error:  # pragma: no cover - double failure
                pass

    def get_metrics(
        self, key: str, metric: str | None = None
    ) -> dict[str, list[tuple[float, float]]]:
        """Stored time-series for a run: ``{metric: [(t_ns, value), ...]}``."""
        sql = "SELECT metric, t_ns, value FROM metrics WHERE key = ?"
        values: list = [key]
        if metric is not None:
            sql += " AND metric = ?"
            values.append(metric)
        sql += " ORDER BY metric, t_ns"
        try:
            rows = self._connection.execute(sql, values).fetchall()
        except sqlite3.Error:
            return {}
        series: dict[str, list[tuple[float, float]]] = {}
        for name, t_ns, value in rows:
            series.setdefault(name, []).append((t_ns, value))
        return series

    def metrics_keys(self) -> set[str]:
        """Run keys that have metrics stored."""
        try:
            rows = self._connection.execute(
                "SELECT DISTINCT key FROM metrics"
            ).fetchall()
        except sqlite3.Error:
            return set()
        return {row[0] for row in rows}

    def query(
        self,
        tracker: str | None = None,
        workload: str | None = None,
        attack: str | None = None,
        nrh: int | None = None,
        code_version: str | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[RunRecord]:
        """Records matching every given scenario filter (``None`` = any).

        Results are ordered by key, so ``limit``/``offset`` paginate a large
        result set deterministically: page N+1 starts exactly where page N
        stopped, whatever process asks.
        """
        clauses, values = [], []
        for column, wanted in (
            ("tracker", tracker),
            ("workload", workload),
            ("attack", attack),
            ("nrh", nrh),
            ("code_version", code_version),
        ):
            if wanted is not None:
                clauses.append(f"{column} = ?")
                values.append(wanted)
        sql = self._SELECT
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY key"
        offset = max(0, int(offset))
        if limit is not None:
            sql += " LIMIT ? OFFSET ?"
            values.extend((int(limit), offset))
        elif offset:
            # sqlite requires a LIMIT clause before OFFSET; -1 means "all".
            sql += " LIMIT -1 OFFSET ?"
            values.append(offset)
        rows = self._connection.execute(sql, values).fetchall()
        records = (self._record_from_row(row) for row in rows)
        return [record for record in records if record is not None]

    def purge_other_code_versions(self, keep: str) -> int:
        """Delete every record whose code version is not ``keep``."""
        cursor = self._connection.execute(
            "DELETE FROM runs WHERE code_version != ?", (keep,)
        )
        self._connection.commit()
        return cursor.rowcount

    def count_other_code_versions(self, keep: str) -> int:
        """How many records :meth:`purge_other_code_versions` would delete."""
        row = self._connection.execute(
            "SELECT COUNT(*) FROM runs WHERE code_version != ?", (keep,)
        ).fetchone()
        return row[0]

    # -- campaign manifests --------------------------------------------- #

    def save_campaign(self, name: str, manifest: dict) -> None:
        """Create or replace a campaign manifest (raises on storage failure).

        Any lease rows of ``name`` go in the same transaction: a shard plan
        belongs to the manifest it was drawn from, and workers of the new
        manifest write their own.
        """
        self._swap_campaign(name, manifest, None, check=False)

    def swap_campaign(
        self, name: str, manifest: dict, expected: dict | None
    ) -> bool:
        """Compare-and-swap a campaign manifest; returns whether it wrote.

        Like :meth:`save_campaign`, but only while the stored manifest
        still equals ``expected`` (``None``: no readable manifest), checked
        and written under one write lock.  Of several processes that read
        the same manifest and each decided to replace it, one wins; the
        others' lease-dropping writes do not happen, so they cannot wipe
        the winner's shard plan.
        """
        return self._swap_campaign(name, manifest, expected, check=True)

    def _swap_campaign(
        self, name: str, manifest: dict, expected: dict | None, check: bool
    ) -> bool:
        row = (
            name,
            manifest.get("created_at") or utc_now(),
            json.dumps(manifest, default=str),
        )
        self._begin_immediate()
        try:
            if check and self.load_campaign(name) != expected:
                self._connection.commit()
                return False
            self._connection.execute(
                "INSERT OR REPLACE INTO campaigns (name, created_at, manifest) "
                "VALUES (?, ?, ?)",
                row,
            )
            self._connection.execute(
                "DELETE FROM leases WHERE campaign = ?", (name,)
            )
            self._connection.commit()
            return True
        except BaseException:
            self._connection.rollback()
            raise

    def load_campaign(self, name: str) -> dict | None:
        """The manifest saved under ``name``, or ``None``."""
        row = self._connection.execute(
            "SELECT manifest FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        try:
            manifest = json.loads(row[0])
        except ValueError:
            return None
        return manifest if isinstance(manifest, dict) else None

    def campaign_names(self) -> tuple[str, ...]:
        """Names of every saved campaign, sorted."""
        rows = self._connection.execute(
            "SELECT name FROM campaigns ORDER BY name"
        ).fetchall()
        return tuple(row[0] for row in rows)

    def delete_campaign(self, name: str) -> bool:
        """Delete one campaign manifest and its leases; returns whether it
        existed."""
        cursor = self._connection.execute(
            "DELETE FROM campaigns WHERE name = ?", (name,)
        )
        # Lease rows describe work for the deleted manifest; orphaning them
        # would make a later same-named campaign drain the wrong shard plan.
        self._connection.execute(
            "DELETE FROM leases WHERE campaign = ?", (name,)
        )
        self._connection.commit()
        return cursor.rowcount > 0

    # -- campaign leases ------------------------------------------------ #
    #
    # Unlike run-record writes, lease operations are *coordination*: a claim
    # or heartbeat that silently fails would let two workers drain the same
    # shard believing they own it, so these methods raise on storage failure
    # instead of degrading.  Wall-clock values (``now``/``deadline``) are
    # supplied by the caller, never read here, which keeps every transition
    # testable under a simulated clock.

    _LEASE_SELECT = (
        "SELECT campaign, shard, keys, state, worker, deadline, heartbeats, "
        "attempts, reclaims, last_error, acquired_at, completed_at FROM leases"
    )

    def _lease_from_row(self, row, reclaimed: bool = False) -> LeaseRow:
        (campaign, shard, keys_json, state, worker, deadline, heartbeats,
         attempts, reclaims, last_error, acquired_at, completed_at) = row
        try:
            keys = tuple(str(key) for key in json.loads(keys_json))
        except (ValueError, TypeError):
            keys = ()
        return LeaseRow(
            campaign=campaign,
            shard=shard,
            keys=keys,
            state=state,
            worker=worker,
            deadline=deadline,
            heartbeats=heartbeats,
            attempts=attempts,
            reclaims=reclaims,
            last_error=last_error,
            acquired_at=acquired_at,
            completed_at=completed_at,
            reclaimed=reclaimed,
        )

    def _begin_immediate(self) -> None:
        # Take the write lock up front so read-check-update sequences are
        # serialised across worker processes.  Any implicit transaction a
        # previous statement left open must be closed first -- sqlite3
        # refuses nested BEGINs.
        if self._connection.in_transaction:  # pragma: no cover - defensive
            self._connection.commit()
        self._connection.execute("BEGIN IMMEDIATE")

    def init_leases(self, campaign: str, shards: "Sequence[Sequence[str]]") -> int:
        """Create one pending lease row per shard; first caller wins.

        Idempotent under racing workers: whoever gets the write lock first
        persists the shard plan, everyone else adopts the existing rows (the
        stored ``keys`` are authoritative, not the caller's plan).  Returns
        the number of shard rows the campaign has after the call.
        """
        self._begin_immediate()
        try:
            existing = self._connection.execute(
                "SELECT COUNT(*) FROM leases WHERE campaign = ?", (campaign,)
            ).fetchone()[0]
            if existing:
                self._connection.commit()
                return existing
            self._connection.executemany(
                "INSERT INTO leases (campaign, shard, keys) VALUES (?, ?, ?)",
                [
                    (campaign, index, json.dumps(list(keys)))
                    for index, keys in enumerate(shards)
                ],
            )
            self._connection.commit()
            return len(list(shards))
        except BaseException:
            self._connection.rollback()
            raise

    def claim_lease(
        self,
        campaign: str,
        worker: str,
        now: float,
        duration: float,
        max_attempts: int = 3,
    ) -> LeaseRow | None:
        """Atomically claim the next drainable shard, or ``None``.

        A shard is drainable when it is ``pending`` or its lease expired
        (``deadline < now`` -- the holder died or stalled).  The claim,
        executed under ``BEGIN IMMEDIATE`` so racing workers serialise on
        the write lock, bumps the attempt counter and resets the heartbeat
        count; taking over an expired lease additionally bumps ``reclaims``
        and marks the returned row ``reclaimed``.  Before picking a shard,
        expired leases that already burned ``max_attempts`` attempts are
        quarantined so a poison shard cannot be claimed forever.
        """
        self._begin_immediate()
        try:
            self._connection.execute(
                "UPDATE leases SET state = 'quarantined', worker = NULL, "
                "deadline = NULL WHERE campaign = ? AND state = 'leased' "
                "AND deadline < ? AND attempts >= ?",
                (campaign, now, int(max_attempts)),
            )
            row = self._connection.execute(
                f"{self._LEASE_SELECT} WHERE campaign = ? AND "
                "(state = 'pending' OR (state = 'leased' AND deadline < ?)) "
                "ORDER BY shard LIMIT 1",
                (campaign, now),
            ).fetchone()
            if row is None:
                self._connection.commit()
                return None
            previous = self._lease_from_row(row)
            reclaimed = previous.state == "leased"
            deadline = now + float(duration)
            acquired_at = utc_now()
            self._connection.execute(
                "UPDATE leases SET state = 'leased', worker = ?, "
                "deadline = ?, heartbeats = 0, attempts = attempts + 1, "
                "reclaims = reclaims + ?, acquired_at = ? "
                "WHERE campaign = ? AND shard = ?",
                (worker, deadline, 1 if reclaimed else 0, acquired_at,
                 campaign, previous.shard),
            )
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise
        return dataclasses.replace(
            previous,
            state="leased",
            worker=worker,
            deadline=deadline,
            heartbeats=0,
            attempts=previous.attempts + 1,
            reclaims=previous.reclaims + (1 if reclaimed else 0),
            acquired_at=acquired_at,
            reclaimed=reclaimed,
        )

    def renew_lease(
        self, campaign: str, shard: int, worker: str, now: float, duration: float
    ) -> bool:
        """Heartbeat: extend a held lease; ``False`` means the lease is gone.

        Renewal only succeeds while the row still names ``worker`` as the
        leased holder -- after a reclaim the previous owner's heartbeat
        fails, which is how a worker that lost its lease mid-drain finds
        out it must abandon the shard.
        """
        cursor = self._connection.execute(
            "UPDATE leases SET deadline = ?, heartbeats = heartbeats + 1 "
            "WHERE campaign = ? AND shard = ? AND worker = ? "
            "AND state = 'leased'",
            (now + float(duration), campaign, shard, worker),
        )
        self._connection.commit()
        return cursor.rowcount > 0

    def complete_lease(
        self, campaign: str, shard: int, worker: str, keys: "Sequence[str]"
    ) -> bool:
        """Mark a shard done; idempotent (re-completing is a no-op).

        Completion is deliberately *not* conditioned on still holding the
        lease: by the time a worker completes a shard every result is
        already committed under its scenario hash, so the work is done even
        if the lease expired and was reclaimed mid-drain.  It is conditioned
        on ``keys``, the keys the worker drained: a shard of a plan that
        replaced the one the worker claimed from is left alone.  Returns
        whether this call performed the transition.
        """
        cursor = self._connection.execute(
            "UPDATE leases SET state = 'done', worker = ?, deadline = NULL, "
            "last_error = NULL, completed_at = ? "
            "WHERE campaign = ? AND shard = ? AND keys = ? "
            "AND state != 'done'",
            (worker, utc_now(), campaign, shard, json.dumps(list(keys))),
        )
        self._connection.commit()
        return cursor.rowcount > 0

    def release_lease(
        self,
        campaign: str,
        shard: int,
        worker: str,
        error: str | None = None,
        quarantine_after: int | None = None,
    ) -> str | None:
        """Give a held shard back: to the pool, or to quarantine.

        The graceful-failure path (shard raised, worker interrupted): the
        shard returns to ``pending`` for another attempt, or -- when it has
        already burned ``quarantine_after`` attempts -- is quarantined with
        ``error`` recorded.  Returns the resulting state, or ``None`` when
        ``worker`` no longer held the lease (it expired and was reclaimed,
        so the shard is not this worker's to release).
        """
        self._begin_immediate()
        try:
            row = self._connection.execute(
                "SELECT attempts FROM leases WHERE campaign = ? AND shard = ? "
                "AND worker = ? AND state = 'leased'",
                (campaign, shard, worker),
            ).fetchone()
            if row is None:
                self._connection.commit()
                return None
            poisoned = (
                quarantine_after is not None and row[0] >= int(quarantine_after)
            )
            state = "quarantined" if poisoned else "pending"
            self._connection.execute(
                "UPDATE leases SET state = ?, worker = NULL, deadline = NULL, "
                "last_error = ? WHERE campaign = ? AND shard = ?",
                (state, error, campaign, shard),
            )
            self._connection.commit()
            return state
        except BaseException:
            self._connection.rollback()
            raise

    def lease_rows(self, campaign: str) -> list[LeaseRow]:
        """Every lease row of a campaign, in shard order."""
        rows = self._connection.execute(
            f"{self._LEASE_SELECT} WHERE campaign = ? ORDER BY shard",
            (campaign,),
        ).fetchall()
        return [self._lease_from_row(row) for row in rows]

    def lease_summary(self, campaign: str) -> dict | None:
        """Aggregate lease accounting, or ``None`` before any worker joined.

        Returns shard counts by state, total attempts/reclaims, and the
        per-worker progress map ``{worker: {"completed": n, "active": m}}``
        (``completed`` counts shards whose *final* completion the worker
        performed; ``active`` its currently leased shards).
        """
        rows = self.lease_rows(campaign)
        if not rows:
            return None
        by_state = {state: 0 for state in LEASE_STATES}
        workers: dict[str, dict[str, int]] = {}
        for row in rows:
            by_state[row.state] = by_state.get(row.state, 0) + 1
            if row.worker is None:
                continue
            progress = workers.setdefault(
                row.worker, {"completed": 0, "active": 0}
            )
            if row.state == "done":
                progress["completed"] += 1
            elif row.state == "leased":
                progress["active"] += 1
        return {
            "shards": len(rows),
            "done": by_state["done"],
            "leased": by_state["leased"],
            "pending": by_state["pending"],
            "quarantined": by_state["quarantined"],
            "attempts": sum(row.attempts for row in rows),
            "reclaims": sum(row.reclaims for row in rows),
            "workers": {name: workers[name] for name in sorted(workers)},
        }

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Release the database connection (idempotent)."""
        try:
            self._connection.close()
        except sqlite3.Error:  # pragma: no cover - already closed
            pass


# --------------------------------------------------------------------------- #
# Store resolution
# --------------------------------------------------------------------------- #


def open_store(
    target: "str | os.PathLike | SqliteStore | None",
) -> SqliteStore | None:
    """Resolve a store target: ``None`` and ``""`` disable storage, a
    :class:`SqliteStore` is passed through, and any path opens the warehouse
    file there."""
    if target is None or target == "":
        return None
    if isinstance(target, SqliteStore):
        return target
    return SqliteStore(target)
