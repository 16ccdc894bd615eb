"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.config import baseline_config, reduced_row_config
from repro.dram.address import AddressMapper


@pytest.fixture
def config():
    """The paper's baseline configuration (Table I)."""
    return baseline_config()


@pytest.fixture
def small_config():
    """A reduced-row configuration used by simulation-heavy tests."""
    return reduced_row_config(nrh=500, rows_per_bank=2048)


@pytest.fixture
def mapper(config):
    return AddressMapper(config.dram)


@pytest.fixture
def small_mapper(small_config):
    return AddressMapper(small_config.dram)


@pytest.fixture
def write_legacy_cache():
    """Write a warehouse's runs out as a legacy JSON cache directory.

    Before the SQLite warehouse was the only store, results lived in one
    ``<key>.json`` file per run holding ``code_version``, ``scenario`` and
    ``result``; ``store import`` upgrades such a directory.
    """

    def write(directory, store) -> int:
        directory.mkdir(parents=True, exist_ok=True)
        written = 0
        for record in store.records():
            payload = {
                "code_version": record.code_version,
                "scenario": record.scenario,
                "result": record.result,
            }
            (directory / f"{record.key}.json").write_text(
                json.dumps(payload), encoding="utf-8"
            )
            written += 1
        return written

    return write
