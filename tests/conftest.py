"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

import repro
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


def _numpy_modules() -> list:
    """Every ``repro`` module that binds numpy as ``_np``.

    Modules import numpy optionally as ``_np`` and fall back to pure Python
    when it is ``None``; walking the package finds each one, including
    modules that gain such a fallback later.
    """
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        if "_np" in vars(module):
            modules.append(module)
    return modules


@pytest.fixture
def no_numpy(monkeypatch):
    """Run the test as if numpy were not installed: ``_np`` is ``None`` in
    every ``repro`` module that has the optional import."""
    modules = _numpy_modules()
    assert modules, "no repro module binds _np"
    for module in modules:
        monkeypatch.setattr(module, "_np", None)
    return modules


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
