"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or table of the paper.  The simulation
behind a figure is executed exactly once (``rounds=1``) through
pytest-benchmark so the harness records its runtime, and the resulting
rows/series are printed in the paper's table-like form so the run's output can
be compared against the published figure (see EXPERIMENTS.md).

Every simulated figure and table runs through the session's one in-memory
``SweepRunner`` (the ``sweep`` fixture), so a simulation that an earlier
figure already ran is replayed, not repeated.  The runner fans each figure's
simulations out over up to four worker processes.  Results are deterministic
and both memo replay and pooled execution are parity-pinned, so each figure
still sees exactly the numbers a fresh serial run gives.

Each regenerated figure's rows are compared against ``figure_rows.json``
(written by ``capture_rows.py``): strings, ints, bools and ``None`` exactly,
floats at a relative tolerance of 1e-12, which absorbs summation-order
rounding between Python versions (3.12's ``sum()`` is compensated).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.eval.report import FigureData, print_figure
from repro.sim.sweep import SweepRunner

ROWS_PATH = Path(__file__).resolve().parent / "figure_rows.json"


@pytest.fixture(scope="session")
def sweep() -> SweepRunner:
    """The session's one in-memory runner, shared by every figure and table,
    with one worker process per CPU, up to four."""
    return SweepRunner(jobs=min(4, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def pinned_rows() -> dict[str, list[dict]]:
    return json.loads(ROWS_PATH.read_text(encoding="utf-8"))


def _same_value(expected, actual) -> bool:
    if isinstance(expected, float):
        return (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and actual == pytest.approx(expected, rel=1e-12)
        )
    return type(actual) is type(expected) and actual == expected


def _same_row(expected: dict, actual: dict) -> bool:
    return expected.keys() == actual.keys() and all(
        _same_value(expected[key], actual[key]) for key in expected
    )


def check_rows(figure: FigureData, pinned: dict[str, list[dict]]) -> None:
    """Fail, naming the figure and its differing rows, unless ``figure``'s
    rows equal the pinned ones."""
    expected = pinned.get(figure.name)
    if expected is None:
        pytest.fail(
            f"{figure.name} has no pinned rows in {ROWS_PATH.name}; regenerate "
            "it with `PYTHONPATH=src python benchmarks/capture_rows.py`",
            pytrace=False,
        )
    actual = figure.rows
    differing = [
        f"  row {index}:\n    pinned: {want}\n    got:    {got}"
        for index, (want, got) in enumerate(zip(expected, actual))
        if not _same_row(want, got)
    ]
    if len(expected) != len(actual):
        differing.append(f"  {len(expected)} rows pinned, {len(actual)} regenerated")
    if differing:
        pytest.fail(
            f"{figure.name} rows differ from {ROWS_PATH.name}:\n"
            + "\n".join(differing),
            pytrace=False,
        )


@pytest.fixture
def regenerate(benchmark, pinned_rows):
    """Run a figure-generating callable once, print it, check its rows
    against the pinned ones, and return its data."""

    def _run(figure_fn, *args, **kwargs) -> FigureData:
        result = benchmark.pedantic(
            lambda: figure_fn(*args, **kwargs), rounds=1, iterations=1
        )
        print_figure(result)
        check_rows(result, pinned_rows)
        return result

    return _run
