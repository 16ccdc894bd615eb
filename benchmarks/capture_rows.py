"""Rewrite ``figure_rows.json``: the pinned rows of every figure and table.

Simulation is deterministic, so the rows each benchmark regenerates are golden
values for the current ``CODE_VERSION``.  The ``regenerate`` fixture in
``conftest.py`` compares every regenerated figure and table against this
file.  A change that is meant to move results (and bumps ``CODE_VERSION``)
regenerates the file with this one-off command, from the repository root:

    PYTHONPATH=src python benchmarks/capture_rows.py

It calls every benchmark test that takes the ``regenerate`` fixture, at the
test's own settings, with a stand-in fixture that records the rows.  One
``SweepRunner`` serves every test, as in a pytest session.  The tests'
assertions run too, so a capture fails where the benchmark would.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from pathlib import Path

from repro.sim.sweep import SweepRunner

HERE = Path(__file__).resolve().parent
ROWS_PATH = HERE / "figure_rows.json"


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump_rows(figures: dict[str, list[dict]]) -> str:
    """The file's text: figures by name, one row per line."""
    lines = ["{"]
    for index, name in enumerate(sorted(figures)):
        rows = figures[name]
        lines.append(f"  {json.dumps(name)}: [")
        lines.extend(
            f"    {json.dumps(row)}{',' if i < len(rows) - 1 else ''}"
            for i, row in enumerate(rows)
        )
        lines.append("  ]" + ("," if index < len(figures) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def capture() -> dict[str, list[dict]]:
    """Run every ``regenerate`` benchmark and return its rows by figure name."""
    sweep = SweepRunner()
    figures: dict[str, list[dict]] = {}

    def regenerate(figure_fn, *args, **kwargs):
        figure = figure_fn(*args, **kwargs)
        if figure.name in figures:
            raise ValueError(f"{figure.name} is regenerated twice")
        figures[figure.name] = json.loads(json.dumps(figure.rows))
        print(f"captured {figure.name}: {len(figure.rows)} rows", flush=True)
        return figure

    fixtures = {"regenerate": regenerate, "sweep": sweep}
    for path in sorted(HERE.glob("test_*.py")):
        for name, test in vars(_load_module(path)).items():
            if not name.startswith("test_") or not inspect.isfunction(test):
                continue
            parameters = inspect.signature(test).parameters
            if "regenerate" in parameters:
                test(**{parameter: fixtures[parameter] for parameter in parameters})
    return figures


def main() -> int:
    ROWS_PATH.write_text(dump_rows(capture()), encoding="utf-8")
    print(f"wrote {ROWS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
