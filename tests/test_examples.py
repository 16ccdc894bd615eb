"""Every example script imports and defines its functions.

Each ``examples/*.py`` runs under a module name other than ``__main__``, so
its imports and definitions execute but ``main()`` does not.  A renamed or
deleted API the examples use fails here rather than only when someone runs
the example.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
