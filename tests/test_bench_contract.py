"""The benchmark's traced run binds package functions by name.

``bench/spans.py`` looks each name of ``SPANNED`` and ``COUNTED`` up with
``getattr`` in its ``nlchern`` module.  A renamed or deleted function
breaks ``bench/run.py --trace 1``; this test breaks first.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_are_package_functions(spans):
    tables = (spans.SPANNED, spans.COUNTED)
    names = [(mod, fn) for table in tables for mod, fns in table.items() for fn in fns]
    assert names
    for mod, fn in names:
        module = importlib.import_module(f"nlchern.{mod}")
        assert callable(getattr(module, fn, None)), f"nlchern.{mod}.{fn}"
