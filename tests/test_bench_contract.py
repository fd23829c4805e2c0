"""The benchmark's traced run binds package functions by name.

``bench/spans.py`` looks each name of ``SPANNED`` and ``COUNTED`` up with
``getattr`` in its ``nlchern`` module.  A renamed or deleted function
breaks ``bench/run.py --trace 1``; this test breaks first.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from nlchern import spectrum
from nlchern.model import KPoint, ModelParams, bloch_vector

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


def test_scalar_spectrum_solves_through_the_traced_name(monkeypatch):
    # the span spectrum.solve_quartic times the scalar path's root solve: one call
    # at a generic k, none at a polar momentum or on the dz = 0 contour
    calls = []
    solve = spectrum.solve_quartic

    def counted(coeffs):
        calls.append(coeffs)
        return solve(coeffs)

    monkeypatch.setattr(spectrum, "solve_quartic", counted)
    params = ModelParams(0.0, 2.5)
    for k, path, n in ((KPoint(1.0, 2.0), "generic", 1), (KPoint(0.0, math.pi), "polar", 0),
                       (KPoint(0.5 * math.pi, 0.5 * math.pi), "contour", 0)):
        calls.clear()
        assert spectrum._path(bloch_vector(params, k), params.U) == path
        spectrum.physical_spectrum(params, k)
        assert len(calls) == n, path
