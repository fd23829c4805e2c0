import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlchern.effective import (
    BracketError,
    count_iii_points,
    gap_closed_u_interval,
    gap_closing_search,
)
from nlchern.model import KPoint, ModelParams
from nlchern.spectrum import physical_spectrum

from oracles import PPoint, effective_spectrum, fold_merger_bisection, fold_points_scan, fold_residual


def test_ppoint_bounds():
    PPoint(0.3, -0.3)
    with pytest.raises(ValueError):
        PPoint(4.0, 0.0)


def test_effective_spectrum_origin_factorization():
    # (eps-2)^2 [(eps-4)^2 - 1] = 0 at p = 0 for u=1, U=4; all four physical
    eps = effective_spectrum(ModelParams(u=1.0, U=4.0), PPoint(0.0, 0.0))
    assert eps == pytest.approx([2.0, 2.0, 3.0, 5.0], abs=1e-9)


def test_effective_spectrum_linear_limit():
    rng = np.random.default_rng(2)
    p0 = ModelParams(u=1.0, U=0.0)
    for _ in range(20):
        px, py = rng.uniform(-2, 2, 2)
        pz = p0.u - 2.0 + 0.5 * (px * px + py * py)
        mag = math.sqrt(px * px + py * py + pz * pz)
        eps = effective_spectrum(p0, PPoint(px, py))
        assert eps == pytest.approx([-mag, mag], abs=1e-10)


def test_effective_consistent_with_full_model():
    # second-order expansion error stays within 2e-2 inside |p| <= 0.2
    for u, U in [(1.0, 4.0), (1.5, 3.0)]:
        params = ModelParams(u=u, U=U)
        for px, py in [(0.05, 0.0), (0.1, 0.1), (-0.15, 0.1), (0.2, 0.0), (0.0, 0.2)]:
            eff = effective_spectrum(params, PPoint(px, py))
            full = []
            for q in physical_spectrum(params, KPoint(math.pi + px, math.pi + py)):
                full.extend([q.epsilon] * q.multiplicity)
            assert len(eff) == len(full), (u, U, px, py, eff, full)
            assert eff == pytest.approx(full, abs=2e-2)


def test_count_four_roots():
    n, roots = count_iii_points(ModelParams(u=1.0, U=4.0))
    assert n == 4
    # roots come in +-p pairs
    assert roots[0] == pytest.approx(-roots[3], abs=1e-8)
    assert roots[1] == pytest.approx(-roots[2], abs=1e-8)
    for r in roots:
        assert abs(fold_residual(1.0, 4.0, r)) < 1e-8


def test_count_zero_roots():
    n, roots = count_iii_points(ModelParams(u=3.0, U=1.0))
    assert n == 0 and roots == []


def test_count_merged_roots_at_criticality():
    fine = gap_closing_search("u", 4.0, (1.0, 1.2))
    n, roots = count_iii_points(ModelParams(u=fine.critical_value, U=4.0))
    assert n == 2
    assert roots[0] == pytest.approx(-roots[1], abs=1e-3)


def test_count_past_merger_has_no_phantom_pair():
    # just past the merger the residual stays positive: no fold points at all
    u_star = gap_closed_u_interval(4.0)[0]
    assert count_iii_points(ModelParams(u=u_star + 1e-7, U=4.0)) == (0, [])
    assert count_iii_points(ModelParams(u=u_star - 1e-7, U=4.0))[0] == 4


# derandomized, so the suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, max_examples=120, database=None)


@st.composite
def fold_params(draw):
    """(u, U) anywhere, or with a fold point at a drawn |p|, so that many draws have some."""
    U = draw(st.floats(0.01, 12.0))
    if draw(st.booleans()):
        return draw(st.floats(-1.0, 3.0)), U
    p = draw(st.floats(0.0, 1.0)) * min(math.pi, U / math.sqrt(8.0))
    return -float(fold_residual(0.0, U, p)), U


@PROPERTY
@given(fold_params())
def test_count_matches_scan_oracle(point):
    u, U = point
    params = ModelParams(u=u, U=U)
    n, roots = count_iii_points(params)
    assert n == len(roots)
    for p in roots:
        assert abs(p) <= math.pi
        assert abs(fold_residual(u, U, p)) <= 1e-10
    # away from tangency: no local extremum of the residual (the fold merger,
    # the cusp at p = 0) and neither end of the domain lies near zero
    pmax = min(math.pi, U / math.sqrt(8.0))
    r = fold_residual(u, U, np.linspace(0.0, pmax, 2001))
    extrema = r[1:-1][(r[1:-1] - r[:-2]) * (r[2:] - r[1:-1]) <= 0]
    assume(np.min(np.abs(np.concatenate([extrema, r[[0, -1]]]))) > 1e-4)
    n_scan, roots_scan = fold_points_scan(u, U)
    assert n == n_scan
    assert roots == pytest.approx(roots_scan, abs=1e-8)


@pytest.mark.parametrize(
    "u, four, fewer",
    [(-1.0, 9.5, 9.9), (0.0, 6.9, 7.2), (0.5, 5.5, 5.8), (1.0, 4.0, 4.4), (1.5, 2.5, 2.7),
     (1.9, 0.9, 1.05)],
)
def test_gap_closing_fix_u_matches_scan_bisection(u, four, fewer):
    # the scan's count drops once the merging pair shares one grid cell,
    # which puts its transition within 1e-7 of the merger
    def n_folds(U):
        return fold_points_scan(u, U)[0]

    assert n_folds(four) == 4 and n_folds(fewer) < 4
    U_g = fold_merger_bisection(n_folds, four, fewer)
    report = gap_closing_search("U", u, (U_g - 0.05, U_g + 0.05))
    assert report.critical_value == pytest.approx(U_g, abs=1e-6)


def test_gap_closing_bracket_must_contain_merger():
    # the counts straddle 4 (an outer fold point leaves the domain |p| <= U/sqrt(8)
    # at u = 2 - U^2/8 = 1.4644), but the merger is at u = 1.64675
    with pytest.raises(BracketError, match="outside the bracket"):
        gap_closing_search("u", 2.07, (1.40, 1.55))


def test_gap_closing_fix_U():
    report = gap_closing_search("u", 4.0, (1.0, 1.2))
    assert report.critical_value == pytest.approx(1.066, abs=0.005)
    assert len(report.roots_before) == 4
    assert len(report.roots_after) < 4


def test_gap_closing_fix_u():
    report = gap_closing_search("U", 1.0, (4.0, 4.4))
    assert 4.1993 <= report.critical_value <= 4.1997


def test_gap_closing_monotone_merge():
    # the merging +p pair tightens monotonically as u approaches the merger
    us = [1.0, 1.02, 1.04, 1.06]
    seps = []
    for u in us:
        n, roots = count_iii_points(ModelParams(u=u, U=4.0))
        assert n == 4
        pos = [r for r in roots if r > 0]
        seps.append(pos[1] - pos[0])
    assert all(a > b for a, b in zip(seps, seps[1:]))


def test_gap_closing_invalid_bracket():
    with pytest.raises(BracketError):
        gap_closing_search("u", 4.0, (1.2, 1.4))


def test_gap_closed_interval():
    lo, hi = gap_closed_u_interval(4.0)
    assert lo == pytest.approx(1.066, abs=0.005)
    assert hi == pytest.approx(2.0, abs=0.01)


def test_gap_closed_interval_upper_end_exact():
    # the tube circle p^2 = 2(2 - u) pinches off at u = 2 for every U
    assert gap_closed_u_interval(4.0)[1] == 2.0


@pytest.mark.parametrize(
    "U, bracket, expect",
    [(3.0, (1.3, 1.45), 1.3812), (4.0, (1.0, 1.2), 1.0657), (5.0, (0.65, 0.8), 0.7294)],
)
def test_gap_closed_interval_closed_form_matches_bisection(U, bracket, expect):
    lo, hi = gap_closed_u_interval(U)
    assert lo == pytest.approx(expect, abs=1e-4)
    search = gap_closing_search("u", U, bracket)
    assert lo == pytest.approx(search.critical_value, abs=1e-4)
    assert hi == 2.0


def test_gap_closed_interval_needs_nonlinearity():
    with pytest.raises(ValueError):
        gap_closed_u_interval(0.0)
