import dataclasses
import importlib
import math
import sys
from collections import namedtuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlchern import spectrum
from nlchern.model import BlochVector, KPoint, ModelParams, Spinor, bloch_vector
from nlchern.spectrum import (
    _FOLD_TOL,
    _QUARTIC_BOUND,
    _ROOT_TOL,
    _angles,
    _iii_residual,
    _key_angles,
    _max_residual,
    _path,
    _poly_roots,
    _real_roots,
    _spectrum,
    DegeneracyKind,
    SpectrumHealth,
    band_surface,
    branch_count,
    classify_degeneracies,
    iii_epsilon,
    nonlinear_spectra,
    physical_spectrum,
    solve_quartic,
)

from oracles import (
    AtCriticalityError,
    bifurcation_correction,
    complex_quartic_spectrum,
    circle_margin,
    eigenpair_residual,
    half_angle_coefficients,
    hamiltonian,
    iii_points_scan,
    kappa_scan_spectrum,
    lapack_half_angle_roots,
    lapack_half_angle_spectrum,
    omega_squared,
    quartic_coefficients,
    real_roots,
    scalar_max_residual,
)

TWO_PI = 2.0 * math.pi


def quartic_value(coeffs, x):
    return np.polyval(coeffs, x)


# ---------------------------------------------------------------------------
# quartic coefficients and roots
# ---------------------------------------------------------------------------

def test_coefficients_linear_limit():
    c = quartic_coefficients(ModelParams(u=0.0, U=0.0), BlochVector(0, 0, 1))
    assert c == [1.0, 0.0, -1.0, 0.0, 0.0]


def test_coefficients_polar_example():
    c = quartic_coefficients(ModelParams(u=3.0, U=5.0), BlochVector(0, 0, 1))
    assert c == pytest.approx([1.0, -15.0, 80.25, -182.5, 150.0], abs=1e-12)


def test_coefficient_c0_vanishes_at_zero_U():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = BlochVector(*rng.normal(size=3))
        c = quartic_coefficients(ModelParams(u=0.0, U=0.0), d)
        assert c[4] == 0.0


def kept_roots(roots):
    """The real parts of the roots that give a state, | |z| - 1 | <= 1e-6, sorted."""
    return sorted(t.real for t in roots if circle_margin(t) <= 1e-6)


def test_solve_quartic_matches_lapack_on_random_half_angle_quartics():
    # the monic half-angle quartics of random generic d, about phi = -pi/2 (|dz| >
    # sqrt(s)) and about phi = 0: the same roots kept as by LAPACK's eigenvalues of the
    # companion (tests/oracles.py), and each within 5e-14 relative of LAPACK's, where
    # 20,000 draws of this generator measured 1.1e-14 at most
    rng = np.random.default_rng(29)
    turned = []
    for _ in range(2000):
        dz, r, U = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 6.0)
        B, D, turn = half_angle_coefficients(dz, r, U)
        turned.append(turn)
        got, want = kept_roots(solve_quartic(B, D)), kept_roots(lapack_half_angle_roots(B, D))
        assert len(got) == len(want) >= 2, (dz, r, U, got, want)
        assert all(abs(a - b) <= 5e-14 * max(1.0, abs(b)) for a, b in zip(got, want)), (dz, r, U, got, want)
    assert any(turned) and not all(turned)


@pytest.fixture(scope="module")
def workloads():
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


def test_edge_points_match_lapack_solve(workloads):
    # the benchmark's spectrum-edge inputs, seeds 1 to 3: two thirds on the polar
    # momenta and the dz = 0 contour, at and near their critical strengths.  The same
    # states as the half-angle quartic solved by LAPACK, with |d epsilon| <= 2e-14
    # max(1, U, |d|) and |d kappa| <= 2e-13, where they measured 4.2e-15 and 4.4e-14
    for seed in (1, 2, 3):
        for _, u, U, kx, ky in workloads.edge_points(seed):
            d = bloch_vector(ModelParams(u=u, U=U), KPoint(kx, ky))
            got, want = _spectrum(d.dx, d.dy, d.dz, U), lapack_half_angle_spectrum(d, U)
            assert [p.multiplicity for p in got] == [p.multiplicity for p in want], (u, U, kx, ky)
            scale = max(1.0, U, d.magnitude)
            for p, q in zip(got, want):
                assert abs(p.epsilon - q.epsilon) <= 2e-14 * scale and abs(p.kappa - q.kappa) <= 2e-13, (p, q)


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(st.floats(-1e16, 1e16), st.floats(-1e16, 1e16))
def test_second_factor_always_gives_two_real_roots(B, D):
    # t^2 + r t - 1/q has a negative constant term: every quartic has a real root of
    # each sign, so every generic d has at least two states, by algebra.  |B| and |D|
    # are below sqrt(2) U / |d| + 3 < 1.5e15 on the generic path, where the path rule
    # keeps |d| above 1e-15 max(1, U)
    roots = solve_quartic(B, D)
    real = [t for t in roots[2:] if type(t) is float]
    assert len(real) == 2 and real[0] * real[1] < 0.0, roots
    assert all(map(math.isfinite, real))


@pytest.mark.parametrize("B", [0.0, 0.4, -2.5, 1e8, -3e15])
def test_solve_quartic_at_zero_kerr_strength_gives_plus_minus_i(B):
    # at U = 0, B = D: the quartic is (t^2 + 1)(t^2 + B t - 1), and its first factor's
    # roots t = +-i, z = 0 and infinity, are exactly those two
    roots = solve_quartic(B, B)
    assert roots[:2] == [1j, -1j]
    assert [circle_margin(t) for t in roots[:2]] == [1.0, math.inf]


def quartic_defect(B, D, t):
    """|t^4 + B t^3 + D t - 1| over its largest term, taken in 1/t where |t| > 1: no term overflows."""
    terms = [1.0, B / t, D / t / t / t, -1.0 / t / t / t / t] if abs(t) > 1.0 else [t**4, B * t**3, D * t, -1.0]
    return abs(math.fsum(terms)) / max(map(abs, terms))


@pytest.mark.parametrize("ratio", [1e150, 1e154, 1e160, 1e200, 1e300])
def test_solve_quartic_does_not_overflow(ratio):
    # B and D grow like U / |d|, so B D and B^2 - D^2 overflow from U / |d| ~ 1e154 on.
    # (The path rule sends such a d to the polar or contour path; the solve must not
    # rely on that.)  Every root is finite, and each real one solves the quartic to
    # round-off of its largest term
    for dz, r in ((1.0, 0.5), (0.5, 1.0), (-1.0, 0.3), (-0.3, 1.0)):
        B, D, _ = half_angle_coefficients(dz, r, ratio * math.hypot(dz, r))
        roots = solve_quartic(B, D)
        assert all(math.isfinite(abs(t)) for t in roots), (ratio, dz, r, roots)
        assert all(quartic_defect(B, D, t) <= 1e-15 for t in roots if type(t) is float), (ratio, dz, r, roots)


@st.composite
def root_polynomials(draw):
    """Coefficients of a real polynomial of degree at most 6 built from drawn roots, and
    a window [lo, hi] whose edges may be roots that ``np.roots`` computes."""
    x = st.floats(-3.0, 3.0)
    part = st.one_of(
        x.map(lambda r: [r]),
        st.sampled_from([[0.0], [-0.0]]),
        x.map(lambda r: [r, r]),
        # a pair 1e-9 to 1e-5 apart, on either side of _ROOT_TOL
        st.tuples(x, st.floats(1e-9, 1e-5)).map(lambda t: [t[0], t[0] + t[1]]),
        # a complex pair with |Im| near _ROOT_TOL
        st.tuples(x, st.floats(0.5, 2.0)).map(lambda t: [complex(t[0], s * t[1] * _ROOT_TOL) for s in (1, -1)]),
    )
    roots = [r for p in draw(st.lists(part, min_size=1, max_size=3)) for r in p]
    coeffs = np.poly(roots).real.tolist()
    computed = [z.real for z in np.roots(coeffs).tolist()]
    edge = st.one_of(st.sampled_from(computed), st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))
    return coeffs, draw(edge), draw(edge)


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(root_polynomials())
# three roots in one cluster, whose mean depends on the order of the sum:
# a + (b + c) is one ulp off numpy's
@example((np.poly([1.9e-7, 2.77e-7, 3.27e-7]).tolist(), -1.0, 1.0))
# a conjugate pair at Re = -0.0 and 0.0, one cluster, with |Im| = _ROOT_TOL exactly
@example(([1.0, 0.0, 1e-12], -1.0, 1.0))
# roots 0.0 and 1e-6, _ROOT_TOL apart exactly: one cluster
@example(([1.0, -1e-6, 0.0], -1.0, 1.0))
# a lone root at -0.0
@example(([1e300, 1e-300], -1.0, 1.0))
def test_real_roots_match_numpy_filter(case):
    coeffs, lo, hi = case
    assert list(map(float.hex, _real_roots(coeffs, lo, hi))) == list(map(float.hex, real_roots(coeffs, lo, hi)))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(st.tuples(root_polynomials(), st.integers(0, 2)), min_size=1, max_size=8))
# the fold-point quartic of the column kx = 0 at u = -1, U = 2, whose constant term is
# 0.0: np.roots solves it as a quadratic and appends two roots 0.0
@example([(([3.0 * 2.0 ** (2.0 / 3.0), 0.0, -3.0 * 2.0 ** (4.0 / 3.0), 0.0, 0.0], 0.0, 0.0), 0)])
# no nonzero coefficient, and a constant: no root
@example([(([0.0, 0.0], 0.0, 0.0), 1), (([2.0], 0.0, 0.0), 0)])
def test_stacked_roots_are_np_roots_to_the_bit(cases):
    # the column quartics of classify_degeneracies are solved in one stacked eigvals
    # call: each polynomial, with up to two leading zeros put in front, gets np.roots'
    # roots in np.roots' order, whatever its degree after its zeros are dropped
    polys = [[0.0] * lead + coeffs for (coeffs, _, _), lead in cases]
    got = _poly_roots(polys)
    for p, roots in zip(polys, got):
        bits = [(z.real.hex(), z.imag.hex()) for z in map(complex, roots)]
        assert bits == [(z.real.hex(), z.imag.hex()) for z in map(complex, np.roots(p).tolist())], p


# the quartic whose t^2 + r t - 1/q gave two positive roots before the solve checked its domain
OUTSIDE_DOMAIN = (-1.2813e177, 2.9835e59)


def solve_both_forms(B, D):
    """``solve_quartic`` of t^4 + B t^3 + D t - 1 on floats and as a batch of one."""
    return solve_quartic(B, D), solve_quartic(np.array([B]), np.array([D]))


def assert_outside_domain(B, D):
    """``solve_quartic`` rejects t^4 + B t^3 + D t - 1 on floats, and in a batch with a generic quartic."""
    with pytest.raises(ValueError, match="domain"):
        solve_quartic(B, D)
    with pytest.raises(ValueError, match="domain"):
        solve_quartic(np.array([0.5, B]), np.array([0.3, D]))


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.floats(-1e16, 1e16), st.one_of(st.floats(-1e16, 1e16), st.floats(-1e-3, 1e-3)), st.booleans())
@example(4.0995989841790266e13, 0.0, True)  # B near D: p / 2 = (B q - D) / 2m cancels
@example(40995989841790.266, 40995989845094.67, False)  # B near D and large: off LAPACK's by 1.95e-3
@example(1e16, 0.0, False)
@example(2.0, -2.0, False)
@example(-2.0, 2.0, False)
def test_solve_quartic_is_as_accurate_as_lapack_up_to_the_bound(B, x, near):
    # every quartic with max(|B|, |D|) <= 1e16 is in the domain, and each root lies
    # within 1e-14 S max(1, |t|) of a root of LAPACK's, S = max(1, |B|, |D|): LAPACK's
    # error measured up to 3.4e-15 S and the closed form's 3.8e-16 S (1,500 draws,
    # log-uniform |B|, |D|, against 50-digit roots), largest where B is near D.  A root
    # of multiplicity m, which LAPACK splits into a cluster, within (1e-14 S)^(1/m)
    # max(1, |t|): at B = -+2, D = +-2 the quartic is (t -+ 1)(t +- 1)^3
    D = B * (1.0 + x) if near else x
    assume(abs(D) <= _QUARTIC_BOUND)
    S = max(1.0, abs(B), abs(D))
    lapack = lapack_half_angle_roots(B, D)
    for t in solve_quartic(B, D):
        scale = max(1.0, abs(t))
        m = sum(abs(t - z) <= 1e-4 * scale for z in lapack)
        assert min(abs(t - z) for z in lapack) <= (1e-14 * S) ** (1.0 / max(m, 1)) * scale, (B, D, t, lapack)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.floats(1e16, 1e308), st.sampled_from([1.0, -1.0]), st.floats(-8.0, 8.0), st.floats(-2e-15, 2e-15))
@example(-OUTSIDE_DOMAIN[0], -1.0, 0.0, 0.0)
def test_solve_quartic_domain_beyond_the_bound(size, sign, near, rel):
    # beyond max(|B|, |D|) = 1e16 the solve takes only quartics near the generic path's
    # line |B + D| <= 4, up to 1e306, and solves each real root to a few ulps of the
    # quartic's largest term; every other quartic raises ValueError, on both forms
    B = sign * size
    D = -B + near + rel * size
    S = max(abs(B), abs(D))
    if S <= 1e16 or (S <= 1e306 and abs(B + D) <= 4.0 + 1e-15 * S):
        for roots in solve_both_forms(B, D):
            real = [complex(t).real for t in np.ravel(roots) if complex(t).imag == 0.0]
            assert len(real) >= 2 and all(quartic_defect(B, D, t) <= 4e-15 for t in real), (B, D, roots)
    else:
        assert_outside_domain(B, D)
    for B, D in (OUTSIDE_DOMAIN, (1e200, 1e200), (2e16, -2e16 + 64.0), (math.inf, -math.inf)):
        assert_outside_domain(B, D)


# ---------------------------------------------------------------------------
# physical spectrum
# ---------------------------------------------------------------------------

def test_linear_limit_matches_eigh():
    rng = np.random.default_rng(23)
    for u in (-3.0, -1.0, 1.0, 3.0):
        p = ModelParams(u=u, U=0.0)
        for _ in range(25):
            k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            pairs = physical_spectrum(p, k)
            assert len(pairs) == 2
            d = bloch_vector(p, k)
            H = np.array([[d.dz, d.dx - 1j * d.dy], [d.dx + 1j * d.dy, -d.dz]])
            w, v = np.linalg.eigh(H)
            for pair, col in zip(pairs, v.T):
                assert pair.epsilon == pytest.approx(
                    w[0] if pair is pairs[0] else w[1], abs=1e-10
                )
                overlap = abs(np.vdot(col, pair.state.as_array()))
                assert overlap == pytest.approx(1.0, abs=1e-9)


def test_polar_degenerate_spectrum():
    p = ModelParams(u=3.0, U=5.0)
    pairs = physical_spectrum(p, KPoint(math.pi, math.pi))
    eps = [q.epsilon for q in pairs]
    mult = [q.multiplicity for q in pairs]
    kap = [q.kappa for q in pairs]
    assert eps == pytest.approx([2.5, 4.0, 6.0], abs=1e-9)
    assert mult == [2, 1, 1]
    assert kap == pytest.approx([-0.4, -1.0, 1.0], abs=1e-9)


def test_mixed_branch_rejected_when_unphysical():
    pairs = physical_spectrum(ModelParams(u=1.2, U=1.0), KPoint(math.pi, math.pi))
    assert branch_count(pairs) == 2
    assert [q.epsilon for q in pairs] == pytest.approx([0.2, 1.8], abs=1e-10)


def test_kappa_scan_oracle_agreement():
    rng = np.random.default_rng(31)
    cases = [(1.0, 4.0), (1.2, 3.0), (3.0, 5.0), (2.0, 4.0), (0.5, 1.5)]
    for u, U in cases:
        p = ModelParams(u=u, U=U)
        for _ in range(6):
            k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            d = bloch_vector(p, k)
            expected = kappa_scan_spectrum(d.dx, d.dy, d.dz, U)
            got = []
            for q in physical_spectrum(p, k):
                got.extend([q.epsilon] * q.multiplicity)
            assert len(got) == len(expected), (u, U, k, got, expected)
            assert got == pytest.approx(expected, abs=5e-6)


def test_kappa_scan_counts_node_root_once():
    # at dz = 0 exactly the kappa = 0 roots sit on a grid node: eps = U/2 +- sqrt(s),
    # and for U > 2 sqrt(s) the tube pair at eps = U
    assert kappa_scan_spectrum(0.3, 0.4, 0.0, 0.5) == pytest.approx([-0.25, 0.75], abs=1e-12)
    assert kappa_scan_spectrum(0.3, 0.4, 0.0, 3.0) == pytest.approx([1.0, 2.0, 3.0, 3.0], abs=1e-9)


def test_kappa_scan_resolves_two_roots_in_one_cell():
    # two III-locus roots 1.5e-8 apart in kappa, straddling one grid node; the
    # spectrum places a near-double root to ~1e-8
    params = ModelParams(u=0.8212298662254276, U=7.430985380392755)
    k = KPoint(4.926683493255107, 4.926683493255107)
    d = bloch_vector(params, k)
    expected = kappa_scan_spectrum(d.dx, d.dy, d.dz, params.U)
    got = [q.epsilon for q in physical_spectrum(params, k)]
    assert len(expected) == len(got) == 4
    assert expected == pytest.approx(got, abs=5e-8)


def test_root_residual_and_self_consistency():
    rng = np.random.default_rng(37)
    for u, U in [(1.0, 4.0), (3.0, 5.0), (1.2, 2.4)]:
        p = ModelParams(u=u, U=U)
        for _ in range(20):
            k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            d = bloch_vector(p, k)
            coeffs = quartic_coefficients(p, d)
            for pair in physical_spectrum(p, k):
                assert abs(quartic_value(coeffs, pair.epsilon)) < 1e-9 * max(
                    1.0, np.linalg.norm(coeffs)
                )
                assert eigenpair_residual(p, k, pair) < 1e-10
                # rebuilding H from the state must reproduce epsilon
                H = hamiltonian(p, k, pair.state)
                w = np.linalg.eigvalsh(H)
                assert min(abs(w - pair.epsilon)) < 1e-9


def test_population_identity():
    rng = np.random.default_rng(41)
    p = ModelParams(u=1.0, U=4.0)
    for _ in range(40):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        d = bloch_vector(p, k)
        for pair in physical_spectrum(p, k):
            if abs(pair.epsilon - p.U) < 1e-6:
                continue
            n1 = abs(pair.state.c1) ** 2
            assert n1 == pytest.approx(0.5 + d.dz / (2 * (pair.epsilon - p.U)), abs=1e-9)


def test_small_U_continuity():
    rng = np.random.default_rng(43)
    p = ModelParams(u=1.0, U=1e-6)
    lin = ModelParams(u=1.0, U=0.0)
    for _ in range(100):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        pairs = physical_spectrum(p, k)
        ref = physical_spectrum(lin, k)
        assert len(pairs) == 2
        for a, b in zip(pairs, ref):
            assert abs(a.epsilon - b.epsilon) < 1e-5


def test_branch_count_onset_at_polar_point():
    # critical strength at (pi,pi) for u=3 is 2
    k = KPoint(math.pi, math.pi)
    below = physical_spectrum(ModelParams(u=3.0, U=1.95), k)
    above = physical_spectrum(ModelParams(u=3.0, U=2.05), k)
    assert branch_count(below) == 2
    assert branch_count(above) == 4


def test_sorting_and_tie_break():
    # on the dz=0 contour the double eigenvalue at U carries two kappas
    pairs = physical_spectrum(ModelParams(u=2.0, U=4.0), KPoint(math.pi, math.pi))
    eps_u = [q for q in pairs if abs(q.epsilon - 4.0) < 1e-9]
    assert len(eps_u) == 2
    assert eps_u[0].kappa < eps_u[1].kappa
    all_eps = [q.epsilon for q in pairs]
    assert all_eps == sorted(all_eps)


# ---------------------------------------------------------------------------
# properties on the degenerate sets
# ---------------------------------------------------------------------------

# derandomized, so the suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, max_examples=120, database=None)
ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)


def strength(critical: float):
    """U exactly at, within 1e-6 (relative) of, or anywhere around a critical strength."""
    return st.one_of(
        st.just(critical),
        st.floats(-1e-6, 1e-6).map(lambda r: critical * (1.0 + r)),
        st.floats(0.0, 6.0),
    )


def assert_spectrum_invariants(u, U, kx, ky, on_iii_locus=False):
    """At least two branches, round-off residuals, and the kappa-scan oracle's energies."""
    params, k = ModelParams(u=u, U=U), KPoint(kx, ky)
    d = bloch_vector(params, k)
    pairs = physical_spectrum(params, k)
    assert branch_count(pairs) >= 2
    bound = 1e-9 * max(1.0, U, d.magnitude)
    assert max(eigenpair_residual(params, k, q) for q in pairs) <= bound
    # Compared as sets, because the two count a state at a critical strength
    # differently.  At U = 2|dz| the scan lists the merged polar pair as well
    # as the state it merged into.  At U = 2 sqrt(s) to round-off the
    # spectrum keeps the tube pair ~1e-8 from kappa = 0, inside the one grid
    # cell that the scan counts as one root.  On the III locus the scan
    # function only touches zero at the two-fold energy, and round-off can
    # leave its minimum above zero, where the scan reports no root.
    got = [q.epsilon for q in pairs]
    expected = kappa_scan_spectrum(d.dx, d.dy, d.dz, U)
    seen = expected + ([iii_epsilon(d, U)] if on_iii_locus else [])
    tol = max(5e-6, 1e-5 * U)
    assert all(min(abs(e - g) for g in got) < tol for e in expected), (got, expected)
    assert all(min(abs(g - e) for e in seen) < tol for g in got), (got, expected)


@st.composite
def polar_points(draw):
    kx, ky = draw(st.sampled_from([0.0, math.pi])), draw(st.sampled_from([0.0, math.pi]))
    u = draw(st.floats(-3.0, 3.0))
    return u, draw(strength(2.0 * abs(u + math.cos(kx) + math.cos(ky)))), kx, ky


@st.composite
def contour_points(draw):
    # cos ky = c and u = -c - cos kx put k on dz = 0 up to round-off
    kx, c = draw(ANGLE), draw(st.floats(-1.0, 1.0))
    ky = math.acos(c) if draw(st.booleans()) else TWO_PI - math.acos(c)
    return -c - math.cos(kx), draw(strength(2.0 * math.hypot(math.sin(kx), math.sin(ky)))), kx, ky


@st.composite
def iii_points(draw):
    # U >= 2 sqrt(s) keeps the locus real; dz = +-{U^(2/3) - (4 s)^(1/3)}^(3/2) / 2
    kx, ky = draw(ANGLE), draw(ANGLE)
    s = math.sin(kx) ** 2 + math.sin(ky) ** 2
    U = 2.0 * math.sqrt(s) + draw(st.floats(0.0, 6.0))
    t = max(0.0, U ** (2.0 / 3.0) - (4.0 * s) ** (1.0 / 3.0))
    dz = draw(st.sampled_from([1.0, -1.0])) * 0.5 * t**1.5
    return dz - math.cos(kx) - math.cos(ky), U, kx, ky


@PROPERTY
@given(polar_points())
def test_polar_momenta_invariants(point):
    assert_spectrum_invariants(*point)


@PROPERTY
@given(contour_points())
def test_dz_zero_contour_invariants(point):
    assert_spectrum_invariants(*point)


@PROPERTY
@given(iii_points())
def test_iii_locus_invariants(point):
    assert_spectrum_invariants(*point, on_iii_locus=True)


def mixed_bloch_vectors(U: float):
    """Polar, dz = 0, III-locus and generic d at one U, critical ones included."""
    angle = st.floats(0.0, TWO_PI)
    polar = st.one_of(st.just(0.5 * U), st.just(-0.5 * U), st.floats(-4.0, 4.0)).map(
        lambda dz: BlochVector(0.0, 0.0, dz)
    )
    # radius U/2 puts U = 2 sqrt(s) up to round-off
    contour = st.tuples(angle, st.one_of(st.just(0.5 * U), st.floats(0.0, 3.0))).map(
        lambda a: BlochVector(a[1] * math.cos(a[0]), a[1] * math.sin(a[0]), 0.0)
    )
    iii = st.tuples(angle, st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0])).map(
        lambda a: _on_iii_locus(U, *a)
    )
    generic = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-4.0, 4.0)).map(
        lambda a: BlochVector(*a)
    )
    return st.lists(st.one_of(polar, contour, iii, generic), min_size=1, max_size=12)


def _on_iii_locus(U, phi, frac, sign):
    """d with sqrt(s) = frac U / 2 and dz = +-{U^(2/3) - (4 s)^(1/3)}^(3/2) / 2."""
    r = 0.5 * frac * U
    t = max(0.0, U ** (2.0 / 3.0) - (4.0 * r * r) ** (1.0 / 3.0))
    return BlochVector(r * math.cos(phi), r * math.sin(phi), sign * 0.5 * t**1.5)


def as_rows(ds):
    """Bloch vectors as the (dx, dy, dz) rows that ``nonlinear_spectra`` takes."""
    return np.array([(d.dx, d.dy, d.dz) for d in ds]).reshape(-1, 3)


@st.composite
def spectrum_batches(draw):
    U = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    return draw(mixed_bloch_vectors(U)), U


@PROPERTY
@given(spectrum_batches())
# a generic d, its kx <-> ky transpose and its two reflections share one quartic
# (one (dz, sqrt(s)) key) at four phases, among a polar and a contour vector
@example((
    [BlochVector(0.7, -1.3, 0.9), BlochVector(0.0, 0.0, 0.4), BlochVector(-1.3, 0.7, 0.9),
     BlochVector(0.6, 0.8, 0.0), BlochVector(-0.7, -1.3, 0.9), BlochVector(0.7, 1.3, 0.9)],
    2.5,
))
def test_list_form_equals_batch_of_one(batch):
    ds, U = batch
    health = SpectrumHealth()
    spectra = nonlinear_spectra(as_rows(ds), U, health)
    # every row of the array core is the scalar path of physical_spectrum, and so is its residual
    ref = [_spectrum(d.dx, d.dy, d.dz, U) for d in ds]
    assert spectra.pairs() == ref
    assert health.max_residual == scalar_max_residual(ds, U, ref)
    # the array core solves the quartic of each distinct (dz, sqrt(s)) of the generic
    # rows once, in one call through the traced name solve_quartic that carries them
    # all as arrays, and they are the quartics the scalar path solves
    keys = {(d.dz, math.sqrt(d.planar_sq)) for d in ds if _path(d.dz, d.planar_sq, U) == "generic"}
    with mock.patch("nlchern.spectrum.solve_quartic", side_effect=solve_quartic) as solve:
        nonlinear_spectra(as_rows(ds), U)
        (call,) = solve.call_args_list
        B, D = call.args
        core = list(zip(B.tolist(), D.tolist()))
        solve.reset_mock()
        for d in ds:
            _spectrum(d.dx, d.dy, d.dz, U)
        scalar = {call.args for call in solve.call_args_list}
    assert len(core) == len(keys) and set(core) == scalar


def scalar_margin(roots):
    """The margin of the first pair of the scalar roots, as ``_angles`` takes it: 2 b / (1 + a^2)
    of t = a +- i b, the first-order |Im theta| of both, and 0.0 for a real pair."""
    a, b = roots[0].real, roots[0].imag
    return 2.0 * b / (1.0 + a * a) if type(roots[0]) is complex else 0.0


def assert_array_form_is_scalar(dz, r, U):
    """``_key_angles`` and the array ``solve_quartic`` of the keys (dz, r) equal, key by key and
    bit for bit, the scalar ``_angles`` and ``solve_quartic`` and the scalar margin."""
    dz, r = np.asarray(dz, dtype=float), np.asarray(r, dtype=float)
    theta, margin = _key_angles(dz, r, U)
    coeffs = [half_angle_coefficients(z, x, U) for z, x in zip(dz.tolist(), r.tolist())]
    B, D = (np.array([c[j] for c in coeffs], dtype=float) for j in (0, 1))
    roots = solve_quartic(B, D).T
    scalar = [solve_quartic(b, d) for b, d in zip(B.tolist(), D.tolist())]
    got = np.stack((roots.real, roots.imag), axis=-1)
    want = np.array([[(complex(t).real, complex(t).imag) for t in row] for row in scalar]).reshape(got.shape)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # a root is complex on one form where it is on the other
    assert (roots.imag != 0.0).tolist() == [[type(t) is complex for t in row] for row in scalar]
    want = np.array([scalar_margin(row) for row in scalar], dtype=float)
    assert margin.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    want = np.array([t for z, x in zip(dz.tolist(), r.tolist()) for t in _angles(z, x, U)])
    assert theta.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def fold_keys(U, r, sign):
    """Keys (dz, r) across the fold point of the III locus at sqrt(s) = r: a geometric
    ladder of offsets from it, and the two neighbouring dz between which the margin of
    the split double root passes ``_FOLD_TOL``, found by bisection."""
    dz0 = sign * 0.5 * (U ** (2.0 / 3.0) - (4.0 * r * r) ** (1.0 / 3.0)) ** 1.5

    def margin(dz):
        B, D, _ = half_angle_coefficients(dz, r, U)
        return scalar_margin(solve_quartic(B, D))

    ladder = [dz0 * (1.0 + s * 10.0**-k) for k in range(4, 16) for s in (1.0, -1.0)]
    outer = max(ladder, key=margin)
    lo, hi = dz0, outer
    assert margin(lo) <= _FOLD_TOL < margin(hi)
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) <= _FOLD_TOL else (lo, mid)
    return [dz0, lo, hi, *ladder], [r] * (len(ladder) + 3)


@st.composite
def quartic_keys(draw):
    """(dz, r, U): keys of generic d, anywhere, with |dz| and sqrt(s) near 1e-15 (|B|, |D|
    up to about 6e15), and on and next to the fold locus, at U = 0, 1e-12 or random."""
    U = draw(st.one_of(st.sampled_from([0.0, 1e-12, 2.7]), st.floats(0.0, 6.0)))
    anywhere = st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 1.5))
    # |dz| and sqrt(s) near 1e-15: |B| and |D| near U / |d|, up to about 1e15 U
    tiny = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1e-15, 1e-14), st.floats(0.2, 5.0)).map(
        lambda a: (a[0] * a[1], a[1] * a[2])
    )
    fold = st.tuples(st.floats(0.05, 0.95), st.sampled_from([1.0, -1.0]), st.floats(-1e-6, 1e-6)).map(
        lambda a: (a[1] * 0.5 * max(U ** (2.0 / 3.0) - (U * U * a[0] * a[0]) ** (1.0 / 3.0), 0.0) ** 1.5 * (1.0 + a[2]),
                   0.5 * a[0] * U)
    )
    keys = draw(st.lists(st.one_of(anywhere, tiny, fold), min_size=1, max_size=40))
    keys = [(z, x) for z, x in keys if x > 0.0 and z != 0.0]
    return [z for z, _ in keys], [x for _, x in keys], U


@PROPERTY
@given(quartic_keys())
def test_array_solve_is_the_scalar_solve_bit_for_bit(case):
    assert_array_form_is_scalar(*case)


@pytest.mark.parametrize("U, r", [(3.0, 0.5), (5.0, 0.3), (1.0, 0.45)])
def test_array_solve_is_the_scalar_solve_at_the_fold_and_the_circle_tolerance(U, r):
    # on the fold (III) locus two roots meet, p^2 = 4 q (|e| = sqrt(q)), and round-off
    # splits them into a real or a conjugate pair; next to it the pair's margin passes
    # _FOLD_TOL between two neighbouring floats dz, the pair kept at one and dropped
    # at the other, so four states at one and two at the other, on both paths
    for sign in (1.0, -1.0):
        dz, rs = fold_keys(U, r, sign)
        assert_array_form_is_scalar(dz, rs, U)
        lo, hi = dz[1:3]
        assert [len(_angles(z, r, U)) for z in (lo, hi)] == [4, 2]
        assert len(_key_angles(np.array([lo, hi]), np.array([r, r]), U)[0]) == 6


@PROPERTY
@given(quartic_keys())
def test_generic_keys_give_two_or_four_states_on_both_paths(case):
    # the first factor's pair gives two states or none, the second factor's real pair two
    dz, r, U = case
    assert {len(_angles(z, x, U)) for z, x in zip(dz, r)} <= {2, 4}
    ds = [BlochVector(x, 0.0, z) for z, x in zip(dz, r)]
    generic = [d for d in ds if _path(d.dz, d.planar_sq, U) == "generic"]
    assert set(nonlinear_spectra(as_rows(generic), U).branch_counts().tolist()) <= {2, 4}
    assert {branch_count(_spectrum(d.dx, d.dy, d.dz, U)) for d in generic} <= {2, 4}


@pytest.mark.parametrize("u, U, kx, ky, count", [
    (1.623485844381582, 6.457337961063277, 2.0283501080953292, 4.495353461354733, 2),
    (0.29299804541597174, 7.1359002249754315, 5.04552986309795, 0.7098074323385294, 4),
])
def test_fold_pair_is_kept_or_dropped_as_one_on_both_paths(u, U, kx, ky, count):
    # next to a fold: the two roots of the split double root have per-root margins
    # | |z| - 1 | on either side of 1e-6 (9.9999975e-07 and 1.00000075e-06 at the first
    # k), and a rule root by root kept one of them, three states
    params, k = ModelParams(u=u, U=U), KPoint(kx, ky)
    d = bloch_vector(params, k)
    assert _path(d.dz, d.planar_sq, U) == "generic"
    pairs = physical_spectrum(params, k)
    assert branch_count(pairs) == count
    assert nonlinear_spectra(as_rows([d]), U).pairs() == [pairs]


def state_bits(pairs):
    """Each state's (epsilon, kappa, c1, c2) parts as uint64, which tells -0.0 from 0.0, and
    its multiplicity."""
    parts = [(p.epsilon, p.kappa, p.state.c1.real, p.state.c1.imag, p.state.c2.real, p.state.c2.imag)
             for p in pairs]
    return np.array(parts, dtype=float).reshape(-1, 6).view(np.uint64).tolist(), [p.multiplicity for p in pairs]


def edge_momenta():
    """Seeded (u, U, kx, ky) where the scalar path decides its polar and contour branches
    and its fold rule: the polar momenta at U = 2|dz| exactly, one float either side and
    1e-6 relative either side; momenta 1e-16 to 1e-8 off the polar ones at that U; k
    with dz = 0 exactly at U = 2 sqrt(s) exactly, one float either side and 1e-6 relative
    either side; and generic k at and next to the fold edges (III points) of three (u, U)."""
    rng = np.random.default_rng(23)
    points = []
    for kx, ky in ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)):
        for u in rng.uniform(-3.0, 3.0, 4).tolist():
            uc = 2.0 * abs(bloch_vector(ModelParams(u=u), KPoint(kx, ky)).dz)
            near = (uc, math.nextafter(uc, 0.0), math.nextafter(uc, math.inf), uc * (1.0 - 1e-6), uc * (1.0 + 1e-6))
            points += [(u, U, kx, ky) for U in near]
            for dk in (1e-16, 1e-12, 1e-8):
                points += [(u, uc, kx + dk, ky), (u, uc, kx, ky - dk), (u, uc, kx - dk, ky + dk)]
    exact = 0
    while exact < 12:
        kx, ky = rng.uniform(0.0, TWO_PI, 2).tolist()
        u = -math.cos(kx) - math.cos(ky)
        d = bloch_vector(ModelParams(u=u), KPoint(kx, ky))
        if abs(u) < 2.0 and d.dz == 0.0:
            exact += 1
            uc = 2.0 * math.sqrt(d.planar_sq)
            near = (uc, math.nextafter(uc, 0.0), math.nextafter(uc, math.inf), uc * (1.0 - 1e-6), uc * (1.0 + 1e-6))
            points += [(u, U, kx, ky) for U in near]
    for u, U in ((1.2, 3.0), (3.0, 5.0), (-0.5, 2.5)):
        for p in classify_degeneracies(ModelParams(u=u, U=U), 24):
            if p.kind is DegeneracyKind.III:
                points += [(u, U, p.k.kx + dk, p.k.ky) for dk in (0.0, 1e-9, -1e-9, 1e-7, -1e-7)]
    return points


def test_scalar_path_equals_array_core_bit_for_bit_on_the_edge_sets():
    # physical_spectrum against nonlinear_spectra of the same d, every part of every
    # state as uint64, on the sets where the scalar path picks its branch; the sets
    # must reach each of the three paths with two states and with four
    counts = set()
    for u, U, kx, ky in edge_momenta():
        params, k = ModelParams(u=u, U=U), KPoint(kx, ky)
        d = bloch_vector(params, k)
        got = physical_spectrum(params, k)
        (want,) = nonlinear_spectra([(d.dx, d.dy, d.dz)], U).pairs()
        assert state_bits(got) == state_bits(want), (u, U, kx, ky)
        counts.add((_path(d.dz, d.planar_sq, U), branch_count(got)))
    assert counts >= {(path, n) for path in ("polar", "contour", "generic") for n in (2, 4)}


def test_polar_states_share_the_polarized_spinors():
    # kappa = +-1 at a polar momentum: the shared frozen spinors, equal to fresh ones
    pairs = physical_spectrum(ModelParams(u=3.0, U=5.0), KPoint(math.pi, math.pi))
    polarized = {p.kappa: p.state for p in pairs if abs(p.kappa) == 1.0}
    assert polarized[1.0] is spectrum._UP and polarized[-1.0] is spectrum._DOWN
    fresh = Spinor(1.0 + 0.0j, 0.0j), Spinor(0.0j, 1.0 + 0.0j)
    assert (spectrum._UP, spectrum._DOWN) == fresh and hash(spectrum._UP) == hash(fresh[0])
    assert [repr(s) for s in (spectrum._UP, spectrum._DOWN)] == [repr(s) for s in fresh]  # -0.0 parts too
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum._UP.c1 = 0.0j


def test_array_solve_is_the_scalar_solve_where_w_is_zero():
    # w = 0 where h = 0: B = D (U = 0, w = -0.0) and B = -D; Cardano's a = 0 at B = 2, D = -2
    B = np.array([0.0, 0.4, -2.5, 1e8, -3e15, 2.0, -2.0, 1.0, 0.5])
    D = np.array([0.0, 0.4, -2.5, 1e8, -3e15, -2.0, 2.0, -1.0, -0.5])
    roots = solve_quartic(B, D).T
    for row, b, d in zip(roots.tolist(), B.tolist(), D.tolist()):
        want = [complex(t) for t in solve_quartic(b, d)]
        assert [(t.real.hex(), t.imag.hex()) for t in row] == [(t.real.hex(), t.imag.hex()) for t in want]
    assert roots[:5, :2].tolist() == [[1j, -1j]] * 5


def test_empty_batch_has_one_offset_and_empty_columns():
    # Hypothesis draws at least one vector; a (0, 3) batch merges no state at all
    spectra = nonlinear_spectra(np.empty((0, 3)), 2.5)
    assert spectra.offsets.tolist() == [0]
    columns = (spectra.epsilon, spectra.kappa, spectra.c1, spectra.c2, spectra.multiplicity)
    assert [a.dtype for a in columns] == [np.float64, np.float64, np.complex128, np.complex128, np.intp]
    assert all(a.size == 0 for a in columns)
    assert spectra.pairs() == [] and spectra.branch_counts().size == 0


def test_batch_without_generic_rows_equals_scalar_path():
    # polar and contour rows only, in mixed order: every state is an edge row's
    U = 2.5
    ds = [BlochVector(0.6, 0.8, 0.0), BlochVector(0.0, 0.0, 0.4), BlochVector(0.0, 0.0, -2.0),
          BlochVector(1.5, -2.0, 0.0), BlochVector(0.0, 0.0, 0.4)]
    health = SpectrumHealth()
    spectra = nonlinear_spectra(as_rows(ds), U, health)
    assert spectra.pairs() == [_spectrum(d.dx, d.dy, d.dz, U) for d in ds]
    assert spectra.offsets.tolist() == [0, 4, 7, 9, 11, 14]
    assert health.paths == {"polar": 3, "contour": 2, "generic": 0} and health.roots_discarded == 0


def test_path_rule_at_huge_kerr_strength_is_silent():
    # a polar, a contour and a generic d at a moderate U; the round-off bound
    # squared is inf at U = 1e308, so all three are polar here, and the scalar
    # _path compares that inf silently, as the array core must
    U = 1e308
    ds = [BlochVector(0.0, 0.0, 0.5), BlochVector(0.3, 0.4, 0.0), BlochVector(0.3, 0.4, 0.5)]
    assert [_path(d.dz, d.planar_sq, U) for d in ds] == ["polar"] * 3
    assert nonlinear_spectra(as_rows(ds), U).pairs() == [_spectrum(d.dx, d.dy, d.dz, U) for d in ds]


@pytest.mark.parametrize("u, U, overflows", [
    (1e308, 1e308, True), (-1e308, 1e308, True), (1.7e308, 1.4e308, True),
    (1.0, 1e308, False), (1e308, 0.0, False), (0.5, 1.7976931348623157e308, False),
])
def test_overflowing_energies_raise_on_both_paths(u, U, overflows):
    # U + |dz| + sqrt(s) bounds |epsilon|; where it overflows float64, the scalar
    # path returned epsilon = inf and the array core warned, both without error
    params = ModelParams(u=u, U=U)
    if overflows:
        for solve in (lambda: physical_spectrum(params, KPoint(0.3, 0.7)), lambda: band_surface(params, 3)):
            with pytest.raises(ValueError, match="u or U is too large"):
                solve()
    else:
        kx, ky, spectra = band_surface(params, 5)
        assert np.isfinite(spectra.epsilon).all()
        assert spectra.pairs() == [physical_spectrum(params, KPoint(*k)) for k in zip(kx.tolist(), ky.tolist())]


@pytest.mark.parametrize("U", [1e-20, 1e-120, 5e-324])
def test_round_off_kerr_strength_keeps_two_states(U):
    # U below round-off next to |d|: a complex quartic in e^{i theta} lost the unit-circle
    # roots and raised "no physical root survived"; the half-angle quartic keeps them, and
    # discards two roots per generic vector, t = +-i (z = 0 and infinity)
    params = ModelParams(u=3.0, U=U)
    health = SpectrumHealth()
    for node in surface_nodes(params, 9, health):
        assert node.pairs == physical_spectrum(params, KPoint(node.kx, node.ky))
        assert node.branch_count == 2
    assert health.roots_discarded == 2 * health.paths["generic"] and health.max_residual <= 1e-14
    # which are the states of U = 0, to the bit at a generic k
    k = KPoint(0.3, 0.7)
    assert physical_spectrum(ModelParams(u=1.0, U=U), k) == physical_spectrum(ModelParams(u=1.0), k)


@pytest.mark.parametrize("U", [1e-14, 1e-13, 1e-12, 1e-11, 1e-10])
def test_small_kerr_strength_residual_at_round_off(U):
    # the complex quartic in e^{i theta} has companion entries of size |d| / U; at
    # U = 1e-12 its states on this grid had residuals up to 7.8e-8, and 5.9e-8 at k
    params = ModelParams(u=1.0, U=U)
    kx, ky, spectra = band_surface(params, 41)
    for x, y, pairs in zip(kx.tolist(), ky.tolist(), spectra.pairs()):
        k = KPoint(x, y)
        bound = 1e-12 * max(1.0, U, bloch_vector(params, k).magnitude)
        assert max(eigenpair_residual(params, k, q) for q in pairs) <= bound, (k, pairs)
    k = KPoint(1.3263830982427363, 5.52520069806225)
    bound = 1e-12 * max(1.0, U, bloch_vector(params, k).magnitude)
    assert max(eigenpair_residual(params, k, q) for q in physical_spectrum(params, k)) <= bound


def _iii_strength(r, dz):
    """The U that puts (sqrt(s), dz) = (r, dz) on the III locus: U^(2/3) = (4 s)^(1/3) + (2 |dz|)^(2/3)."""
    return ((4.0 * r * r) ** (1.0 / 3.0) + (2.0 * abs(dz)) ** (2.0 / 3.0)) ** 1.5


@st.composite
def oracle_vectors(draw):
    """A Bloch vector and a U: generic, near-polar (sqrt(s) down to 1e-14), near-contour (|dz|
    down to 1e-14) or on the III locus of some U0, with U round-off small, anywhere in [0, 6],
    or 1e-6 (relative) above or below a critical strength of the vector: 2 |dz|, 2 sqrt(s) or
    the III locus' (U0 for the last family).  Never within 5e-7 of a critical strength itself:
    there two states merge into a double root, which round-off splits by about 1e-8, in each
    solver differently, so that even the state count can differ."""
    phi, sign = draw(st.floats(0.0, TWO_PI)), draw(st.sampled_from([1.0, -1.0]))
    tiny = st.floats(-14.0, -1.0).map(lambda e: 10.0**e)
    family = draw(st.sampled_from(["generic", "polar", "contour", "iii"]))
    if family == "generic":
        r, dz = draw(st.floats(0.0, 3.0)), draw(st.floats(-4.0, 4.0))
    elif family == "polar":
        r, dz = draw(tiny), sign * draw(st.floats(0.05, 4.0))
    elif family == "contour":
        r, dz = draw(st.floats(0.05, 3.0)), sign * draw(tiny)
    else:
        r = draw(st.floats(0.0, 3.0))
        U0 = draw(st.floats(2.0 * r, 2.0 * r + 6.0))
        dz = sign * 0.5 * max(0.0, U0 ** (2.0 / 3.0) - (4.0 * r * r) ** (1.0 / 3.0)) ** 1.5
    critical = [2.0 * abs(dz), 2.0 * r, _iii_strength(r, dz)]
    U = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-20, 1e-12]),
        st.floats(0.0, 6.0),
        st.tuples(st.sampled_from(critical), st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6])).map(lambda a: a[0] * a[1]),
    ))
    assume(all(abs(U - c) >= 5e-7 * c for c in critical))
    return BlochVector(r * math.cos(phi), r * math.sin(phi), dz), U


@settings(derandomize=True, deadline=None, max_examples=1500, database=None)
@given(oracle_vectors())
@example((BlochVector(0.9 * math.cos(0.4), 0.9 * math.sin(0.4), 1.2), 1e-12))
def test_half_angle_quartic_matches_complex_quartic(case):
    # the half-angle quartic against the complex quartic in e^{i theta} it replaced
    # (tests/oracles.py): the same states, each close in energy and population,
    # and a residual at round-off, where the complex quartic's grows as U falls
    d, U = case
    new, old = _spectrum(d.dx, d.dy, d.dz, U), complex_quartic_spectrum(d, U)
    scale = max(1.0, U, d.magnitude)
    assert [p.multiplicity for p in new] == [p.multiplicity for p in old], (new, old)
    for p, q in zip(new, old):
        assert abs(p.epsilon - q.epsilon) <= 1e-9 * scale and abs(p.kappa - q.kappa) <= 1e-6, (p, q)
    assert scalar_max_residual([d], U, [new]) <= 1e-12 * scale


def test_numpy_sin_and_cos_are_libm_to_the_bit():
    # the array core takes sin and cos of whole arrays by numpy (model._bloch_parts,
    # _theta_energy, the spinor's half angles), the scalar path by math, one value at a
    # time; the two paths agree to the bit only where numpy's values are libm's.  A
    # seeded sample: angles of the zone and of theta, and their halves
    rng = np.random.default_rng(41)
    x = np.concatenate((rng.uniform(0.0, TWO_PI, 100_000), rng.uniform(-math.pi, math.pi, 100_000)))
    x = np.concatenate((x, 0.5 * x, [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, TWO_PI]))
    for name in ("sin", "cos"):
        got, want = getattr(np, name)(x).tolist(), list(map(getattr(math, name), x.tolist()))
        differ = [v for v, a, b in zip(x.tolist(), got, want) if a != b]
        assert not differ, (
            f"np.{name} differs from libm's on {len(differ)} of {len(x)} inputs, first {differ[0]!r}: "
            "the bit-identity contract between the array core and the scalar spectrum path "
            "(nonlinear_spectra row i == physical_spectrum) cannot hold on this platform"
        )


def test_readme_band_surface_equals_scalar_path_bit_for_bit():
    # the README bands grid: every state, and the largest residual, is the one
    # the scalar path and the Python-scalar residual loop give, to the bit (repr
    # tells -0.0 from 0.0, which bands.csv prints); compared node by node, so that a
    # failure names the first node that differs instead of diffing 6,561 nodes
    params = ModelParams(u=3.0, U=5.0)
    health = SpectrumHealth()
    kx, ky, spectra = band_surface(params, 81, health)
    ks = [KPoint(x, y) for x, y in zip(kx.tolist(), ky.tolist())]
    ref = [physical_spectrum(params, k) for k in ks]
    for i, (got, want) in enumerate(zip(spectra.pairs(), ref, strict=True)):
        if repr(got) != repr(want):
            pytest.fail(f"node {i} at {ks[i]}: band_surface {got!r}, physical_spectrum {want!r}")
    ds = [bloch_vector(params, k) for k in ks]
    assert repr(health.max_residual) == repr(scalar_max_residual(ds, params.U, ref))


# ---------------------------------------------------------------------------
# degeneracy classification
# ---------------------------------------------------------------------------

def test_classify_trivial_regime():
    pts = classify_degeneracies(ModelParams(u=3.0, U=5.0), 32)
    i_crit = sorted(p.critical_U for p in pts if p.kind == DegeneracyKind.I)
    assert i_crit == pytest.approx([2.0, 6.0, 6.0, 10.0], abs=1e-12)
    assert not [p for p in pts if p.kind == DegeneracyKind.II]
    for p in pts:
        if p.kind == DegeneracyKind.I:
            assert p.epsilon == pytest.approx(2.5, abs=1e-12)


def test_classify_nontrivial_regime():
    params = ModelParams(u=1.2, U=3.0)
    pts = classify_degeneracies(params, 32)
    i_crit = sorted(p.critical_U for p in pts if p.kind == DegeneracyKind.I)
    assert i_crit == pytest.approx([1.6, 2.4, 2.4, 6.4], abs=1e-12)
    ii = [p for p in pts if p.kind == DegeneracyKind.II]
    assert ii
    for p in ii:
        d = bloch_vector(params, p.k)
        assert abs(d.dz) < 1e-9
        assert p.epsilon == params.U
        assert p.critical_U == pytest.approx(
            2.0 * math.sqrt(math.sin(p.k.kx) ** 2 + math.sin(p.k.ky) ** 2), abs=1e-12
        )


def test_classify_iii_points_on_locus():
    params = ModelParams(u=1.2, U=3.0)
    pts = [p for p in classify_degeneracies(params, 32) if p.kind == DegeneracyKind.III]
    assert pts
    for p in pts:
        d = bloch_vector(params, p.k)
        t = params.U ** (2 / 3) - (4 * d.planar_sq) ** (1 / 3)
        assert t >= 0
        assert min(abs(d.dz - 0.5 * t**1.5), abs(d.dz + 0.5 * t**1.5)) < 1e-10
        # the reported eigenvalue is a double root of the quartic
        coeffs = quartic_coefficients(params, d)
        assert abs(np.polyval(coeffs, p.epsilon)) < 1e-8
        assert abs(np.polyval(np.polyder(coeffs), p.epsilon)) < 1e-4


def _zone_distance(a, b):
    """Largest componentwise distance between two k points, modulo 2 pi."""
    return max(min(abs(x - y) % TWO_PI, TWO_PI - abs(x - y) % TWO_PI) for x, y in zip(a, b))


def _iii_points(u, U, n):
    params = ModelParams(u=u, U=U)
    return params, [p for p in classify_degeneracies(params, n) if p.kind == DegeneracyKind.III]


@pytest.mark.parametrize(
    "u, U, n", [(1.2, 3.0, 64), (1.2, 3.0, 32), (3.0, 5.0, 32), (0.5, 2.5, 64), (2.5, 6.0, 64)]
)
def test_classify_iii_matches_grid_scan(u, U, n):
    params, pts = _iii_points(u, U, n)
    scan = iii_points_scan(u, U, n)
    assert len(pts) == len(scan)
    for p in pts:
        assert min(_zone_distance((p.k.kx, p.k.ky), q) for q in scan) <= 1e-8
        d = bloch_vector(params, p.k)  # on the locus branch sign(dz)
        assert abs(_iii_residual(d, U, math.copysign(1.0, d.dz))) <= 1e-12 * max(1.0, U, d.magnitude)


@pytest.mark.parametrize("u", [-1.0, 0.0])
def test_classify_iii_points_once_where_locus_touches_grid(u):
    # At u = -1 the locus passes through grid nodes, tangent to a grid line
    # there; at (0, pi/4) the grid scan reported a pair of points at
    # kx = +-1.2e-5.  At u = 0 it touches the polar momenta (0, 0) and
    # (pi, pi), where acos splits one point into ky ~ +-1e-7.
    _, pts = _iii_points(u, 4.0, 64)
    ks = [(p.k.kx, p.k.ky) for p in pts]
    assert all(_zone_distance(a, b) >= 1e-6 for i, a in enumerate(ks) for b in ks[:i])
    if u == -1.0:
        near = [k for k in ks if _zone_distance(k, (0.0, math.pi / 4)) < 1e-3]
        assert len(near) == 1 and near[0][0] == 0.0


def test_classify_no_iii_when_U_below_onset():
    pts = classify_degeneracies(ModelParams(u=3.0, U=1.0), 32)
    assert not [p for p in pts if p.kind == DegeneracyKind.III]


def test_classify_rejects_coarse_grid():
    with pytest.raises(ValueError):
        classify_degeneracies(ModelParams(u=1.0, U=1.0), 8)


# ---------------------------------------------------------------------------
# bifurcation corrections
# ---------------------------------------------------------------------------

def test_bifurcation_polar_closed_form():
    # dz0 = 1, U = 5, first-order displacement (0.1, 0) in (dx, dy)
    res = bifurcation_correction(
        ModelParams(u=3.0, U=5.0), KPoint(math.pi, math.pi), (-0.1, 0.0)
    )
    expect = 0.5 / math.sqrt(21.0)
    assert res.kind == DegeneracyKind.I
    assert res.values == pytest.approx((-expect, expect), abs=1e-12)
    assert res.discriminant > 0


def test_bifurcation_zero_displacement():
    res = bifurcation_correction(ModelParams(u=3.0, U=5.0), KPoint(math.pi, math.pi), (0.0, 0.0))
    assert res.values == pytest.approx((0.0, 0.0), abs=1e-15)


def test_bifurcation_at_criticality():
    with pytest.raises(AtCriticalityError):
        bifurcation_correction(ModelParams(u=3.0, U=2.0), KPoint(math.pi, math.pi), (-0.05, 0.0))


def test_bifurcation_matches_split_roots():
    # first-order prediction vs the actual split of the degenerate pair
    params = ModelParams(u=3.0, U=5.0)
    k0 = KPoint(math.pi, math.pi)
    res = bifurcation_correction(params, k0, (-0.1, 0.0))
    pairs = physical_spectrum(params, KPoint(math.pi - 0.1, math.pi))
    cone = sorted(q.epsilon for q in pairs if abs(q.epsilon - 2.5) < 0.5)
    assert len(cone) == 2
    split = 0.5 * (cone[1] - cone[0])
    assert split == pytest.approx(max(res.values), rel=0.05)


def test_bifurcation_rejects_large_displacement():
    with pytest.raises(ValueError):
        bifurcation_correction(ModelParams(u=3.0, U=5.0), KPoint(math.pi, math.pi), (0.3, 0.0))


@pytest.mark.parametrize("u, U, n", [(1.2, 3.0, 64), (0.5, 2.5, 64), (3.0, 5.0, 32)])
def test_bifurcation_kind_agrees_with_classifier(u, U, n):
    # the classifier's I and II points lie on the spectrum's polar set and contour
    params = ModelParams(u=u, U=U)
    points = [p for p in classify_degeneracies(params, n) if p.kind is not DegeneracyKind.III]
    assert points
    for p in points:
        try:
            assert bifurcation_correction(params, p.k, (0.01, 0.0)).kind is p.kind
        except AtCriticalityError:
            pass


def test_bifurcation_rejects_nondegenerate_point():
    with pytest.raises(ValueError):
        bifurcation_correction(ModelParams(u=3.0, U=5.0), KPoint(1.0, 1.7), (0.01, 0.0))


# ---------------------------------------------------------------------------
# band surfaces
# ---------------------------------------------------------------------------

Node = namedtuple("Node", "kx ky pairs branch_count")


def surface_nodes(params, n, health=None):
    """``band_surface``'s arrays as one record per node."""
    kx, ky, spectra = band_surface(params, n, health)
    return [
        Node(*node)
        for node in zip(kx.tolist(), ky.tolist(), spectra.pairs(), spectra.branch_counts().tolist())
    ]


def test_band_surface_linear_two_branches():
    nodes = surface_nodes(ModelParams(u=3.0, U=0.0), 15)
    assert all(node.branch_count == 2 for node in nodes)


def test_band_surface_cone_region():
    nodes = surface_nodes(ModelParams(u=3.0, U=5.0), 21)
    at = {(round(n.kx, 9), round(n.ky, 9)): n for n in nodes}
    pi_node = at[(round(math.pi, 9), round(math.pi, 9))]
    assert pi_node.branch_count == 4
    corner = at[(0.0, 0.0)]
    assert corner.branch_count == 2
    multi = [n for n in nodes if n.branch_count > 2]
    assert multi
    # the cone lives around (pi, pi)
    for n in multi:
        assert abs(n.kx - math.pi) < 1.0 and abs(n.ky - math.pi) < 1.0


def test_band_surface_tube_region():
    # u=1.2, U=3: cones near polar points and a tube along the dz=0 contour
    params = ModelParams(u=1.2, U=3.0)
    nodes = surface_nodes(params, 41)
    multi = [n for n in nodes if n.branch_count > 2]
    assert multi
    near_polar = [
        n
        for n in multi
        if min(abs(n.kx - math.pi), abs(n.kx), abs(n.kx - TWO_PI)) < 0.8
        and min(abs(n.ky - math.pi), abs(n.ky), abs(n.ky - TWO_PI)) < 0.8
    ]
    on_contour = [
        n
        for n in multi
        if abs(params.u + math.cos(n.kx) + math.cos(n.ky)) < 0.35
    ]
    assert near_polar and on_contour


@pytest.mark.parametrize("u, U, n", [(3.0, 5.0, 81), (1.2, 3.0, 41), (1.0, 4.0, 41), (3.0, 0.0, 15)])
def test_band_surface_nodes_equal_physical_spectrum(u, U, n):
    params = ModelParams(u=u, U=U)
    nodes = surface_nodes(params, n)
    assert len(nodes) == n * n
    for node in nodes:
        assert list(node.pairs) == physical_spectrum(params, KPoint(node.kx, node.ky))


def test_band_surface_solves_each_distinct_quartic_once(monkeypatch):
    # the README bands grid: its 6,552 generic nodes have 2,888 distinct
    # (dz, sqrt(s)), each solved once, all in one call
    calls = []

    def spy(B, D):
        calls.append((B, D))
        return solve_quartic(B, D)

    monkeypatch.setattr("nlchern.spectrum.solve_quartic", spy)
    band_surface(ModelParams(u=3.0, U=5.0), 81)
    ((B, D),) = calls
    assert len(B) == len(D) == 2888


def test_band_surface_invariants_on_every_node():
    # the README bands grid: at least two branches, residuals at round-off
    params = ModelParams(u=3.0, U=5.0)
    for node in surface_nodes(params, 81):
        assert node.branch_count >= 2
        k = KPoint(node.kx, node.ky)
        bound = 1e-9 * max(1.0, params.U, bloch_vector(params, k).magnitude)
        assert max(eigenpair_residual(params, k, q) for q in node.pairs) <= bound


# ---------------------------------------------------------------------------
# Poincare-Hopf index sum of the stationary states
# ---------------------------------------------------------------------------

def index_sum_checked(spectra, U):
    """Assert that each row of ``spectra`` has extrema minus saddles = 2; returns the rows checked.

    The stationary states are the critical points of the spin energy on the
    sphere, and by Poincare-Hopf their indices sum to its Euler characteristic
    2 wherever they are isolated and nondegenerate.  An extremum has
    omega^2 > 0, a saddle omega^2 < 0.  Skipped are the rows where that need
    not hold: a state of multiplicity 2 (the polar ring at epsilon = U/2), or
    a state with |omega^2| <= 1e-9 max(1, U) (a fold, or a cone or tube onset).
    """
    w2 = omega_squared(spectra.epsilon, spectra.kappa, U)
    n = len(spectra.offsets) - 1
    row = np.repeat(np.arange(n), np.diff(spectra.offsets))
    degenerate = (spectra.multiplicity > 1) | (np.abs(w2) <= 1e-9 * max(1.0, U))
    checked = np.bincount(row, degenerate, minlength=n) == 0
    index = np.bincount(row, np.sign(w2), minlength=n)
    assert (index[checked] == 2).all(), spectra.pairs()[np.flatnonzero(checked & (index != 2))[0]]
    return int(checked.sum())


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(st.one_of(st.tuples(st.floats(-3.5, 3.5), st.floats(0.0, 7.0), ANGLE, ANGLE), polar_points(), contour_points()))
def test_index_sum_is_two(point):
    u, U, kx, ky = point
    d = bloch_vector(ModelParams(u=u, U=U), KPoint(kx, ky))
    index_sum_checked(nonlinear_spectra([(d.dx, d.dy, d.dz)], U), U)


def test_index_sum_is_two_on_readme_band_surface():
    # only (pi, pi) is skipped, where U = 5 > 2 |dz| = 2 opens the polar ring
    assert index_sum_checked(band_surface(ModelParams(u=3.0, U=5.0), 81)[2], 5.0) == 81 * 81 - 1


def test_spectrum_health_counts_and_margins():
    params, n = ModelParams(u=1.0, U=4.0), 41
    health = SpectrumHealth()
    nodes = surface_nodes(params, n, health)
    assert nodes == surface_nodes(params, n)
    assert sum(health.paths.values()) == n * n
    assert health.paths["polar"] == 9 and health.paths["contour"] > 0
    # four theta-roots per generic node, one state from each root kept
    ds = [bloch_vector(params, KPoint(node.kx, node.ky)) for node in nodes]
    generic = [node for node, d in zip(nodes, ds) if _path(d.dz, d.planar_sq, params.U) == "generic"]
    kept = sum(len(node.pairs) for node in generic)
    assert health.paths["generic"] == len(generic)
    assert health.roots_discarded == 4 * len(generic) - kept
    assert 0.0 <= health.max_kept_root_margin <= 1e-6 < health.min_discarded_root_margin
    assert 0.0 < health.max_residual <= 1e-12


def test_spectrum_health_residual_matches_eigenpair_residual():
    # states shifted off their energies by 0.1 have residual 0.1: the health
    # residual must read what eigenpair_residual reads
    params = ModelParams(u=1.0, U=4.0)
    ks = [KPoint(0.3, 0.7), KPoint(0.0, math.pi), KPoint(math.pi / 2, 0.3)]
    d = as_rows([bloch_vector(params, k) for k in ks])
    spectra = nonlinear_spectra(d, params.U)
    shift = np.concatenate([0.1 * (np.arange(n) + 1) for n in np.diff(spectra.offsets)])
    spectra = dataclasses.replace(spectra, epsilon=spectra.epsilon + shift)
    residual = _max_residual(*d.T, params.U, spectra)
    expect = max(eigenpair_residual(params, k, q) for k, pairs in zip(ks, spectra.pairs()) for q in pairs)
    assert residual == pytest.approx(expect, abs=1e-12)

def test_health_residual_takes_libm_hypot_whatever_np_hypot_gives(monkeypatch):
    # np.hypot only picks the states with the largest residual norms; their norms are
    # math.hypot of abs of the complex residual rows, as in the scalar loop.  With np.hypot
    # one ulp high on every input, health.max_residual is still the scalar loop's
    rng = np.random.default_rng(17)
    U = 2.5
    ds = [BlochVector(*v) for v in rng.uniform(-3.0, 3.0, (200, 3)).tolist()]
    ref = [_spectrum(d.dx, d.dy, d.dz, U) for d in ds]
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda x, y: np.nextafter(hypot(x, y), np.inf))
    health = SpectrumHealth()
    nonlinear_spectra(as_rows(ds), U, health)
    assert health.max_residual == scalar_max_residual(ds, U, ref) > 0.0


def test_spectrum_health_linear_limit_has_no_discarded_roots():
    # at U = 0 the half-angle quartic is (t^2 + 1) times a quadratic with both roots
    # real: no real root is discarded, only the pair t = +-i (a = 0, b = 1), of margin
    # 2 b / (1 + a^2) = 2
    health = SpectrumHealth()
    band_surface(ModelParams(u=3.0, U=0.0), 15, health)
    assert health.roots_discarded == 2 * 216 and health.min_discarded_root_margin == 2.0
    assert health.paths == {"polar": 9, "contour": 0, "generic": 216}
