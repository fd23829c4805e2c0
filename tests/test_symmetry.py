"""Exact symmetries of the model, as checks of the spectrum that need no oracle.

- u -> -u with k -> k + (pi, pi): d(-u, k + (pi, pi)) = -d(u, k), and the spin
  energy d.S + (U/4) S_z^2 is unchanged under (d, S) -> (-d, -S).  So the states
  at (-u, k + (pi, pi)) are those at (u, k): the same epsilon, kappa -> -kappa.
- k_x <-> k_y swaps dx and dy, a reflection in their plane: the same states.
- The map S -> -S reverses the Berry flux of the followed state, so an adiabatic
  sweep pumps nu(-u) = -nu(u); where the sweep breaks down nothing ties the two.

In floating point sin(k + pi) is -sin(k) only to an ulp, and u + cos kx + cos ky
depends on the order of its sum.  So at a k point the images agree to round-off
of d, which the states amplify where they are ill-conditioned: next to a critical
strength, and most where two states meet (the III locus), to the square root of
round-off.  The degenerate sets are therefore also checked on the Bloch vectors
themselves, where -d and (dy, dx, dz) are exact.  The bounds are scaled by
max(1, U, |d|) and come from a measurement of 3,000 points per set (CHANGES.md).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlchern.model import KPoint, ModelParams, bloch_vector
from nlchern.response import phase_diagram, pumped_charge
from nlchern.spectrum import (
    DegeneracyKind,
    band_surface,
    classify_degeneracies,
    nonlinear_spectra,
    physical_spectrum,
)

TWO_PI = 2.0 * math.pi
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)
ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)

# |d epsilon| and |d kappa| over max(1, U, |d|): the largest measured were 2.5e-15
# and 1.3e-12 (kappa of a tube pair 1e-6 above its onset), and 9.1e-9 and 4.3e-8
# where two states meet, on the III locus; MEET is how close two energies of one
# spectrum are, over the same scale, for the second bound to apply
BOUND = {"epsilon": 1e-14, "kappa": 1e-11}
III_BOUND = {"epsilon": 1e-7, "kappa": 1e-7}
MEET = 1e-6


def near(critical):
    """U off a critical strength by 1e-6 to 1e-2 relative, either way, or anywhere in [0, 6]."""
    off = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, -2.0))
    return st.one_of(off.map(lambda a: critical * (1.0 + a[0] * 10.0 ** a[1])), st.floats(0.0, 6.0))


@st.composite
def random_points(draw):
    return draw(st.floats(-3.5, 3.5)), draw(st.floats(0.0, 7.0)), draw(ANGLE), draw(ANGLE)


@st.composite
def polar_points(draw):
    # (0, 0) and (pi, pi), whose images have dz = -(u + 2) and u + 2 to the bit, so
    # U may sit at the critical strength 2 |dz| exactly; the transpose is the identity
    k, u = draw(st.sampled_from([0.0, math.pi])), draw(st.floats(-3.0, 3.0))
    critical = 2.0 * abs(u + math.cos(k) + math.cos(k))
    return u, draw(st.one_of(st.just(critical), near(critical))), k, k


@st.composite
def any_polar_points(draw):
    # the four polar momenta, U anywhere next to or at 2 |dz|
    kx, ky = draw(st.sampled_from([0.0, math.pi])), draw(st.sampled_from([0.0, math.pi]))
    u = draw(st.floats(-3.0, 3.0))
    critical = 2.0 * abs(u + math.cos(kx) + math.cos(ky))
    return u, draw(st.one_of(st.just(critical), near(critical))), kx, ky


@st.composite
def contour_points(draw):
    # cos ky = c and u = -c - cos kx put k on dz = 0 up to round-off
    kx, c = draw(ANGLE), draw(st.floats(-1.0, 1.0))
    ky = math.acos(c) if draw(st.booleans()) else TWO_PI - math.acos(c)
    return -c - math.cos(kx), draw(near(2.0 * math.hypot(math.sin(kx), math.sin(ky)))), kx, ky


@st.composite
def iii_points(draw):
    # dz = +-{U^(2/3) - (4 s)^(1/3)}^(3/2) / 2, at least 1e-6 above U = 2 sqrt(s), where dz = 0
    kx, ky = draw(ANGLE), draw(ANGLE)
    s = math.sin(kx) ** 2 + math.sin(ky) ** 2
    U = 2.0 * math.sqrt(s) + draw(st.floats(1e-6, 6.0))
    dz = draw(st.sampled_from([1.0, -1.0])) * 0.5 * (U ** (2.0 / 3.0) - (4.0 * s) ** (1.0 / 3.0)) ** 1.5
    return dz - math.cos(kx) - math.cos(ky), U, kx, ky


def assert_same_states(a, b, scale, flip=1.0):
    """The same multiplicities, and the sorted energies and sorted kappas (of ``b`` times
    ``flip``) within the bound times ``scale``: ``III_BOUND`` where two energies of ``a``
    meet, ``BOUND`` elsewhere."""
    assert sorted(p.multiplicity for p in a) == sorted(p.multiplicity for p in b), (a, b)
    x = sorted(p.epsilon for p in a)
    bound = III_BOUND if min(np.diff(x), default=math.inf) <= MEET * scale else BOUND
    for name, sign in (("epsilon", 1.0), ("kappa", flip)):
        x = sorted(getattr(p, name) for p in a)
        y = sorted(sign * getattr(p, name) for p in b)
        assert max(abs(np.subtract(x, y))) <= bound[name] * scale, (name, a, b)


@PROPERTY
@given(st.one_of(random_points(), polar_points()))
def test_physical_spectrum_symmetries(point):
    u, U, kx, ky = point
    params, k = ModelParams(u=u, U=U), KPoint(kx, ky)
    scale = max(1.0, U, bloch_vector(params, k).magnitude)
    states = physical_spectrum(params, k)
    flipped = physical_spectrum(ModelParams(u=-u, U=U), KPoint(kx + math.pi, ky + math.pi))
    assert_same_states(states, flipped, scale, -1.0)
    assert_same_states(states, physical_spectrum(params, KPoint(ky, kx)), scale)


def vectors_of(points):
    """The Bloch vectors of (u, U, kx, ky) points, as (dx, dy, dz) rows and as ``BlochVector``s."""
    vectors = [bloch_vector(ModelParams(u=u), KPoint(kx, ky)) for u, _, kx, ky in points]
    return np.array([(v.dx, v.dy, v.dz) for v in vectors]).reshape(-1, 3), vectors


@PROPERTY
@given(st.one_of(random_points(), any_polar_points(), contour_points(), iii_points()))
def test_nonlinear_spectra_symmetries(point):
    # the point's d against -d (u -> -u, k -> k + (pi, pi) without the round-off of
    # k + pi) and against (dy, dx, dz), whose (dz, sqrt(s)) is the same to the bit:
    # the same energies and kappas exactly
    U = point[1]
    d, (v,) = vectors_of([point])
    (states,) = nonlinear_spectra(d, U).pairs()
    assert_same_states(states, nonlinear_spectra(-d, U).pairs()[0], max(1.0, U, v.magnitude), -1.0)
    (swapped,) = nonlinear_spectra(d[:, [1, 0, 2]], U).pairs()
    assert [(p.epsilon, p.kappa, p.multiplicity) for p in states] == [
        (p.epsilon, p.kappa, p.multiplicity) for p in swapped
    ]


@pytest.mark.parametrize("u, U", [(3.0, 5.0), (1.2, 3.0), (0.5, 2.5), (-1.0, 4.0), (1.0, 0.0)])
def test_band_surface_symmetries(u, U):
    # on the inclusive 41 x 41 grid, k + pi is 20 nodes on (node 40 is node 0), and
    # the transpose swaps the node indices
    n, half = 41, 20
    kx, ky, spectra = band_surface(ModelParams(u=u, U=U), n)
    flipped = band_surface(ModelParams(u=-u, U=U), n)[2].pairs()
    rows = spectra.pairs()
    for index, states in enumerate(rows):
        i, j = divmod(index, n)
        scale = max(1.0, U, bloch_vector(ModelParams(u=u, U=U), KPoint(kx[index], ky[index])).magnitude)
        image = (i % (n - 1) + half) % (n - 1) * n + (j % (n - 1) + half) % (n - 1)
        assert_same_states(states, flipped[image], scale, -1.0)
        assert_same_states(states, rows[j * n + i], scale)


@pytest.mark.parametrize("u, U, n", [(1.2, 3.0, 64), (0.5, 2.5, 64), (3.0, 5.0, 32), (-2.5, 6.0, 64)])
def test_classify_degeneracies_maps_onto_its_images(u, U, n):
    # under u -> -u every point moves by (pi, pi) with its kind, energy and critical
    # strength; the I and III sets are also their own transposes (the II points are
    # sampled per k_x column, so their transposes are not in the set).  Not at u = -1,
    # where the III locus touches grid nodes and round-off decides whether a point
    # there is a column crossing, a row crossing or both
    def distance(a, b):
        return max(min(abs(x - y) % TWO_PI, TWO_PI - abs(x - y) % TWO_PI) for x, y in zip(a, b))

    def image(p, others, k):
        """The point of ``others`` of p's kind nearest to k, at most 1e-9 away in the zone."""
        q = min((q for q in others if q.kind is p.kind), key=lambda q: distance((q.k.kx, q.k.ky), k))
        assert distance((q.k.kx, q.k.ky), k) <= 1e-9, (p, q)
        return q

    points = classify_degeneracies(ModelParams(u=u, U=U), n)
    flipped = classify_degeneracies(ModelParams(u=-u, U=U), n)
    kinds = [p.kind for p in points]
    assert sorted(kinds) == sorted(p.kind for p in flipped)
    assert set(kinds) >= {DegeneracyKind.I, DegeneracyKind.III}
    for p in points:
        q = image(p, flipped, (p.k.kx + math.pi, p.k.ky + math.pi))
        assert q.epsilon == pytest.approx(p.epsilon, abs=1e-12 * max(1.0, U))
        assert (q.critical_U is None) == (p.critical_U is None)
        assert q.critical_U is None or q.critical_U == pytest.approx(p.critical_U, abs=1e-12 * max(1.0, U))
        if p.kind is not DegeneracyKind.II:
            image(p, points, (p.k.ky, p.k.kx))


@pytest.mark.parametrize("band", ["ground", "excited"])
def test_phase_diagram_labels_are_symmetric_in_u(band):
    # grids of step 1/4, on which -u is a grid value to the bit
    diagram = phase_diagram((-4.0, 4.0), (0.0, 6.0), band, 33)
    assert diagram.u_values == tuple(-u for u in reversed(diagram.u_values))
    assert diagram.labels == tuple(reversed(diagram.labels))
    assert {label for row in diagram.labels for label in row} == {"A", "nA"}


# |nu(u) + nu(-u)| from pumped_charge, n_kx = 8, dt = 0.01: at the A cell (1, 0.5)
# it measured 6.3e-4 and 2.4e-3 (ground, excited) at F = 0.05, 1.6e-3 and 1.3e-3 at
# F = 0.025, 2.1e-4 and 5.7e-4 at F = 0.0125; at F = 0.05 the nA cell (1, 3) read
# 7.4e-2 and 2.9e-2, and the breaking cell (0.5, 2.5) 1.13 (ground)
WITNESS_BOUND = 5e-3


@pytest.mark.parametrize(
    "u, U, band, broken",
    [(1.0, 0.5, "ground", False), (1.0, 0.5, "excited", False), (1.0, 3.0, "ground", True), (1.0, 3.0, "excited", True)],
)
def test_pumped_charge_is_odd_in_u_where_the_sweep_is_adiabatic(u, U, band, broken):
    nu = [pumped_charge(ModelParams(s * u, U), band, 0.05, 8, 0.01).nu for s in (1.0, -1.0)]
    assert (abs(sum(nu)) > WITNESS_BOUND) == broken, nu
