"""Self-consistent nonlinear Bloch spectrum.

Stationary states of H(k, psi) psi = eps * psi with the Kerr diagonal are
parametrized by the population imbalance kappa = |c1|^2 - |c2|^2, which
obeys (eps - U) * kappa = dz.  Eliminating kappa turns the eigenproblem
into a monic quartic in eps, with s = dx^2 + dy^2,

    f(eps) = (eps-U)^2 (eps-U/2)^2 - dz^2 (eps-U/2)^2 - s (eps-U)^2,

whose real roots are kept only when they correspond to a normalizable
state (|kappa| <= 1).  ``nonlinear_spectra`` solves a list of Bloch
vectors at one U, each by one of three paths:

  polar   (s = 0):  f = (eps-U/2)^2 [(eps-U)^2 - dz^2], so eps = U +- dz, and
                    for U > 2|dz| the two-fold eps = U/2 (I-type cone onset);
  contour (dz = 0): f = (eps-U)^2 [(eps-U/2)^2 - s], so eps = U/2 +- sqrt(s),
                    and for U > 2 sqrt(s) the pair eps = U (II-type tube onset);
  generic:          the states with kappa = cos(theta) for the real roots
                    theta of dz sin(theta) + (U/4) sin(2 theta) - sqrt(s) cos(theta),
                    which stay apart next to both sets above, where the
                    roots of f crowd into double roots at U/2 and U.  With
                    t = tan((theta - phi) / 2) this is a real quartic in t,
                    phi = 0 or -pi/2 chosen so that its leading coefficient
                    is max(sqrt(s), |dz|), never zero, at any U down to 0.
                    Made monic it is t^4 + B t^3 + D t - 1, solved in closed
                    form by ``solve_quartic``, each distinct (dz, sqrt(s)) once.
                    Each real root t gives theta = phi + 2 atan(t).

``nonlinear_spectra`` is the array core: it returns the states of all its
vectors as flat numpy arrays with an offset per vector (``Spectra``), and
``band_surface`` calls it once for its whole grid.  It assembles that result
in one place: every state is tagged with its vector's row, the generic rows'
states and the polar and contour rows' states (from ``_spectrum``) are
concatenated, and one stable sort of the tags puts them in row order, each
row's states still in their (epsilon, kappa) order.  ``NonlinearEigenpair``
objects are built only at the API edge: ``physical_spectrum`` solves one k
on Python scalars (``_spectrum``), faster for one vector, and
``Spectra.pairs`` turns rows into pair lists; every row of the array core
equals ``_spectrum`` to the bit.

The III-type degeneracies, eps = U/2 + (4 U s)^(1/3) / 2 on the locus
dz = +-{U^(2/3) - (4 s)^(1/3)}^(3/2) / 2, mark the fold edges of the
cone/tube structures; ``classify_degeneracies`` finds them on each grid
column as the roots of one quartic.

The generic path's half-angle quartic has one root solve, ``solve_quartic``:
the resolvent cubic's root splits it into two real quadratics.  The scalar path
calls it on Python floats for its one d (``_angles``); the array core calls it
once, on arrays of B and D, for all its distinct (dz, sqrt(s)) (``_key_angles``).
The array body repeats the scalar body's operations in their order: numpy's
+, -, *, /, sqrt, abs, copysign, minimum and maximum, which round correctly and
so give Python's bits, and every other function (cbrt, acos, cos, hypot, atan)
from ``math`` through ``map`` (``_libm``), as numpy's own need not equal libm.
So the two paths agree to the bit by construction.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .model import (
    TWO_PI,
    BlochVector,
    KPoint,
    ModelParams,
    Spinor,
    _bloch_parts,
    bloch_vector,
)

# sqrt(dx^2 + dy^2) or |dz| at most this times max(1, U, |d|) is zero to
# round-off: sin(pi) leaves 1.2e-16 at the polar momenta, and dz computed
# on the dz = 0 contour leaves a few 1e-16.
_ROUNDOFF_REL = 1e-15

# A root t of the generic-path quartic, mapped to z = e^{i phi} (1 + i t) /
# (1 - i t), is a real angle when | |z| - 1 | is at most this.  A real t
# maps to the unit circle, and round-off can turn a double root in t (a fold
# or a critical strength) into a conjugate pair ~1e-8 off the real axis,
# which maps ~1e-8 off the circle; a state built from a root 1e-6 off the
# circle has a residual of order 1e-12.
_ON_CIRCLE_TOL = 1e-6

# A root of a real polynomial is real when |Im| is at most this, and roots
# closer than this are one tangential root: np.roots splits a double root
# into two ~1e-8 apart, real or conjugate.  So are III points in k.
_ROOT_TOL = 1e-6

# ``solve_quartic`` takes any half-angle quartic with max(|B|, |D|) up to this, beyond it
# only those near the generic path's |B + D| <= 4 (``_in_domain``)
_QUARTIC_BOUND = 1e16


def _poly_roots(polys) -> list[list]:
    """``np.roots`` of each finite polynomial in ``polys``, to the bit, in one eigenvalue call per degree.

    As ``np.roots`` does, leading zeros are dropped, and trailing zeros are dropped
    and each gives a root 0.0 after the others; the companion of the rest, with
    first row -p[1:] / p[0] and ones below the diagonal, is built for every
    polynomial, and those of one size are stacked into one ``eigvals`` call, which
    solves each as its own call would.
    """
    if not all(map(math.isfinite, chain.from_iterable(polys))):
        raise ValueError("u or U is too large: the fold-point polynomial overflows float64")
    roots, by_size = [], {}
    for i, p in enumerate(polys):
        nonzero = [j for j, x in enumerate(p) if x]
        roots.append([0.0] * (len(p) - 1 - nonzero[-1]) if nonzero else [])
        if nonzero:
            by_size.setdefault(nonzero[-1] + 1 - nonzero[0], []).append((i, p[nonzero[0] : nonzero[-1] + 1]))
    for n, group in by_size.items():
        if n > 1:
            rows, p = zip(*group)
            p = np.array(p, dtype=float)
            companion = np.zeros((len(p), n - 1, n - 1))
            companion[:, 1:, :-1] = np.eye(n - 2)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            for i, z in zip(rows, np.linalg.eigvals(companion).tolist()):
                roots[i][:0] = z
    return roots


def _real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of the finite polynomial ``coeffs``, a near-double root once."""
    return _window(_poly_roots([coeffs])[0], lo, hi)


def _window(roots, lo: float, hi: float) -> list[float]:
    """The real ones of ``roots`` in [lo, hi], a near-double root once.

    They are filtered, sorted and clustered as Python floats, which costs less
    than numpy calls on lists this small.  Neighbours at most ``_ROOT_TOL`` apart
    are one root, their ``np.mean``.  A lone root is itself plus 0.0, its
    ``np.mean`` too: numpy's sum starts from +0.0, so -0.0 gives 0.0.
    """
    roots = sorted(z.real for z in roots if abs(z.imag) <= _ROOT_TOL and lo <= z.real <= hi)
    clusters = []
    for x in roots:
        if clusters and x - clusters[-1][-1] <= _ROOT_TOL:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [c[0] + 0.0 if len(c) == 1 else float(np.mean(c)) for c in clusters]


class DegeneracyKind(str, enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True, slots=True)
class NonlinearEigenpair:
    """One self-consistent stationary solution at fixed k."""

    epsilon: float
    kappa: float
    state: Spinor
    multiplicity: int = 1


@dataclass(frozen=True, slots=True)
class DegeneratePoint:
    kind: DegeneracyKind
    k: KPoint
    epsilon: float
    critical_U: float | None = None


def _pair(theta: float, d: BlochVector, U: float) -> NonlinearEigenpair:
    """The state with Bloch vector (sin(theta) (dx, dy) / sqrt(s), cos(theta)).

    That is (e^{-i phi} cos(theta/2), sin(theta/2)) with e^{i phi} = (dx + i dy)
    / sqrt(s), the phase convention of the eigenvector ((dx - i dy), lam - h).
    At a real root theta of G (``_angles``) it is stationary with kappa =
    cos(theta) and eps = U/2 + sqrt(s) sin(theta) + h kappa, h = dz + U kappa / 2.
    """
    r = math.sqrt(d.planar_sq)
    eps, kappa = _theta_energy(theta, d.dz, r, U, math)
    c1 = complex(*_c1_parts(d.dx, d.dy, r, math.cos(0.5 * theta)))
    return NonlinearEigenpair(eps, kappa, Spinor(c1, complex(math.sin(0.5 * theta))))


def _theta_energy(theta, dz, r, U, m):
    """(eps, kappa) of the state of ``_pair`` at a root theta of (dz, sqrt(s)) = (dz, r), by ``m``'s
    sin and cos, elementwise: ``m`` is ``math`` on Python floats and ``np`` on numpy arrays."""
    kappa = m.cos(theta)
    return 0.5 * U + r * m.sin(theta) + (dz + 0.5 * U * kappa) * kappa, kappa


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as CPython multiplies complex numbers, on floats."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(re, im, r):
    """(re + i im) / r, r > 0, on floats or arrays as CPython up to 3.13 divides: Smith's way."""
    return (re + im * 0.0) / r, (im - re * 0.0) / r


def _c1_parts(dx, dy, r, cos_half):
    """Real and imaginary part of c1 = (dx - i dy) / r * cos(theta / 2), on floats or arrays.

    The operations of ``complex(dx, -dy) / r * cos_half`` in CPython up to 3.13:
    ``_cdiv``, then a product with the complex (cos_half, 0.0).  The scalar path
    and the array core both take this formula, so they agree to the bit, -0.0
    parts too, on any interpreter: CPython 3.14 mixes floats into complex
    arithmetic by C99's rules, which sign zero parts otherwise.
    """
    return _cmul(*_cdiv(dx, -dy, r), cos_half, 0.0)


def _polar_pairs(dz: float, U: float) -> list[NonlinearEigenpair]:
    """dx = dy = 0, where f = (eps - U/2)^2 [(eps - U)^2 - dz^2]."""
    pairs = [
        NonlinearEigenpair(U + dz, 1.0, Spinor(1.0 + 0.0j, 0.0j)),
        NonlinearEigenpair(U - dz, -1.0, Spinor(0.0j, 1.0 + 0.0j)),
    ]
    if U > 2.0 * abs(dz):
        # population-split pair at eps = U/2; its free relative phase is
        # fixed to zero.  At U = 2|dz| it is the polarized state at U - |dz|
        # and is not emitted twice.
        kappa = -2.0 * dz / U
        c1, c2 = math.sqrt(0.5 * (1.0 + kappa)), math.sqrt(0.5 * (1.0 - kappa))
        pairs.append(NonlinearEigenpair(0.5 * U, kappa, Spinor(complex(c1), complex(c2)), 2))
    return pairs


def _contour_pairs(d: BlochVector, U: float) -> list[NonlinearEigenpair]:
    """dz = 0, where f = (eps - U)^2 [(eps - U/2)^2 - s].

    kappa = 0 (theta = +-pi/2) gives eps = U/2 +- sqrt(s).  For U > 2 sqrt(s)
    the pair sin theta = 2 sqrt(s) / U, kappa = +-sqrt(U^2 - 4 s) / U gives
    eps = U; at U = 2 sqrt(s) it is the kappa = 0 state and is not emitted twice.
    """
    r = math.sqrt(d.planar_sq)
    thetas = [-0.5 * math.pi, 0.5 * math.pi]
    if U > 2.0 * r:
        kappa_u = math.sqrt((U - 2.0 * r) * (U + 2.0 * r))
        thetas += [math.atan2(2.0 * r, kappa_u), math.atan2(2.0 * r, -kappa_u)]
    return [_pair(theta, d, U) for theta in thetas]


def _path(d: BlochVector, U: float) -> str:
    """"polar" (dx = dy = 0), "contour" (dz = 0) or "generic", each to round-off."""
    zero = _ROUNDOFF_REL * max(1.0, U, d.magnitude)
    if d.planar_sq <= zero * zero:
        return "polar"
    if abs(d.dz) <= zero:
        return "contour"
    return "generic"


def solve_quartic(coeffs) -> list:
    """The four roots of the half-angle quartic ``coeffs`` = [1, B, 0, D, -1], in closed form.

    t^4 + B t^3 + D t - 1 = (t^2 + p t + q)(t^2 + r t - 1/q), where w = q - 1/q is a real
    root of the resolvent cubic w^3 + (4 + B D) w + (B^2 - D^2) = 0: the one of largest
    magnitude, which is simple wherever two roots of the quartic meet, and puts them in
    t^2 + p t + q.  The cubic is formed from B and D divided by S = max(1, |B|, |D|), so
    that B D and B^2 - D^2 do not overflow.  t^2 + r t - 1/q always has two real roots, of
    opposite sign; t^2 + p t + q has two where p^2 >= 4 q (its discriminant changes sign
    on the fold locus) and a conjugate pair elsewhere.  Each quadratic is solved by the
    stable formula.  A Newton step on the quartic after it changed no state residual on
    the README grid and cost a tenth of the array core's time, so none is taken.

    Returns the roots of t^2 + p t + q, then those of t^2 + r t - 1/q, the real ones as
    floats, on Python floats and ``math`` only.  B and D may instead be float arrays, one
    quartic per entry: ``_solve_quartics`` then solves them all by the same operations in
    the same order, so each equals its scalar solve to the bit.

    Raises ValueError outside ``_in_domain``: max(|B|, |D|) above 1e16, unless the quartic
    lies near the line |B + D| <= 4 and max(|B|, |D|) is at most 1e306.  Within |B|, |D| <=
    1e16 a root is off by at most about 4e-16 S max(1, |t|), a tenth of LAPACK's error on
    the companion; near that line, where every generic-path quartic lies (B + D is 4 dz /
    sqrt(s) or -4 sqrt(s) / dz) and |B|, |D| stay below 1.5e15, at round-off at any size.
    Elsewhere beyond 1e16 the solve cancels or underflows: B = -1.3e177, D = 3.0e59 gave
    two positive roots of t^2 + r t - 1/q.
    """
    one, B, zero, D, minus_one = coeffs
    if one != 1.0 or zero or minus_one != -1.0:
        raise ValueError("expected a monic half-angle quartic [1, B, 0, D, -1]")
    if type(B) is np.ndarray:
        return _solve_quartics(B, D)
    S = max(1.0, abs(B), abs(D))
    if S > _QUARTIC_BOUND and not _in_domain(B, D, S):
        raise ValueError("half-angle quartic outside the domain of its closed-form solve")
    b, d = B / S, D / S
    h, c = 0.5 * (b - d) * (b + d) / S, (4.0 / S / S + b * d) / 3.0  # v = w / S: v^3 + 3 c v + 2 h = 0
    if (disc := h * h + c * c * c) < 0.0:  # three real roots
        m = math.sqrt(-c)
        v = -math.copysign(2.0 * m * math.cos(math.acos(min(1.0, abs(h) / (m * m * m))) / 3.0), h)
    else:  # one, by Cardano's formula as -2h / (a^2 + c + (c/a)^2), in which nothing cancels
        a = math.cbrt(abs(h) + math.sqrt(disc))
        v = -2.0 * h / (a * a + c + (c / a) * (c / a)) if a else 0.0
    w = S * v
    m = math.hypot(w, 2.0)  # q + 1/q
    q, qi = (0.5 * (w + m), 2.0 / (w + m)) if w >= 0.0 else (2.0 / (m - w), 0.5 * (m - w))
    B2, D2 = 0.5 * B / m, 0.5 * D / m
    e, f = B2 * q - D2, D2 + B2 * qi  # p / 2 and r / 2
    sq, ae = math.sqrt(q), abs(e)
    gap = math.sqrt(abs(ae - sq)) * math.sqrt(ae + sq)  # |p^2 - 4 q|^(1/2) / 2
    if ae >= sq:  # the root of larger size first, the other as q over it: no cancellation
        t = -e - math.copysign(gap, e)
        roots = [t, q / t]
    else:
        roots = [complex(-e, gap), complex(-e, -gap)]
    t = -f - math.copysign(math.hypot(f, math.sqrt(qi)), f)
    return roots + [t, -qi / t]


def _in_domain(B: float, D: float, S: float) -> bool:
    """Whether [1, B, 0, D, -1], S = max(1, |B|, |D|), lies in ``solve_quartic``'s domain."""
    return S <= _QUARTIC_BOUND or (S <= 1e306 and abs(B + D) <= 4.0 + 1e-15 * S)


def _libm(f, *xs) -> np.ndarray:
    """``f`` from ``math`` of each entry of the float arrays ``xs``: libm's bits, which numpy's
    own cbrt, arccos, arctan and hypot do not give on every host."""
    return np.fromiter(map(f, *(x.tolist() for x in xs)), float, len(xs[0]))


def _solve_quartics(B, D) -> np.ndarray:
    """``solve_quartic`` of the quartics [1, B[i], 0, D[i], -1], i < n, as a (4, n) complex array.

    Row j holds the j-th root of each quartic; a real root has imaginary part 0.0, and
    the conjugate pair of t^2 + p t + q a nonzero one.  Each step is the scalar solve's
    in its order: numpy's +, -, *, /, sqrt, abs, copysign, minimum and maximum, which
    round correctly and so give its bits, and libm's cbrt, acos, cos and hypot through
    ``_libm``.  The trig and Cardano branches, Cardano's a = 0 and the real or
    conjugate pair run on the quartics that take them only, so an untaken branch
    raises no floating-point warning; q and 1/q are taken from w + m or m - w, both
    at least 2, by the sign of w.
    """
    S = np.maximum(np.maximum(1.0, np.abs(B)), np.abs(D))
    far = S > _QUARTIC_BOUND
    if far.any() and not all(map(_in_domain, B[far].tolist(), D[far].tolist(), S[far].tolist())):
        raise ValueError("half-angle quartic outside the domain of its closed-form solve")
    b, d = B / S, D / S
    h, c = 0.5 * (b - d) * (b + d) / S, (4.0 / S / S + b * d) / 3.0
    disc = h * h + c * c * c
    v = np.zeros(len(B))
    trig = disc < 0.0
    i = np.flatnonzero(trig)
    m = np.sqrt(-c[i])
    arc = _libm(math.acos, np.minimum(1.0, np.abs(h[i]) / (m * m * m))) / 3.0
    v[i] = -np.copysign(2.0 * m * _libm(math.cos, arc), h[i])
    i = np.flatnonzero(~trig)
    a = _libm(math.cbrt, np.abs(h[i]) + np.sqrt(disc[i]))
    i, a = i[a != 0.0], a[a != 0.0]
    ci = c[i]
    v[i] = -2.0 * h[i] / (a * a + ci + (ci / a) * (ci / a))
    w = S * v
    m = _libm(math.hypot, w, np.full(len(w), 2.0))
    up = w >= 0.0
    s = np.where(up, w + m, m - w)
    q, qi = np.where(up, 0.5 * s, 2.0 / s), np.where(up, 2.0 / s, 0.5 * s)
    B2, D2 = 0.5 * B / m, 0.5 * D / m
    e, f = B2 * q - D2, D2 + B2 * qi
    sq, ae = np.sqrt(q), np.abs(e)
    gap = np.sqrt(np.abs(ae - sq)) * np.sqrt(ae + sq)
    roots = np.zeros((4, len(B)), dtype=complex)
    real = ae >= sq
    i = np.flatnonzero(real)
    t = -e[i] - np.copysign(gap[i], e[i])
    roots[0, i], roots[1, i] = t, q[i] / t
    i = np.flatnonzero(~real)
    roots.real[:2, i] = -e[i]
    roots.imag[0, i], roots.imag[1, i] = gap[i], -gap[i]
    t = -f - np.copysign(_libm(math.hypot, f, np.sqrt(qi)), f)
    roots[2], roots[3] = t, -qi / t
    return roots


def _angles(dz: float, r: float, U: float) -> list[float]:
    """The theta of the states of a generic d with (dz, sqrt(s)) = (dz, r).

    G = dz sin(theta) + (U/4) sin(2 theta) - sqrt(s) cos(theta) = 0 says that the
    state of ``_pair`` is parallel to (dx, dy, dz + U kappa / 2).  The half-angle
    substitution t = tan((theta - phi) / 2) turns (1 + t^2)^2 G into a real quartic:
    about phi = 0,
        sqrt(s) t^4 + (2 dz - U) t^3 + (2 dz + U) t - sqrt(s),
    and about phi = -pi/2 where |dz| > sqrt(s),
        dz t^4 + (U - 2 sqrt(s)) t^3 - (U + 2 sqrt(s)) t - dz,
    so that the leading coefficient, max(sqrt(s), |dz|) >= |d| / sqrt(2), is never zero
    on the generic path.  Each is halved and then divided by it for ``solve_quartic``.  Its
    real roots are the real theta (theta = phi + pi is never one: G(pi) = sqrt(s) and
    G(pi/2) = dz).  Near the polar momenta and the dz = 0 contour they stay apart, where
    the roots of f crowd into double roots at U/2 or U, and at U = 0 the quartic is
    (t^2 + 1) times the quadratic of U = 0.  A root's margin is | |z| - 1 |, z = e^{i phi}
    (1 + i t) / (1 - i t): 0 for a real t, infinity at t = -i.  A root gives a state,
    theta = phi + 2 atan(Re t) wrapped into (-pi, pi], where its margin is at most
    ``_ON_CIRCLE_TOL``: a real root, or the conjugate pair into which round-off splits
    a double root at a fold.  ``_key_angles`` is this on arrays.
    """
    h, turn = 0.5 * U, r < abs(dz)
    lead, cubic, linear = (0.5 * dz, h - r, -(h + r)) if turn else (0.5 * r, dz - h, dz + h)
    roots = solve_quartic([1.0, cubic / lead, 0.0, linear / lead, -1.0])
    if type(roots[0]) is complex:
        # t = a +- i b, b > 0: | |z| - 1 | = (|1 - i t| - |1 + i t|) / |1 -+ i t|, the second the larger
        a, b = roots[0].real, roots[0].imag
        near, far = math.hypot(1.0 - b, a), math.hypot(1.0 + b, a)
        margins = ((far - near) / far, (far - near) / near if near else math.inf)
        # the second is the larger: none kept, or a double root at a fold, split by round-off
        roots = [a for m in margins if m <= _ON_CIRCLE_TOL] + roots[2:]
    if turn:  # phi = -pi/2; 2 atan(t) <= -pi/2 where t <= -1
        return [2.0 * math.atan(t) - (0.5 * math.pi if t > -1.0 else -1.5 * math.pi) for t in roots]
    return [2.0 * math.atan(t) for t in roots]


def _key_angles(dz, r, U: float):
    """``_angles`` of the keys (dz[i], r[i]) on arrays, and the margins of their roots.

    One ``solve_quartic`` call solves every key's quartic, and the margins and angles
    are the scalar formulas' steps in their order, libm's through ``_libm``, so every
    key's angles equal ``_angles``' to the bit.  Returns the angles of the kept roots,
    by key and then root, and the (n, 4) margins, 0.0 for a real root.
    """
    h, turn = 0.5 * U, r < np.abs(dz)
    lead = np.where(turn, 0.5 * dz, 0.5 * r)
    cubic, linear = np.where(turn, h - r, dz - h), np.where(turn, -(h + r), dz + h)
    roots = solve_quartic([1.0, cubic / lead, 0.0, linear / lead, -1.0])
    margins = np.zeros((len(dz), 4))
    i = np.flatnonzero(roots.imag[0])
    a, b = roots.real[0, i], roots.imag[0, i]
    near, far = _libm(math.hypot, 1.0 - b, a), _libm(math.hypot, 1.0 + b, a)
    margins[i, 0] = (far - near) / far
    margins[i, 1] = np.divide(far - near, near, out=np.full(len(i), math.inf), where=near != 0.0)
    kept = margins <= _ON_CIRCLE_TOL
    t = roots.real.T[kept]  # a conjugate pair's real part twice
    theta = 2.0 * _libm(math.atan, t)
    turned = turn[np.nonzero(kept)[0]]
    theta[turned] -= np.where(t[turned] > -1.0, 0.5 * math.pi, -1.5 * math.pi)
    return theta, margins


def _spectrum(d: BlochVector, U: float) -> list[NonlinearEigenpair]:
    """The physical states of one d, sorted by (epsilon, kappa), on Python scalars.

    The path of ``physical_spectrum``, and of ``nonlinear_spectra``'s polar and
    contour rows: for one d it is faster than the array core, which holds each of
    its rows equal to this.  A generic d's half-angle quartic is solved by
    ``solve_quartic``, once per call; the polar and contour paths solve none.
    Every path gives at least two states: a generic d has the two real roots of
    the quartic's factor t^2 + r t - 1/q.
    """
    path = _path(d, U)
    if path == "polar":
        pairs = _polar_pairs(d.dz, U)
    elif path == "contour":
        pairs = _contour_pairs(d, U)
    else:
        pairs = [_pair(theta, d, U) for theta in _angles(d.dz, math.sqrt(d.planar_sq), U)]
    pairs.sort(key=lambda p: (p.epsilon, p.kappa))
    return pairs


def _check_energies(U: float, d: float) -> None:
    """Raise ValueError unless U + d is a finite float, where d bounds |dz| + sqrt(s) of a
    call's vectors: U + |dz| + sqrt(s) bounds |epsilon| of every state."""
    if not math.isfinite(U + d):
        raise ValueError("u or U is too large: the stationary energies overflow float64")


@dataclass(frozen=True, slots=True, eq=False)
class Spectra:
    """The stationary states of many Bloch vectors, as flat arrays.

    The states of vector i are the entries ``offsets[i]:offsets[i + 1]`` of
    ``epsilon``, ``kappa``, ``c1``, ``c2`` (complex) and ``multiplicity``, sorted
    by (epsilon, kappa).
    """

    offsets: np.ndarray
    epsilon: np.ndarray
    kappa: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    multiplicity: np.ndarray

    def branch_counts(self) -> np.ndarray:
        """Stationary states of each vector, counting multiplicity (2 to 4)."""
        return np.diff(np.concatenate(([0], np.cumsum(self.multiplicity)))[self.offsets])

    def pairs(self) -> list[list[NonlinearEigenpair]]:
        """The states as ``NonlinearEigenpair`` lists, one per vector."""
        columns = (self.epsilon, self.kappa, self.c1, self.c2, self.multiplicity)
        states = [
            NonlinearEigenpair(eps, kappa, Spinor(c1, c2), m)
            for eps, kappa, c1, c2, m in zip(*(a.tolist() for a in columns))
        ]
        bounds = self.offsets.tolist()
        return [states[i:j] for i, j in zip(bounds, bounds[1:])]


def _row_residual(D, Or, Oi, U, eps, pr, pi, qr, qi):
    """``model._kerr_row(D, O, U, p, q) - eps * p`` on real and imaginary parts.

    Each operation is CPython's on complex scalars, a float operand taken as the
    complex (x, 0.0), so every part is the one Python complex arithmetic gives,
    to the bit (numpy's complex multiply rounds differently on some hosts).
    """
    ur, ui = _cmul(U, 0.0, pr, pi)
    ur, ui = _cmul(ur, ui, pr, -pi)
    wr, wi = _cmul(D + ur, 0.0 + ui, pr, pi)
    vr, vi = _cmul(Or, Oi, qr, qi)
    er, ei = _cmul(eps, 0.0, pr, pi)
    return (wr + vr) - er, (wi + vi) - ei


def _max_residual(dx, dy, dz, U: float, spectra: Spectra) -> float:
    """The largest || H(state) state - epsilon state || in ``spectra`` of the vectors (dx, dy, dz).

    ``math.hypot(abs(r1), abs(r2))`` of the two rows, as on Python scalars.  ``np.hypot``,
    which is not libm's hypot on every host, only picks the states within 1e-9 of the
    largest norm; those take abs of their complex residuals and ``math.hypot``.
    """
    counts = np.diff(spectra.offsets)
    dx, dy, dz = (np.repeat(a, counts) for a in (dx, dy, dz))
    eps, p, q = spectra.epsilon, spectra.c1, spectra.c2
    r1 = _row_residual(dz, dx, -dy, U, eps, p.real, p.imag, q.real, q.imag)
    r2 = _row_residual(-dz, dx, dy, U, eps, q.real, q.imag, p.real, p.imag)
    norm = np.hypot(np.hypot(*r1), np.hypot(*r2))
    near = norm >= norm.max(initial=0.0) * (1.0 - 1e-9)
    parts = (a[near].tolist() for a in (*r1, *r2))
    return max(
        (math.hypot(abs(complex(a, b)), abs(complex(c, d))) for a, b, c, d in zip(*parts)), default=0.0
    )


@dataclass
class SpectrumHealth:
    """Numerical health of the spectra ``nonlinear_spectra`` solved, summed over calls.

    ``paths`` counts the Bloch vectors taken by each path.  Each generic vector
    has four roots t of its half-angle quartic, each mapped to z = e^{i phi}
    (1 + i t) / (1 - i t).  A root is kept as a state when its margin | |z| - 1 |
    is at most ``_ON_CIRCLE_TOL`` and discarded otherwise.  A real root's margin
    is 0; at U = 0 two roots of every generic vector are t = +-i, z = 0 and
    infinity, discarded with margins 1 and infinity.  The largest kept and the
    smallest discarded margin are None while there is no such root.
    ``max_residual`` is the largest || H(state) state - epsilon state || of any pair.
    """

    paths: dict[str, int] = field(default_factory=lambda: {"polar": 0, "contour": 0, "generic": 0})
    roots_discarded: int = 0
    max_kept_root_margin: float | None = None
    min_discarded_root_margin: float | None = None
    max_residual: float = 0.0

    def _record_roots(self, paths: dict[str, int], margins: np.ndarray, inverse: np.ndarray) -> None:
        """Add path counts, and the margins (one row per distinct quartic) of the roots of
        the generic vectors, vector j solving quartic ``inverse[j]``."""
        for path, count in paths.items():
            self.paths[path] += count
        kept, discarded = margins <= _ON_CIRCLE_TOL, margins > _ON_CIRCLE_TOL
        self.roots_discarded += int(discarded[inverse].sum())
        if kept.any():
            self.max_kept_root_margin = max(self.max_kept_root_margin or 0.0, float(margins[kept].max()))
        if discarded.any():
            self.min_discarded_root_margin = min(
                self.min_discarded_root_margin or math.inf, float(margins[discarded].min())
            )


def nonlinear_spectra(d, U: float, health: SpectrumHealth | None = None) -> Spectra:
    """All physical stationary solutions of each raw Bloch vector at Kerr U, as flat arrays.

    ``d`` holds one vector (dx, dy, dz) per row.  Each row takes the polar, the
    contour or the generic path, chosen as ``_path`` chooses; the few polar and
    contour rows are solved by ``_spectrum``, the generic rows by
    ``_generic_states``.  Every state is tagged with its row: the generic rows'
    states, then the edge rows' states, are concatenated and put in row order by
    one stable sort of the tags, which keeps each row's states in their (epsilon,
    kappa) order.  So row i of the result is ``_spectrum`` of row i of ``d``, to
    the bit, and a grid pays no object per node.  ``health``, when given,
    accumulates the paths taken, the root margins of every generic row and the
    largest residual.  Raises ValueError when U + |dz| + sqrt(s) of a row, a bound
    on its energies, overflows float64.
    """
    dx, dy, dz = np.asarray(d, dtype=float).reshape(-1, 3).T
    spectra = _assemble(dx, dy, dz, U, health)
    if health is not None:
        # _assemble's arrays are freed by now; the residual's are the call's largest
        health.max_residual = max(health.max_residual, _max_residual(dx, dy, dz, U, spectra))
    return spectra


def _assemble(dx, dy, dz, U: float, health: SpectrumHealth | None) -> Spectra:
    """The ``Spectra`` of ``nonlinear_spectra``, its paths and root margins added to ``health``."""
    s = dx * dx + dy * dy
    _check_energies(U, float(np.abs(dz).max(initial=0.0)) + math.sqrt(s.max(initial=0.0)))
    # zero * zero is inf at a huge U or |d|, as in the scalar _path
    with np.errstate(over="ignore"):
        zero = _ROUNDOFF_REL * np.maximum(max(1.0, U), np.sqrt(s + dz * dz))
        polar = s <= zero * zero
    generic = ~(polar | (np.abs(dz) <= zero))
    rows = np.flatnonzero(generic)
    columns, margins, inverse = _generic_states(dx, dy, dz, s, rows, U)
    edge = np.flatnonzero(~generic)
    edge_states = [
        (i, p.epsilon, p.kappa, p.state.c1, p.state.c2, p.multiplicity)
        for i, x, y, z in zip(*(a.tolist() for a in (edge, dx[edge], dy[edge], dz[edge])))
        for p in _spectrum(BlochVector(x, y, z), U)
    ]
    edge_columns = list(zip(*edge_states)) or [()] * len(columns)
    tag, *columns = (np.concatenate((a, np.array(b, dtype=a.dtype))) for a, b in zip(columns, edge_columns))
    in_rows = np.argsort(tag, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(tag, minlength=len(dx)))))
    if health is not None:
        n_polar = int(polar.sum())
        paths = {"polar": n_polar, "contour": len(dx) - n_polar - len(rows), "generic": len(rows)}
        health._record_roots(paths, margins, inverse)
    return Spectra(offsets, *(a[in_rows] for a in columns))


def _generic_states(dx, dy, dz, s, rows, U: float):
    """The states of the generic-path rows ``rows`` of the vectors (dx, dy, dz), s = dx^2 + dy^2.

    A generic row's half-angle quartic, and so its energies and populations, depend
    on d only through (dz, sqrt(s)): the distinct keys are solved once each, in one
    ``_key_angles`` call, their states are formed and sorted once, and only
    c1 = (dx - i dy) / sqrt(s) cos(theta/2) takes each row's own phase, by the
    scalar path's formula (``_c1_parts``).  Returns the columns (row, epsilon,
    kappa, c1, c2, multiplicity), each row's states in (epsilon, kappa) order,
    with the root margins of each key and the key of each row.
    """
    key = np.empty(len(rows), dtype=complex)
    key.real, key.imag = dz[rows], np.sqrt(s[rows])
    keys, inverse = np.unique(key, return_inverse=True)
    theta, margins = _key_angles(keys.real, keys.imag, U)
    kept = margins <= _ON_CIRCLE_TOL
    per_key = kept.sum(axis=1)
    # the kept roots' states, formed and sorted by key, then by (epsilon, kappa), once per key
    key_of = np.nonzero(kept)[0]
    eps, kappa = _theta_energy(theta, keys.real[key_of], keys.imag[key_of], U, np)
    order = np.lexsort((kappa, eps, key_of))
    # each key's states in that order, laid in the slots of its kept roots; a
    # row takes its key's slots
    by_slot = np.empty(kept.shape, dtype=np.intp)
    by_slot[kept] = order
    src, tag = by_slot[inverse][kept[inverse]], np.repeat(rows, per_key[inverse])
    half = 0.5 * theta[src]
    c1 = np.empty(len(src), dtype=complex)
    c1.real, c1.imag = _c1_parts(dx[tag], dy[tag], np.sqrt(s[tag]), np.cos(half))
    columns = (tag, eps[src], kappa[src], c1, np.sin(half).astype(complex), np.ones(len(src), dtype=np.intp))
    return columns, margins, inverse


def physical_spectrum(params: ModelParams, k: KPoint) -> list[NonlinearEigenpair]:
    """Physical self-consistent eigenpairs at k, sorted by (epsilon, kappa); ValueError where
    u or U is so large that an energy overflows float64, as in ``nonlinear_spectra``."""
    d = bloch_vector(params, k)
    _check_energies(params.U, abs(d.dz) + 1.5)  # sqrt(s) <= sqrt(2): |dx|, |dy| <= 1
    return _spectrum(d, params.U)


def branch_count(pairs: list[NonlinearEigenpair]) -> int:
    """Number of stationary states counting multiplicity (2 to 4)."""
    return sum(p.multiplicity for p in pairs)


# ---------------------------------------------------------------------------
# degeneracy classification
# ---------------------------------------------------------------------------

def _iii_residual(d: BlochVector, U: float, sign: float) -> float | None:
    """Signed defect of the III-type locus equation; None outside its domain."""
    c = U ** (2.0 / 3.0)
    t = c - (4.0 * d.planar_sq) ** (1.0 / 3.0)
    if t < -_ROUNDOFF_REL * c:  # below zero only by round-off where the branches meet
        return None
    return d.dz - sign * 0.5 * max(t, 0.0) ** 1.5


def iii_epsilon(d: BlochVector, U: float) -> float:
    """Two-fold degenerate eigenvalue on the III locus."""
    return 0.5 * U + 0.5 * (4.0 * U * d.planar_sq) ** (1.0 / 3.0)


def _iii_column_points(u: float, U: float, grid) -> Iterator[tuple[float, float]]:
    """Crossings (kx, ky) of the III locus with the columns kx in ``grid``.

    On a column, a = u + cos(kx) and v = +-{U^(2/3) - (4 s)^(1/3)}^(1/2)
    turn dz = v^3 / 2 into cos(ky) = v^3 / 2 - a, and 4 s = (U^(2/3) - v^2)^3
    into the quartic 3c v^4 - 4a v^3 - 3c^2 v^2 + (U^2 + 4a^2 - 4 - 4 sin^2 kx),
    c = U^(2/3).  Its real roots with |v| <= U^(1/3) and |v^3 / 2 - a| <= 1
    are the crossings, at ky = +-acos(v^3 / 2 - a), on the branch sign(v).  The
    columns' quartics are solved together by ``_poly_roots``.
    """
    c, w = U ** (2.0 / 3.0), U ** (1.0 / 3.0)
    shifts = [u + math.cos(kx) for kx in grid]
    quartics = [[3.0 * c, -4.0 * a, -3.0 * c * c, 0.0, U * U + 4.0 * (a * a - 1.0 - math.sin(kx) ** 2)]
                for kx, a in zip(grid, shifts)]
    for kx, a, roots in zip(grid, shifts, _poly_roots(quartics)):
        for v in _window(roots, max(-w, np.cbrt(2.0 * a - 2.0)), min(w, np.cbrt(2.0 * a + 2.0))):
            ky = math.acos(max(-1.0, min(1.0, 0.5 * v**3 - a)))
            if min(ky, math.pi - ky) > _ROOT_TOL:
                yield from ((kx, ky), (kx, 2.0 * math.pi - ky))
            elif abs(math.sin(kx)) > _ROOT_TOL:
                # cos(ky) = +-1 to round-off, which acos splits into ky ~ +-3e-8; at a
                # polar momentum this is the I-type point at U = 2|dz|, not a III point
                yield kx, math.pi * round(ky / math.pi)


def classify_degeneracies(params: ModelParams, resolution: int) -> list[DegeneratePoint]:
    """Locate and classify all degenerate eigenvalues over the Brillouin zone.

    I-type points sit at the four polar momenta {0, pi}^2 and are reported
    with their critical strength 2|dz|; II-type points are sampled along
    the dz = 0 contour (present only for |u| < 2) with critical strength
    2 sqrt(dx^2 + dy^2); III-type points are the exact crossings of the
    locus with the grid lines, each reported once: the roots of one quartic
    per k_x column (``_iii_column_points``) and, as d is symmetric under
    kx <-> ky, their transposes on the k_y rows.
    """
    if resolution < 16:
        raise ValueError("grid resolution must be at least 16 per axis")
    u, U = params.u, params.U
    points: list[DegeneratePoint] = []

    for kx in (0.0, math.pi):
        for ky in (0.0, math.pi):
            dz = _bloch_parts(u, kx, ky, math)[2]
            points.append(
                DegeneratePoint(DegeneracyKind.I, KPoint(kx, ky), 0.5 * U, 2.0 * abs(dz))
            )

    grid = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    if abs(u) < 2.0:
        for kx in grid:
            c = -u - math.cos(kx)
            if abs(c) > 1.0:
                continue
            ky0 = math.acos(c)
            kys = {ky0, (2.0 * math.pi - ky0) % (2.0 * math.pi)}
            for ky in sorted(kys):
                uc = 2.0 * math.sqrt(math.sin(kx) ** 2 + math.sin(ky) ** 2)
                points.append(
                    DegeneratePoint(DegeneracyKind.II, KPoint(float(kx), float(ky)), U, uc)
                )

    if U > 0.0:
        step = 2.0 * math.pi / resolution

        def line(x: float) -> int | None:
            """Index of the grid line within _ROOT_TOL of x, if there is one."""
            j = round(x / step)
            return j % resolution if abs(x - j * step) <= _ROOT_TOL else None

        columns = list(_iii_column_points(u, U, grid.tolist()))
        # the row crossings are the transposes; one on a node is a column crossing too
        nodes = {(line(kx), line(ky)) for kx, ky in columns}
        rows = [(ky, kx) for kx, ky in columns if (line(ky), line(kx)) not in nodes]
        for k in (KPoint(kx, ky) for kx, ky in columns + rows):
            points.append(DegeneratePoint(DegeneracyKind.III, k, iii_epsilon(bloch_vector(params, k), U), None))
    return points


# ---------------------------------------------------------------------------
# band surfaces
# ---------------------------------------------------------------------------

def band_surface(params: ModelParams, n: int, health: SpectrumHealth | None = None):
    """Physical spectrum on an inclusive n x n grid over [0, 2*pi]^2, as (kx, ky, spectra).

    Node i is at (kx[i], ky[i]), ordered by (kx, ky), and its states are row i of
    ``spectra``, one ``nonlinear_spectra`` call for the whole grid.  d is taken at
    k reduced as ``KPoint`` reduces it, so every row equals ``physical_spectrum``
    at its node.  A k_x <-> k_y transpose or a reflection k -> 2 pi - k whose
    (dz, sqrt(s)) agrees to the bit shares its node's half-angle quartic, which that
    call solves once: 2,888 quartics for the 6,552 generic nodes at u = 3, U = 5,
    n = 81.  ``health`` is passed on to ``nonlinear_spectra``.
    """
    if n < 2:
        raise ValueError("band surface needs at least a 2 x 2 grid")
    axis = np.linspace(0.0, 2.0 * math.pi, n)
    k = np.remainder(axis, TWO_PI)  # KPoint's reduction, 2 pi -> 0
    d = np.stack(np.broadcast_arrays(*_bloch_parts(params.u, k[:, None], k, np)), axis=-1)
    return np.repeat(axis, n), np.tile(axis, n), nonlinear_spectra(d.reshape(-1, 3), params.U, health)
