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
                    roots of f crowd into double roots at U/2 and U.  The
                    quartics in e^{i theta} of all generic d in the list are
                    solved in one stacked eigenvalue call, once per distinct
                    (dz, sqrt(s)).

``nonlinear_spectra`` is the array core: it returns the states of all its
vectors as flat numpy arrays with an offset per vector (``Spectra``), and
``band_surface`` calls it once for its whole grid.  ``NonlinearEigenpair``
objects are built only at the API edge: ``physical_spectrum`` solves one k
on Python scalars (``_spectrum``), faster for one vector, and
``Spectra.pairs`` turns rows into pair lists; every row of the array core
equals ``_spectrum`` to the bit.

The III-type degeneracies, eps = U/2 + (4 U s)^(1/3) / 2 on the locus
dz = +-{U^(2/3) - (4 s)^(1/3)}^(3/2) / 2, mark the fold edges of the
cone/tube structures; ``classify_degeneracies`` finds them on each grid
column as the roots of one quartic.

``solve_quartic`` solves f itself.  Nothing in the package calls it; it
stays only because the benchmark's per-layer trace (``bench/spans.py``)
binds it by name.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

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

# A root z of the generic-path quartic is a real angle when | |z| - 1 | is
# at most this.  Floating point moves a double root (a fold or a critical
# strength) off the unit circle by ~1e-8; a state built from a root
# 1e-6 off the circle has a residual of order 1e-12.
_ON_CIRCLE_TOL = 1e-6

# A root of a real polynomial is real when |Im| is at most this, and roots
# closer than this are one tangential root: np.roots splits a double root
# into two ~1e-8 apart, real or conjugate.  So are III points in k.
_ROOT_TOL = 1e-6


def _real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of the polynomial ``coeffs``, a near-double root once."""
    r = np.roots(coeffs)
    r = np.sort(r.real[(abs(r.imag) <= _ROOT_TOL) & (r.real >= lo) & (r.real <= hi)])
    clusters = np.split(r, np.flatnonzero(np.diff(r) > _ROOT_TOL) + 1)
    return [float(x.mean()) for x in clusters if x.size]


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


def _horner(coeffs, x):
    acc = 0.0 * x
    for c in coeffs:
        acc = acc * x + c
    return acc


def solve_quartic(coeffs) -> list[complex]:
    """All four roots (with multiplicity) of a monic quartic.

    Companion-matrix eigenvalues followed by one Newton polish per root.
    Conjugate pairs whose real part already satisfies the backward
    residual bound are collapsed onto a real double root (companion
    eigenvalues split exact double roots into spurious conjugate pairs);
    collapsed roots are polished on f' instead, where they are simple.
    """
    c = [float(x) for x in coeffs]
    if len(c) != 5:
        raise ValueError("expected 5 quartic coefficients [c4, c3, c2, c1, c0]")
    if c[0] != 1.0:
        raise ValueError("quartic must be monic (c4 = 1)")
    _, c3, c2, c1, c0 = c
    companion = np.array(
        [
            [0.0, 0.0, 0.0, -c0],
            [1.0, 0.0, 0.0, -c1],
            [0.0, 1.0, 0.0, -c2],
            [0.0, 0.0, 1.0, -c3],
        ]
    )
    roots = list(np.linalg.eigvals(companion).astype(complex))

    dcoeffs = [4.0, 3.0 * c3, 2.0 * c2, c1]
    ddcoeffs = [12.0, 6.0 * c3, 2.0 * c2]
    res_bound = 1e-9 * max(1.0, math.sqrt(sum(x * x for x in c)))

    def polish_double(x: float) -> float:
        for _ in range(3):  # double root of f is a simple root of f'
            fp = _horner(dcoeffs, x)
            fpp = _horner(ddcoeffs, x)
            if fpp == 0.0:
                break
            step = fp / fpp
            if abs(step) > 1e-2 * max(1.0, abs(x)):
                break
            x -= step
        return x

    # Companion eigenvalues split exact double roots into spurious pairs,
    # either complex-conjugate or two nearby reals; collapse a pair onto
    # one double root whenever its midpoint already satisfies the backward
    # residual bound, i.e. it is a root to working precision.
    roots.sort(key=lambda r: (r.real, r.imag))
    out: list[complex] = []
    i = 0
    while i < len(roots):
        r = roots[i]
        if i + 1 < len(roots):
            nxt = roots[i + 1]
            mid = 0.5 * (r.real + nxt.real)
            conj_pair = (
                abs(r.imag) > 0.0
                and abs(nxt.conjugate() - r) <= 1e-12 * max(1.0, abs(r))
                and abs(r.imag) <= 1e-6 * max(1.0, abs(r.real))
            )
            real_pair = (
                r.imag == 0.0
                and nxt.imag == 0.0
                and abs(nxt.real - r.real) <= 1e-6 * max(1.0, abs(mid))
            )
            if (conj_pair or real_pair) and abs(_horner(c, mid)) <= res_bound:
                x = polish_double(mid)
                out.extend([complex(x), complex(x)])
                i += 2
                continue
        fp = _horner(dcoeffs, r)
        if fp != 0.0:
            step = _horner(c, r) / fp
            if abs(step) < 1e-2 * max(1.0, abs(r)) and abs(
                _horner(c, r - step)
            ) < abs(_horner(c, r)):
                r = r - step
        out.append(r)
        i += 1
    return out


def _pair(theta: float, d: BlochVector, U: float) -> NonlinearEigenpair:
    """The state with Bloch vector (sin(theta) (dx, dy) / sqrt(s), cos(theta)).

    That is (e^{-i phi} cos(theta/2), sin(theta/2)) with e^{i phi} = (dx + i dy)
    / sqrt(s), the phase convention of the eigenvector ((dx - i dy), lam - h).
    At a root theta of ``_theta_roots`` it is stationary with kappa =
    cos(theta) and eps = U/2 + sqrt(s) sin(theta) + h kappa, h = dz + U kappa / 2.
    """
    r = math.sqrt(d.planar_sq)
    kappa = math.cos(theta)
    eps = 0.5 * U + r * math.sin(theta) + (d.dz + 0.5 * U * kappa) * kappa
    c1 = complex(*_c1_parts(d.dx, d.dy, r, math.cos(0.5 * theta)))
    return NonlinearEigenpair(eps, kappa, Spinor(c1, complex(math.sin(0.5 * theta))))


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


# rows 1 .. n-1 of an n x n companion matrix, the shifted identity of np.roots
_SHIFT = {n: np.eye(n - 1, n, dtype=complex) for n in (2, 4)}


def _theta_roots(dz: np.ndarray, r: np.ndarray, U: float) -> np.ndarray:
    """Roots z = e^{i theta} of the generic-path quartic of each (dz, sqrt(s)) = (dz[j], r[j]).

    G = dz sin(theta) + (U/4) sin(2 theta) - sqrt(s) cos(theta) = 0 says that the
    state of ``_pair`` is parallel to (dx, dy, dz + U kappa / 2).  With z = e^{i theta},
    2i z^2 G is the quartic (U/4) z^4 + (dz - i sqrt(s)) z^3 - (dz + i sqrt(s)) z - U/4,
    whose roots on the unit circle are the real theta.  Near the polar momenta and
    the dz = 0 contour these roots stay apart, where the roots of f crowd into double
    roots at U/2 or U.

    One stacked eigenvalue solve of companions built as ``np.roots`` builds them
    (first row -c[1:] / c[0] on complex coefficients), so each row is bit for bit
    ``np.roots`` of its quartic.  Where U/4 is zero ``np.roots`` trims the end
    coefficients, and so does this: the 2 x 2 companion of
    (dz - i sqrt(s)) z^2 - (dz + i sqrt(s)), without the root z = 0 that
    ``np.roots`` appends, its last two roots NaN.  A row whose U/4 is round-off
    next to |d| takes that quadratic too: there the 4 x 4 companion, with entries
    of size |d| / U, loses the unit-circle roots (from about U = 1e-17 |d| down,
    leaving no state).  ``_spectrum`` builds the same coefficients for its one d on
    Python scalars, which is faster for one.
    """
    q = 0.25 * U
    c = np.zeros((len(dz), 5), dtype=complex)
    c[:, 0], c[:, 4] = q, -q
    c[:, 1].real, c[:, 1].imag = dz, -r
    c[:, 3].real, c[:, 3].imag = -dz, -r
    quadratic = _takes_quadratic(q, dz, r)
    roots = np.full((len(c), 4), np.nan, dtype=complex)
    roots[~quadratic] = _companion_roots(c[~quadratic])
    roots[quadratic, :2] = _companion_roots(c[quadratic, 1:4])
    return roots


def _takes_quadratic(q, dz, r):
    """Whether the theta-quartic of (dz, sqrt(s)) = (dz, r) with U/4 = q takes the quadratic
    of U = 0: q is round-off next to |d|.  On floats or arrays."""
    return q <= _ROUNDOFF_REL * np.sqrt(dz * dz + r * r)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of each row of polynomial coefficients ``c``, by stacked companion eigenvalues."""
    n = c.shape[1] - 1
    companion = np.empty((len(c), n, n), dtype=complex)
    companion[:, 1:] = _SHIFT[n]
    np.divide(-c[:, 1:], c[:, :1], out=companion[:, 0])
    return np.linalg.eigvals(companion)


def _spectrum(d: BlochVector, U: float) -> list[NonlinearEigenpair]:
    """The physical states of one d, sorted by (epsilon, kappa), on Python scalars.

    The path of ``physical_spectrum``, and of ``nonlinear_spectra``'s polar and
    contour rows: for one d it is faster than the array core, which holds each of
    its rows equal to this.
    """
    path = _path(d, U)
    if path == "polar":
        pairs = _polar_pairs(d.dz, U)
    elif path == "contour":
        pairs = _contour_pairs(d, U)
    else:
        # _theta_roots of one d, its coefficients built on Python scalars
        r, q = math.sqrt(d.planar_sq), 0.25 * U
        c = [q, complex(d.dz, -r), 0.0, -complex(d.dz, r), -q]
        zs = _companion_roots(np.array([c[1:4] if _takes_quadratic(q, d.dz, r) else c]))[0].tolist()
        pairs = [_pair(cmath.phase(z), d, U) for z in zs if abs(abs(z) - 1.0) <= _ON_CIRCLE_TOL]
    if not pairs:
        _no_state()
    pairs.sort(key=lambda p: (p.epsilon, p.kappa))
    return pairs


def _no_state():
    raise AssertionError(
        "internal error: no physical root survived; the self-consistent "
        "Hermitian problem always admits at least two stationary states"
    )


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

    ``math.hypot(abs(r1), abs(r2))`` of the two rows, as on Python scalars: abs is
    libm's hypot, which ``np.hypot`` calls, and the few states within 1e-9 of
    numpy's largest norm take ``math.hypot`` itself.
    """
    counts = np.diff(spectra.offsets)
    dx, dy, dz = (np.repeat(a, counts) for a in (dx, dy, dz))
    eps, p, q = spectra.epsilon, spectra.c1, spectra.c2
    a1 = np.hypot(*_row_residual(dz, dx, -dy, U, eps, p.real, p.imag, q.real, q.imag))
    a2 = np.hypot(*_row_residual(-dz, dx, dy, U, eps, q.real, q.imag, p.real, p.imag))
    norm = np.hypot(a1, a2)
    near = norm >= norm.max(initial=0.0) * (1.0 - 1e-9)
    return max(map(math.hypot, a1[near].tolist(), a2[near].tolist()), default=0.0)


@dataclass
class SpectrumHealth:
    """Numerical health of the spectra ``nonlinear_spectra`` solved, summed over calls.

    ``paths`` counts the Bloch vectors taken by each path.  A generic-path root z
    is kept as a state when its margin | |z| - 1 | is at most ``_ON_CIRCLE_TOL``
    and discarded otherwise; the largest kept and the smallest discarded margin
    are None while there is no such root.  ``max_residual`` is the largest
    || H(state) state - epsilon state || of any pair.
    """

    paths: dict[str, int] = field(default_factory=lambda: {"polar": 0, "contour": 0, "generic": 0})
    roots_discarded: int = 0
    max_kept_root_margin: float | None = None
    min_discarded_root_margin: float | None = None
    max_residual: float = 0.0

    def _record_roots(self, paths: dict[str, int], margins: np.ndarray, uses: np.ndarray) -> None:
        """Add path counts, and the margins (one row per distinct quartic) of the roots of
        ``uses[j]`` generic vectors per row j."""
        for path, count in paths.items():
            self.paths[path] += count
        kept, discarded = margins <= _ON_CIRCLE_TOL, margins > _ON_CIRCLE_TOL
        self.roots_discarded += int(discarded.sum(axis=1) @ uses)
        if kept.any():
            self.max_kept_root_margin = max(self.max_kept_root_margin or 0.0, float(margins[kept].max()))
        if discarded.any():
            self.min_discarded_root_margin = min(
                self.min_discarded_root_margin or math.inf, float(margins[discarded].min())
            )


def _generic_spectra(dx, dy, dz, U: float):
    """``nonlinear_spectra`` of rows that all take the generic path, with the root
    margins of each distinct (dz, sqrt(s)) and the number of rows that share it."""
    r = np.sqrt(dx * dx + dy * dy)
    key = np.empty(len(dz), dtype=complex)
    key.real, key.imag = dz, r
    keys, inverse = np.unique(key, return_inverse=True)
    roots = _theta_roots(keys.real, keys.imag, U)
    margins = np.abs(np.hypot(roots.real, roots.imag) - 1.0)  # | |z| - 1 |, abs as CPython takes it
    kept = margins <= _ON_CIRCLE_TOL
    per_key = kept.sum(axis=1)
    if not per_key.all():
        _no_state()
    # the kept roots' states, formed and sorted by key, then by (epsilon, kappa), once per key
    key_of = np.nonzero(kept)[0]
    theta = np.array([cmath.phase(z) for z in roots[kept].tolist()])
    kappa = np.cos(theta)
    eps = 0.5 * U + keys.imag[key_of] * np.sin(theta) + (keys.real[key_of] + 0.5 * U * kappa) * kappa
    order = np.lexsort((kappa, eps, key_of))
    # state i of a row is state i of its key
    count = per_key[inverse]
    shift = (np.cumsum(per_key) - per_key)[inverse] - (np.cumsum(count) - count)
    src = order[np.arange(count.sum()) + np.repeat(shift, count)]
    x, y, r = (np.repeat(a, count) for a in (dx, dy, r))
    half = 0.5 * theta[src]
    c1, c2 = np.empty(len(src), dtype=complex), np.zeros(len(src), dtype=complex)
    c1.real, c1.imag = _c1_parts(x, y, r, np.cos(half))
    c2.real = np.sin(half)
    offsets = np.concatenate(([0], np.cumsum(count)))
    spectra = Spectra(offsets, eps[src], kappa[src], c1, c2, np.ones(len(src), dtype=np.intp))
    return spectra, margins, np.bincount(inverse, minlength=len(keys))


def _with_edge_rows(spectra: Spectra, generic: np.ndarray, edge_pairs) -> Spectra:
    """``spectra`` of the rows where ``generic`` holds, with the pair lists of the
    other rows, in order, put in their places."""
    count = np.empty(len(generic), dtype=np.intp)
    count[generic] = np.diff(spectra.offsets)
    count[~generic] = [len(pairs) for pairs in edge_pairs]
    offsets = np.concatenate(([0], np.cumsum(count)))
    at = np.repeat(generic, count)
    columns = (spectra.epsilon, spectra.kappa, spectra.c1, spectra.c2, spectra.multiplicity)
    merged = Spectra(offsets, *(np.empty(offsets[-1], dtype=a.dtype) for a in columns))
    for new, old in zip((merged.epsilon, merged.kappa, merged.c1, merged.c2, merged.multiplicity), columns):
        new[at] = old
    for start, pairs in zip(offsets[:-1][~generic].tolist(), edge_pairs):
        for i, p in enumerate(pairs, start):
            merged.epsilon[i], merged.kappa[i] = p.epsilon, p.kappa
            merged.c1[i], merged.c2[i], merged.multiplicity[i] = p.state.c1, p.state.c2, p.multiplicity
    return merged


def nonlinear_spectra(d, U: float, health: SpectrumHealth | None = None) -> Spectra:
    """All physical stationary solutions of each raw Bloch vector at Kerr U, as flat arrays.

    ``d`` holds one vector (dx, dy, dz) per row.  Each row takes the polar, the
    contour or the generic path, chosen as ``_path`` chooses; the few polar and
    contour rows are solved by ``_spectrum``.  A generic row's theta-quartic, and
    so its energies and populations, depend on d only through (dz, sqrt(s)): each
    distinct key goes once to one stacked solve (``_theta_roots``), its states are
    formed and sorted once, and only c1 = (dx - i dy) / sqrt(s) cos(theta/2) takes
    each row's own phase, by the scalar path's formula (``_c1_parts``).  So row i
    of the result is ``_spectrum`` of row i of ``d``, to the bit, and a grid pays
    no object per node.  ``health``, when given, accumulates the paths taken, the
    root margins of every generic row and the largest residual.
    """
    dx, dy, dz = np.asarray(d, dtype=float).reshape(-1, 3).T
    s = dx * dx + dy * dy
    zero = _ROUNDOFF_REL * np.maximum(max(1.0, U), np.sqrt(s + dz * dz))
    polar = s <= zero * zero
    generic = ~(polar | (np.abs(dz) <= zero))
    spectra, margins, uses = _generic_spectra(dx[generic], dy[generic], dz[generic], U)
    if not generic.all():
        edge = ~generic
        rows = zip(dx[edge].tolist(), dy[edge].tolist(), dz[edge].tolist())
        spectra = _with_edge_rows(spectra, generic, [_spectrum(BlochVector(*row), U) for row in rows])
    if health is not None:
        n_polar, n_generic = int(polar.sum()), int(generic.sum())
        paths = {"polar": n_polar, "contour": len(dx) - n_polar - n_generic, "generic": n_generic}
        health._record_roots(paths, margins, uses)
        health.max_residual = max(health.max_residual, _max_residual(dx, dy, dz, U, spectra))
    return spectra


def physical_spectrum(params: ModelParams, k: KPoint) -> list[NonlinearEigenpair]:
    """Physical self-consistent eigenpairs at k, sorted by (epsilon, kappa)."""
    return _spectrum(bloch_vector(params, k), params.U)


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
    are the crossings, at ky = +-acos(v^3 / 2 - a), on the branch sign(v).
    """
    c, w = U ** (2.0 / 3.0), U ** (1.0 / 3.0)
    for kx in grid:
        a = u + math.cos(kx)
        quartic = [3.0 * c, -4.0 * a, -3.0 * c * c, 0.0, U * U + 4.0 * (a * a - 1.0 - math.sin(kx) ** 2)]
        for v in _real_roots(quartic, max(-w, np.cbrt(2.0 * a - 2.0)), min(w, np.cbrt(2.0 * a + 2.0))):
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
    (dz, sqrt(s)) agrees to the bit shares its node's theta-quartic, which that
    call solves once: 2,888 quartics for the 6,552 generic nodes at u = 3, U = 5,
    n = 81.  ``health`` is passed on to ``nonlinear_spectra``.
    """
    if n < 2:
        raise ValueError("band surface needs at least a 2 x 2 grid")
    axis = np.linspace(0.0, 2.0 * math.pi, n)
    k = np.remainder(axis, TWO_PI)  # KPoint's reduction, 2 pi -> 0
    d = np.stack(np.broadcast_arrays(*_bloch_parts(params.u, k[:, None], k, np)), axis=-1)
    return np.repeat(axis, n), np.tile(axis, n), nonlinear_spectra(d.reshape(-1, 3), params.U, health)
