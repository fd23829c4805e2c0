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

``physical_spectrum`` is its batch of one; ``band_surface`` calls it once
for its whole grid.

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
    BlochVector,
    KPoint,
    ModelParams,
    Spinor,
    _kerr_row,
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


@dataclass(frozen=True)
class NonlinearEigenpair:
    """One self-consistent stationary solution at fixed k."""

    epsilon: float
    kappa: float
    state: Spinor
    multiplicity: int = 1


@dataclass(frozen=True)
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
    c1 = complex(d.dx, -d.dy) / r * math.cos(0.5 * theta)
    return NonlinearEigenpair(eps, kappa, Spinor(c1, complex(math.sin(0.5 * theta))))


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


def _theta_roots(ds: list[BlochVector], U: float) -> np.ndarray:
    """Roots z = e^{i theta} of the generic-path quartic of each d, one row per d.

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
    ``np.roots`` appends.
    """
    rows = []
    for d in ds:
        r = math.sqrt(d.planar_sq)
        rows.append([0.25 * U, complex(d.dz, -r), 0.0, -complex(d.dz, r), -0.25 * U])
    c = np.array(rows)
    if 0.25 * U == 0.0:
        c = c[:, 1:4]
    n = c.shape[1] - 1
    companion = np.empty((len(ds), n, n), dtype=complex)
    companion[:, 1:] = _SHIFT[n]
    np.divide(-c[:, 1:], c[:, :1], out=companion[:, 0])
    return np.linalg.eigvals(companion)


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

    def _record(self, ds, U, paths, margins, spectra) -> None:
        for path in paths:
            self.paths[path] += 1
        kept = [m for m in margins if m <= _ON_CIRCLE_TOL]
        discarded = [m for m in margins if m > _ON_CIRCLE_TOL]
        self.roots_discarded += len(discarded)
        if kept:
            self.max_kept_root_margin = max(self.max_kept_root_margin or 0.0, *kept)
        if discarded:
            self.min_discarded_root_margin = min(self.min_discarded_root_margin or math.inf, *discarded)
        # on Python scalars: numpy arrays per column were a few ms faster on
        # ``bands --grid 81`` but raised its peak memory by 0.4 MB
        worst = self.max_residual
        for d, pairs in zip(ds, spectra):
            o = complex(d.dx, -d.dy)
            o_bar = o.conjugate()
            for p in pairs:
                c1, c2, eps = p.state.c1, p.state.c2, p.epsilon
                r1 = _kerr_row(d.dz, o, U, c1, c2) - eps * c1
                r2 = _kerr_row(-d.dz, o_bar, U, c2, c1) - eps * c2
                worst = max(worst, math.hypot(abs(r1), abs(r2)))
        self.max_residual = worst

    def to_dict(self) -> dict:
        return {
            "paths": dict(self.paths),
            "roots_discarded": self.roots_discarded,
            "max_kept_root_margin": self.max_kept_root_margin,
            "min_discarded_root_margin": self.min_discarded_root_margin,
            "max_residual": self.max_residual,
        }


def nonlinear_spectra(
    ds: list[BlochVector], U: float, health: SpectrumHealth | None = None
) -> list[list[NonlinearEigenpair]]:
    """All physical stationary solutions for each raw Bloch vector in ``ds`` at Kerr U.

    Each d takes the polar, the contour or the generic path (``_path``).  A generic
    row's theta-quartic depends on d only through (dz, sqrt(s)), so each distinct
    (dz, sqrt(s)) goes once to one stacked solve (``_theta_roots``), skipped when
    there is none, and every d with that key builds its states from the same
    roots at its own phase.  Identical quartics have identical companions, so
    the result is the same as one solve per d.  Each spectrum is sorted by
    (epsilon, kappa).  ``health``, when given, accumulates the paths taken, the
    root margins of every generic d and the largest residual.
    """
    paths = [_path(d, U) for d in ds]
    # the first d of each distinct (dz, sqrt(s)), and each generic d's row among them
    row_of, firsts, rows = {}, [], []
    for d, path in zip(ds, paths):
        if path == "generic":
            i = row_of.setdefault((d.dz, math.sqrt(d.planar_sq)), len(firsts))
            if i == len(firsts):
                firsts.append(d)
            rows.append(i)
    solved = _theta_roots(firsts, U).tolist() if firsts else []
    rows = iter(rows)
    spectra, margins = [], []
    for d, path in zip(ds, paths):
        if path == "polar":
            pairs = _polar_pairs(d.dz, U)
        elif path == "contour":
            pairs = _contour_pairs(d, U)
        else:
            zs = solved[next(rows)]
            row = [abs(abs(z) - 1.0) for z in zs]
            margins += row
            pairs = [_pair(cmath.phase(z), d, U) for z, m in zip(zs, row) if m <= _ON_CIRCLE_TOL]
        if not pairs:
            raise AssertionError(
                "internal error: no physical root survived; the self-consistent "
                "Hermitian problem always admits at least two stationary states"
            )
        pairs.sort(key=lambda p: (p.epsilon, p.kappa))
        spectra.append(pairs)
    if health is not None:
        health._record(ds, U, paths, margins, spectra)
    return spectra


def physical_spectrum(params: ModelParams, k: KPoint) -> list[NonlinearEigenpair]:
    """Physical self-consistent eigenpairs at k, sorted by (epsilon, kappa)."""
    return nonlinear_spectra([bloch_vector(params, k)], params.U)[0]


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
            dz = u + math.cos(kx) + math.cos(ky)
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

@dataclass(frozen=True)
class BandNode:
    kx: float
    ky: float
    pairs: tuple[NonlinearEigenpair, ...]

    @property
    def branch_count(self) -> int:
        return branch_count(self.pairs)


def band_surface(params: ModelParams, n: int, health: SpectrumHealth | None = None) -> list[BandNode]:
    """Physical spectrum on an inclusive n x n grid over [0, 2*pi]^2.

    One ``nonlinear_spectra`` call for the whole grid, with d taken at the
    reduced ``KPoint``, so every node equals ``physical_spectrum`` there.  A
    k_x <-> k_y transpose or a reflection k -> 2 pi - k whose (dz, sqrt(s))
    agrees to the bit shares its node's theta-quartic, which that call solves
    once: 2,888 quartics for the 6,552 generic nodes at u = 3, U = 5, n = 81.
    Ordered by (kx, ky).  ``health`` is passed on to ``nonlinear_spectra``.
    """
    if n < 2:
        raise ValueError("band surface needs at least a 2 x 2 grid")
    axis = np.linspace(0.0, 2.0 * math.pi, n).tolist()
    ks = [(kx, ky) for kx in axis for ky in axis]
    spectra = nonlinear_spectra([bloch_vector(params, KPoint(kx, ky)) for kx, ky in ks], params.U, health)
    return [BandNode(kx, ky, tuple(pairs)) for (kx, ky), pairs in zip(ks, spectra)]


def band_surface_rows(nodes: list[BandNode]):
    """Flatten to CSV rows: one row per branch per node, duplicating
    population-split degenerate pairs according to their multiplicity."""
    for node in nodes:
        idx = 0
        for p in node.pairs:
            for _ in range(p.multiplicity):
                yield (
                    node.kx,
                    node.ky,
                    idx,
                    p.epsilon,
                    p.kappa,
                    p.state.c1.real,
                    p.state.c1.imag,
                    p.state.c2.real,
                    p.state.c2.imag,
                )
                idx += 1
