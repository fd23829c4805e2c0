"""Independent reference computations used to validate the package.

Deliberately avoids the package's quartic/eigenstate machinery: spectra
come from a population-imbalance fixed-point scan, fold points from a
grid scan of the locus residual, III-type degenerate points from sign
changes of the locus residual on the edges of an n x n zone grid, each
bisected, Chern numbers from a lattice plaquette-link calculation, and
time evolution from midpoint matrix exponentials of the linear
Hamiltonian.  The dense-matrix Hamiltonian with its eigenpair residual,
the linear bands, the coefficients of the energy quartic, the squared
linearized frequency of a stationary state and the velocity expectation
are written out from their formulas.  Two
references call package code: ``effective_spectrum`` solves the (pi, pi)
expansion with ``spectrum.nonlinear_spectra``, and
``bifurcation_correction`` takes the kind of a degenerate point from
``spectrum._path``, and a III point's locus and energy from
``spectrum._iii_residual`` and ``spectrum.iii_epsilon``.  Loop versions
of batched package code are kept as references: the pumped-charge loop on a stacked (2, n) state, the
trajectory loop that builds each record as it samples, the per-sample
spectra of a trajectory, the mean energy and projections of one sample
on Python complex scalars, the rows of ``bands.csv`` node by node, and the
csv.writer loops of ``bands.csv``, ``trajectory.csv``, ``response_columns.csv``
and ``phase_diagram.csv``.  The numpy-array filter of ``np.roots``' real roots
is kept as the reference of ``spectrum._real_roots``, which filters Python floats,
the generic-path states from the complex quartic in e^{i theta}
(``complex_quartic_spectrum``) as the reference of the half-angle quartic, and
the half-angle quartic's roots by LAPACK (``lapack_half_angle_roots``,
``lapack_half_angle_spectrum``) as the reference of its closed-form solve.
"""

import cmath
import csv
import decimal
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# fixed-point scan over the population imbalance kappa
# ---------------------------------------------------------------------------

def kappa_scan_spectrum(dx, dy, dz, U, n=200_001):
    """Stationary energies (with multiplicity) via a kappa grid scan.

    For fixed kappa the Hamiltonian is a known 2x2 matrix
    M(kappa) = U/2 + (dz + U kappa/2) sigma_z + dx sigma_x + dy sigma_y;
    a stationary state is a fixed point where an eigenvector of M
    reproduces the imbalance kappa it was built from, a root of
    g = +-h / sqrt(s + h^2) - kappa with h = dz + U kappa / 2.  Two roots in
    one grid cell (a near-tangency, as on the III locus) are found at the
    interior minima of |g| with no sign change.  At dx = dy = 0 the
    eigenvectors are polarized for any kappa, so the mixed branch is
    found from the diagonal-balance condition instead.
    """
    s = dx * dx + dy * dy
    out = []
    if s < 1e-24:
        out.extend([U + dz, U - dz])  # polarized branches (1,0) and (0,1)
        if U > 0:
            kap = np.linspace(-1.0, 1.0, n)
            g = 2.0 * dz + U * kap  # diagonal balance
            idx = np.where(np.sign(g[:-1]) * np.sign(g[1:]) <= 0)[0]
            if idx.size:
                lo, hi = kap[idx[0]], kap[idx[0] + 1]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if (2.0 * dz + U * lo) * (2.0 * dz + U * mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                kstar = 0.5 * (lo + hi)
                eps = dz + 0.5 * U * (1.0 + kstar)
                out.extend([eps, eps])  # two-fold: free relative phase
        return sorted(out)

    kap = np.linspace(-1.0, 1.0, n)
    heff = dz + 0.5 * U * kap
    m = np.sqrt(s + heff * heff)
    for branch in (+1.0, -1.0):

        def gval(x):
            h = dz + 0.5 * U * x
            return branch * h / math.sqrt(s + h * h) - x

        g = branch * heff / m - kap
        sg = np.sign(g)
        cross = np.where(sg[:-1] * sg[1:] < 0)[0]
        roots = [_bisect(gval, float(kap[i]), float(kap[i + 1])) for i in cross]
        # a root on a node (kappa = 0 at dz = 0) is counted once; a zero
        # between two values of one sign is a touch point, refined below
        j = np.arange(1, n - 1)
        on_node = list(j[(sg[j] == 0) & (sg[j - 1] * sg[j + 1] <= 0)]) + ([n - 1] if sg[-1] == 0 else [])
        roots += [float(kap[i]) for i in on_node]
        # Touch points: |g| has an interior minimum with no sign change around
        # it, where two roots can share one grid cell.  The minimum of
        # side * g is refined on g', and g there is evaluated to 50 digits,
        # because two roots 1e-8 apart in kappa leave a dip of only ~1e-16.
        absg, gexact = np.abs(g), _exact_g(branch, dx, dy, dz, U)
        touch = j[
            (sg[j - 1] * sg[j + 1] > 0)
            & (sg[j] * sg[j - 1] >= 0)
            & (absg[j] < absg[j - 1])
            & (absg[j] <= absg[j + 1])
        ]
        for i in touch:
            side = float(sg[i - 1])
            lo, hi = float(kap[i - 1]), float(kap[i + 1])

            def slope(x):  # side * g'(x)
                h = dz + 0.5 * U * x
                return side * (branch * 0.5 * U * s / (s + h * h) ** 1.5 - 1.0)

            kmin = _bisect(slope, lo, hi)
            if side * gexact(kmin) <= 0:
                roots += [_bisect(gexact, lo, kmin), _bisect(gexact, kmin, hi)]
        for kstar in roots:
            h = dz + 0.5 * U * kstar
            out.append(0.5 * U + branch * math.sqrt(s + h * h))
    return sorted(out)


def _bisect(f, lo, hi):
    """A sign change of f in [lo, hi], after 80 halvings."""
    flo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_g(branch, dx, dy, dz, U):
    """g(kappa) = branch * h / sqrt(s + h^2) - kappa, h = dz + U kappa / 2, to 50 digits."""
    D = decimal.Decimal
    ctx = decimal.Context(prec=50)
    s = ctx.add(ctx.multiply(D(dx), D(dx)), ctx.multiply(D(dy), D(dy)))

    def g(x):
        h = ctx.add(D(dz), ctx.multiply(ctx.multiply(D(U), D(x)), D("0.5")))
        r = ctx.divide(h, ctx.sqrt(ctx.add(s, ctx.multiply(h, h))))
        return float(ctx.subtract(ctx.multiply(D(branch), r), D(x)))

    return g


# ---------------------------------------------------------------------------
# dense-matrix Hamiltonian and the closed forms the spectrum rests on
# ---------------------------------------------------------------------------

# tolerance for the normalization of a spinor handed to ``hamiltonian``
NORM_TOL = 1e-9


class NormalizationError(ValueError):
    """Raised when a supplied spinor is not normalized to tolerance."""


def _bloch(params, k):
    """d(k) = (sin kx, sin ky, u + cos kx + cos ky), written out here, not taken from the package."""
    return math.sin(k.kx), math.sin(k.ky), params.u + math.cos(k.kx) + math.cos(k.ky)


def hamiltonian(params, k, psi):
    """State-dependent 2x2 Bloch Hamiltonian d.sigma + U diag(|c1|^2, |c2|^2).

    Rejects spinors whose norm deviates from 1 by more than 1e-9; tighter
    drift is the caller's responsibility.
    """
    if abs(psi.norm - 1.0) > NORM_TOL:
        raise NormalizationError(f"spinor norm {psi.norm!r} deviates from 1 beyond {NORM_TOL}")
    dx, dy, dz = _bloch(params, k)
    n1 = abs(psi.c1) ** 2
    n2 = abs(psi.c2) ** 2
    return np.array(
        [
            [dz + params.U * n1, dx - 1j * dy],
            [dx + 1j * dy, -dz + params.U * n2],
        ],
        dtype=complex,
    )


def eigenpair_residual(params, k, pair):
    """|| H(state) state - epsilon state || from the dense ``hamiltonian``."""
    H = hamiltonian(params, k, pair.state)
    v = pair.state.as_array()
    return float(np.linalg.norm(H @ v - pair.epsilon * v))


def linear_eigenvalues(params, k):
    """Eigenvalues (-|d|, +|d|) of the linear Bloch Hamiltonian."""
    r = math.hypot(*_bloch(params, k))
    return (-r, r)


def quartic_coefficients(params, d):
    """Monic quartic coefficients [c4, c3, c2, c1, c0] of the energy quartic f(eps)."""
    U = params.U
    s = d.planar_sq
    z2 = d.dz * d.dz
    return [
        1.0,
        -3.0 * U,
        3.25 * U * U - z2 - s,
        U * z2 + 2.0 * U * s - 1.5 * U**3,
        0.25 * U**4 - 0.25 * U * U * z2 - U * U * s,
    ]


def omega_squared(epsilon, kappa, U):
    """Squared linearized frequency 4 lam (lam - (U/2)(1 - kappa^2)), lam = epsilon - U/2, of a
    stationary state; elementwise on floats or arrays.

    In the spin picture S = psi^dagger sigma psi the Kerr flow is dS/dt = 2 grad(E) x S with
    E(S) = d.S + (U/4) S_z^2, whose stationary states are the critical points of E on the unit
    sphere, grad(E) = lam S.  omega^2 > 0 marks an extremum and omega^2 < 0 a saddle; at U = 0,
    omega = 2 |d|.
    """
    lam = epsilon - 0.5 * U
    return 4.0 * lam * (lam - 0.5 * U * (1.0 - kappa * kappa))


def velocity_expectation(k, psi):
    """cos(kx) <sigma_x> - sin(kx) <sigma_z>, the velocity along x at a fixed state.

    Only the linear part of the Hamiltonian depends on k_x explicitly; the
    Kerr diagonal depends on k through the state alone.
    """
    c1, c2 = complex(psi.c1), complex(psi.c2)
    sigma_x = 2.0 * (c1.conjugate() * c2).real
    sigma_z = abs(c1) ** 2 - abs(c2) ** 2
    return math.cos(k.kx) * sigma_x - math.sin(k.kx) * sigma_z


# ---------------------------------------------------------------------------
# the effective model near (pi, pi) and its diagonal fold points by a grid scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PPoint:
    """Expansion momenta around (pi, pi); |px|, |py| <= pi."""

    px: float
    py: float

    def __post_init__(self):
        if abs(self.px) > math.pi or abs(self.py) > math.pi:
            raise ValueError("expansion momenta must satisfy |px|, |py| <= pi")


def effective_bloch_vector(params, p):
    """d_eff(p) = (-px, -py, u - 2 + (px^2 + py^2)/2), d to second order around (pi, pi)."""
    from nlchern.model import BlochVector

    pz = params.u - 2.0 + 0.5 * (p.px * p.px + p.py * p.py)
    return BlochVector(-p.px, -p.py, pz)


def effective_spectrum(params, p):
    """Physical eigenvalues of the effective model from ``nonlinear_spectra``, sorted, with multiplicity."""
    from nlchern.spectrum import nonlinear_spectra

    out = []
    d = effective_bloch_vector(params, p)
    for pair in nonlinear_spectra([(d.dx, d.dy, d.dz)], params.U).pairs()[0]:
        out.extend([pair.epsilon] * pair.multiplicity)
    return out


def scalar_max_residual(ds, U, spectra, worst=0.0):
    """The largest || H(state) state - epsilon state || of the pair lists ``spectra`` of the
    Bloch vectors ``ds``, on Python complex scalars through ``model._kerr_row``: the loop
    that ``SpectrumHealth`` ran per state before it computed on arrays."""
    from nlchern.model import _kerr_row

    for d, pairs in zip(ds, spectra):
        o = complex(d.dx, -d.dy)
        o_bar = o.conjugate()
        for p in pairs:
            c1, c2, eps = p.state.c1, p.state.c2, p.epsilon
            r1 = _kerr_row(d.dz, o, U, c1, c2) - eps * c1
            r2 = _kerr_row(-d.dz, o_bar, U, c2, c1) - eps * c2
            worst = max(worst, math.hypot(abs(r1), abs(r2)))
    return worst


def fold_residual(u, U, p):
    """(u - 2 + p^2) + {U^(2/3) - (8 p^2)^(1/3)}^(3/2) / 2, with the brace clipped at 0."""
    t = np.maximum(U ** (2.0 / 3.0) - (8.0 * np.square(p)) ** (1.0 / 3.0), 0.0)
    return u - 2.0 + np.square(p) + 0.5 * t**1.5


def fold_points_scan(u, U, n_grid=20001, touch_tol=1e-5):
    """Count and locate the roots of ``fold_residual`` on |p| <= min(pi, U/sqrt(8)).

    Sign changes on a grid, each bisected to 1e-10, are the transversal
    roots.  An interior local minimum of |r| below ``touch_tol`` away from
    them is reported as a tangential root; just past the fold merger that
    is a pair of roots the residual does not have.
    """
    pmax = min(math.pi, math.sqrt(U * U / 8.0))
    if pmax <= 0.0:
        return 0, []
    grid = np.linspace(-pmax, pmax, n_grid)
    r = fold_residual(u, U, grid)

    roots = []
    for i in np.where(np.sign(r[:-1]) * np.sign(r[1:]) < 0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(r[i])
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            fm = float(fold_residual(u, U, mid))
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))

    absr = np.abs(r)
    interior = np.arange(1, n_grid - 1)
    is_min = (absr[interior] <= absr[interior - 1]) & (absr[interior] <= absr[interior + 1])
    for i in interior[is_min]:
        if absr[i] > touch_tol:
            continue
        p0 = float(grid[i])
        if any(abs(p0 - q) < 4.0 * (grid[1] - grid[0]) for q in roots):
            continue
        roots.append(p0)

    roots.sort()
    return len(roots), roots


def real_roots(coeffs, lo, hi):
    """Real roots in [lo, hi] of ``coeffs``, filtered, sorted and clustered as numpy
    arrays: neighbours at most 1e-6 apart are one root, their mean."""
    r = np.roots(coeffs)
    r = np.sort(r.real[(abs(r.imag) <= 1e-6) & (r.real >= lo) & (r.real <= hi)])
    clusters = np.split(r, np.flatnonzero(np.diff(r) > 1e-6) + 1)
    return [float(x.mean()) for x in clusters if x.size]


def fold_merger_bisection(n_folds, four, fewer, tol=1e-9):
    """Bisect a parameter between a value with four fold points and one with fewer.

    ``n_folds(value)`` counts the fold points at that value of the parameter.
    """
    while abs(fewer - four) > tol:
        mid = 0.5 * (four + fewer)
        if n_folds(mid) >= 4:
            four = mid
        else:
            fewer = mid
    return 0.5 * (four + fewer)


# ---------------------------------------------------------------------------
# III-type degenerate points by a grid scan of the locus residual
# ---------------------------------------------------------------------------

def _iii_scan_residual(u, U, kx, ky, sign):
    """dz - sign * {U^(2/3) - (4 s)^(1/3)}^(3/2) / 2 at k; None where the brace is negative."""
    kx, ky = kx % (2.0 * math.pi), ky % (2.0 * math.pi)
    dx, dy, dz = math.sin(kx), math.sin(ky), u + math.cos(kx) + math.cos(ky)
    t = U ** (2.0 / 3.0) - (4.0 * (dx * dx + dy * dy)) ** (1.0 / 3.0)
    return None if t < 0.0 else dz - sign * 0.5 * t**1.5


def _bisect_edge(u, U, ka, kb, sign, tol=1e-10, max_iter=200):
    """Root of the III residual along the segment ka -> kb, as a fraction of it."""
    def res(t):
        return _iii_scan_residual(u, U, ka[0] + t * (kb[0] - ka[0]), ka[1] + t * (kb[1] - ka[1]), sign)

    lo, hi = 0.0, 1.0
    rlo = res(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        rm = res(mid)
        if rm is None:  # fell off the fractional-power domain; give up
            return None
        if abs(rm) < tol:
            return mid
        if (rlo < 0) == (rm < 0):
            lo, rlo = mid, rm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def iii_points_scan(u, U, n):
    """III points (kx, ky) in [0, 2 pi)^2 as sign changes of the locus residual on an n x n grid.

    Each grid edge, along kx or along ky, whose end residuals differ in sign
    is bisected to |residual| < 1e-10, for each locus branch.  A root on a
    grid node, or one where the locus is tangent to a grid line, can be
    reported twice or missed.
    """
    grid = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    step = grid[1] - grid[0]
    points = []
    for sign in (1.0, -1.0):
        rvals = np.full((n, n), np.nan)
        for i, kx in enumerate(grid):
            for j, ky in enumerate(grid):
                r = _iii_scan_residual(u, U, float(kx), float(ky), sign)
                rvals[i, j] = np.nan if r is None else r
        for i in range(n):
            for j in range(n):
                a = rvals[i, j]
                if not np.isfinite(a):
                    continue
                for di, dj in ((1, 0), (0, 1)):
                    b = rvals[(i + di) % n, (j + dj) % n]
                    if not np.isfinite(b) or (a < 0) == (b < 0):
                        continue
                    ka = (grid[i], grid[j])
                    kb = (grid[i] + di * step, grid[j] + dj * step)
                    t = _bisect_edge(u, U, ka, kb, sign)
                    if t is not None:
                        k = (ka[0] + t * (kb[0] - ka[0]), ka[1] + t * (kb[1] - ka[1]))
                        points.append(tuple(float(x % (2.0 * math.pi)) for x in k))
    return points


# ---------------------------------------------------------------------------
# the generic-path states from the complex quartic in z = e^{i theta}
# ---------------------------------------------------------------------------

# The package's solver before the half-angle quartic, kept as a reference: the
# scalar path ``spectrum._spectrum`` with its helpers, their bodies as they were.
# With z = e^{i theta}, 2i z^2 G is the complex quartic
# (U/4) z^4 + (dz - i sqrt(s)) z^3 - (dz + i sqrt(s)) z - U/4, whose roots on the
# unit circle are the real theta; where U/4 is round-off next to |d| it takes the
# quadratic of U = 0.  Its companion has entries of size |d| / U, so its states
# lose accuracy as U falls: residuals reach 5.9e-8 at U = 1e-12.

# a root z is a real angle where | |z| - 1 | is at most this, root by root
_CIRCLE_TOL = 1e-6

# rows 1 .. n-1 of an n x n companion matrix, the shifted identity of np.roots
_SHIFT = {n: np.eye(n - 1, n, dtype=complex) for n in (2, 4)}


def _takes_quadratic(q, dz, r):
    """Whether the theta-quartic of (dz, sqrt(s)) = (dz, r) with U/4 = q takes the quadratic
    of U = 0: q is round-off next to |d|.  On floats or arrays."""
    from nlchern.spectrum import _ROUNDOFF_REL

    return q <= _ROUNDOFF_REL * np.sqrt(dz * dz + r * r)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of each row of polynomial coefficients ``c``, by stacked companion eigenvalues."""
    n = c.shape[1] - 1
    companion = np.empty((len(c), n, n), dtype=complex)
    companion[:, 1:] = _SHIFT[n]
    np.divide(-c[:, 1:], c[:, :1], out=companion[:, 0])
    return np.linalg.eigvals(companion)


def _circle_spectrum(d, U, circle_roots):
    """The physical states of one d, sorted by (epsilon, kappa), on Python scalars: the
    generic path keeps a root z of ``circle_roots(dz, sqrt(s), U)`` as the state of angle
    phase(z) where | |z| - 1 | is at most ``_CIRCLE_TOL``, root by root.  The package
    instead keeps or drops the two roots of a fold's pair as one unit, by their common
    first-order |Im theta| (``spectrum._fold_margin``), so the two can differ only where
    a pair's two per-root margins straddle 1e-6."""
    from nlchern.spectrum import _contour_pairs, _pair, _path, _polar_pairs

    path = _path(d, U)
    if path == "polar":
        pairs = _polar_pairs(d.dz, U)
    elif path == "contour":
        pairs = _contour_pairs(d, U)
    else:
        zs = circle_roots(d.dz, math.sqrt(d.planar_sq), U)
        pairs = [_pair(cmath.phase(z), d, U) for z in zs if abs(abs(z) - 1.0) <= _CIRCLE_TOL]
    if not pairs:
        raise AssertionError("no physical root survived")
    pairs.sort(key=lambda p: (p.epsilon, p.kappa))
    return pairs


def _complex_quartic_circle_roots(dz, r, U):
    q = 0.25 * U
    c = [q, complex(dz, -r), 0.0, -complex(dz, r), -q]
    return _companion_roots(np.array([c[1:4] if _takes_quadratic(q, dz, r) else c]))[0].tolist()


def complex_quartic_spectrum(d, U):
    """The states of one d from the complex quartic in z = e^{i theta}."""
    return _circle_spectrum(d, U, _complex_quartic_circle_roots)


# ---------------------------------------------------------------------------
# the half-angle quartic solved by LAPACK
# ---------------------------------------------------------------------------

# The package's solve before the closed form, kept as a reference: the monic
# half-angle quartic t^4 + B t^3 + D t - 1 of ``spectrum._angles``, solved as the
# eigenvalues of its companion by ``np.roots``, each root t mapped to
# z = e^{i phi} (1 + i t) / (1 - i t), and the state's angle taken as phase(z).


def half_angle_coefficients(dz, r, U):
    """(B, D, turned) of the monic half-angle quartic t^4 + B t^3 + D t - 1 of a generic
    d with (dz, sqrt(s)) = (dz, r), as ``spectrum._angles`` forms it: in t = tan((theta -
    phi) / 2), phi = -pi/2 where ``turned`` and 0 elsewhere."""
    h = 0.5 * U
    if r < abs(dz):
        return (h - r) / (0.5 * dz), -(h + r) / (0.5 * dz), True
    return (dz - h) / (0.5 * r), (dz + h) / (0.5 * r), False


def lapack_half_angle_roots(B, D):
    """The roots of t^4 + B t^3 + D t - 1 by LAPACK, as the package took them before its closed form."""
    return np.roots([1.0, B, 0.0, D, -1.0]).tolist()


def circle_margin(t):
    """| |z| - 1 | of z = (1 + i t) / (1 - i t): infinity at t = -i."""
    return abs(abs((1.0 + 1j * t) / (1.0 - 1j * t)) - 1.0) if t != -1j else math.inf


def _lapack_circle_roots(dz, r, U):
    B, D, turned = half_angle_coefficients(dz, r, U)
    ts = [t for t in lapack_half_angle_roots(B, D) if t != -1j]
    return [(-1j if turned else 1.0) * (1.0 + 1j * t) / (1.0 - 1j * t) for t in ts]


def lapack_half_angle_spectrum(d, U):
    """The states of one d from the half-angle quartic solved by LAPACK."""
    return _circle_spectrum(d, U, _lapack_circle_roots)


# ---------------------------------------------------------------------------
# first-order bifurcation corrections
# ---------------------------------------------------------------------------

class AtCriticalityError(ArithmeticError):
    """First-order bifurcation correction is singular: U sits exactly at U_c."""


@dataclass(frozen=True)
class BifurcationResult:
    """Real first-order corrections eps1 near a degenerate point."""

    kind: str  # a spectrum.DegeneracyKind
    values: tuple
    discriminant: float


def _d_first_order(k0, dk):
    dkx, dky = float(dk[0]), float(dk[1])
    return (
        dkx * math.cos(k0.kx),
        dky * math.cos(k0.ky),
        -dkx * math.sin(k0.kx) - dky * math.sin(k0.ky),
    )


def _degenerate_kind_and_eps(params, d):
    """I on the polar set and II on the contour, as the spectrum decides them (``_path``);
    III within 1e-7 of the locus equation."""
    from nlchern.spectrum import DegeneracyKind, _iii_residual, _path, iii_epsilon

    U = params.U
    path = _path(d, U)
    if path == "polar":
        return DegeneracyKind.I, 0.5 * U
    if path == "contour":
        return DegeneracyKind.II, U
    for sign in (1.0, -1.0):
        r = _iii_residual(d, U, sign)
        if r is not None and abs(r) <= 1e-7:
            return DegeneracyKind.III, iii_epsilon(d, U)
    raise ValueError("k0 is not a degenerate point of any recognized kind")


def bifurcation_correction(params, k0, dk):
    """First-order eigenvalue corrections a x^2 + b x + c = 0 near a degeneracy.

    Coefficients are the exact partial derivatives of the quartic f with
    respect to eps and the Bloch-vector components, contracted with the
    first-order displacement d^(1) = (dk . grad) d at k0.  The sign of the
    discriminant b^2 - 4ac decides whether the bifurcated pair is real.
    """
    from nlchern.model import bloch_vector

    if math.hypot(float(dk[0]), float(dk[1])) > 0.1 + 1e-12:
        raise ValueError("displacement |dk| must be small (<= 0.1)")
    U = params.U
    d0 = bloch_vector(params, k0)
    kind, eps0 = _degenerate_kind_and_eps(params, d0)

    dx1, dy1, dz1 = _d_first_order(k0, dk)
    A = eps0 - U
    B = eps0 - 0.5 * U
    s0 = d0.planar_sq
    z0 = d0.dz

    f_eps = 2.0 * A * B * B + 2.0 * A * A * B - 2.0 * z0 * z0 * B - 2.0 * s0 * A
    f_epseps = 2.0 * B * B + 8.0 * A * B + 2.0 * A * A - 2.0 * z0 * z0 - 2.0 * s0

    a = 0.5 * f_epseps
    b = f_eps + (-4.0 * d0.dx * A) * dx1 + (-4.0 * d0.dy * A) * dy1 + (-4.0 * z0 * B) * dz1
    c = (
        (-2.0 * d0.dx * A * A) * dx1
        + (-2.0 * d0.dy * A * A) * dy1
        + (-2.0 * z0 * B * B) * dz1
        + 0.5 * (-2.0 * A * A) * (dx1 * dx1 + dy1 * dy1)
        + 0.5 * (-2.0 * B * B) * dz1 * dz1
    )

    scale = max(1.0, U * U, d0.magnitude ** 2)
    if abs(a) <= 1e-10 * scale:
        raise AtCriticalityError(
            f"quadratic coefficient vanishes at the {kind.value}-type point: "
            "U sits exactly at the critical strength"
        )
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return BifurcationResult(kind, (), disc)
    r = math.sqrt(disc)
    vals = tuple(sorted(((-b - r) / (2.0 * a), (-b + r) / (2.0 * a))))
    return BifurcationResult(kind, vals, disc)


# ---------------------------------------------------------------------------
# lattice plaquette-link Chern number
# ---------------------------------------------------------------------------

def plaquette_chern(u, band="ground", n=100):
    """Chern number from plaquette link phases of the linear QWZ bands.

    The plaquette loop is traversed y-edge first, which orients the zone
    so the ground band reproduces sgn(u+2)/2 + sgn(u-2)/2 - sgn(u).
    """
    ks = 2.0 * np.pi * np.arange(n) / n
    KX, KY = np.meshgrid(ks, ks, indexing="ij")
    dz = u + np.cos(KX) + np.cos(KY)
    H = np.empty((n, n, 2, 2), complex)
    H[..., 0, 0] = dz
    H[..., 1, 1] = -dz
    H[..., 0, 1] = np.sin(KX) - 1j * np.sin(KY)
    H[..., 1, 0] = np.sin(KX) + 1j * np.sin(KY)
    _, vecs = np.linalg.eigh(H)
    idx = 0 if band == "ground" else 1
    st = vecs[..., :, idx]
    ux = np.einsum("ijk,ijk->ij", st.conj(), np.roll(st, -1, axis=0))
    uy = np.einsum("ijk,ijk->ij", st.conj(), np.roll(st, -1, axis=1))
    ux /= np.abs(ux)
    uy /= np.abs(uy)
    loop = uy * np.roll(ux, -1, axis=1) * np.conj(np.roll(uy, -1, axis=0)) * np.conj(ux)
    return float(np.angle(loop).sum() / (2.0 * np.pi))


# ---------------------------------------------------------------------------
# linear (U = 0) propagator from midpoint matrix exponentials
# ---------------------------------------------------------------------------

def _expm_steps(u, k0, F, t0, t1, n_sub):
    """Step propagators exp(-i H(t_mid) h) for n_sub substeps of [t0, t1]."""
    h = (t1 - t0) / n_sub
    tm = t0 + (np.arange(n_sub) + 0.5) * h
    kx = k0[0] + F[0] * tm
    ky = k0[1] + F[1] * tm
    dx = np.sin(kx)
    dy = np.sin(ky)
    dz = u + np.cos(kx) + np.cos(ky)
    m = np.sqrt(dx * dx + dy * dy + dz * dz)
    c = np.cos(m * h)
    sn = np.where(m > 0, np.sin(m * h) / np.where(m > 0, m, 1.0), h)
    mats = np.empty((n_sub, 2, 2), complex)
    mats[:, 0, 0] = c - 1j * sn * dz
    mats[:, 0, 1] = -1j * sn * (dx - 1j * dy)
    mats[:, 1, 0] = -1j * sn * (dx + 1j * dy)
    mats[:, 1, 1] = c + 1j * sn * dz
    return mats


def _ordered_product(mats):
    """Time-ordered product mats[-1] @ ... @ mats[0] by binary reduction."""
    while mats.shape[0] > 1:
        rem = None
        if mats.shape[0] % 2 == 1:
            rem = mats[-1:]
            mats = mats[:-1]
        mats = np.matmul(mats[1::2], mats[0::2])
        if rem is not None:
            mats = np.concatenate([mats, rem], axis=0)
    return mats[0]


def linear_propagate(u, k0, F, psi0, sample_times, dt_fine=1e-4):
    """States of i dpsi/dt = H_L(k0 + F t) psi at the given sample times."""
    psi = np.asarray(psi0, dtype=complex).copy()
    states = [psi.copy()]
    for t0, t1 in zip(sample_times[:-1], sample_times[1:]):
        n_sub = max(1, int(round((t1 - t0) / dt_fine)))
        seg = _ordered_product(_expm_steps(u, k0, F, t0, t1, n_sub))
        psi = seg @ psi
        states.append(psi.copy())
    return states


def ray_distance(a, b):
    """Global-phase-invariant distance between states (normalized first)."""
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    ov = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, ov)))


def tube_strength_scan(u, n=2001):
    """min 2 sqrt(sin^2 kx + sin^2 ky) over the dz = 0 contour, by a kx scan."""
    kx = np.linspace(0.0, 2.0 * math.pi, n)
    c = -u - np.cos(kx)  # cos ky on the contour
    valid = np.abs(c) <= 1.0
    if not np.any(valid):
        return math.inf
    s = np.sin(kx[valid]) ** 2 + 1.0 - c[valid] ** 2
    return float(2.0 * np.sqrt(np.min(s)))


# ---------------------------------------------------------------------------
# pumped charge with two separate component columns
# ---------------------------------------------------------------------------

def pumped_charge_reference(u, U, psi0, F, dt, ky0=0.0, renormalize_every=1):
    """nu from the two-column RK4 loop: p1, p2 held apart, d(t) rebuilt per stage.

    ``psi0`` holds the start state of each k_x column, one row per column,
    on the grid kx = 2 pi j / n.  Same cycle closure and trapezoid rule as
    the package, written with real operands and the velocity accumulated
    step by step.  Each step's velocity is divided by that step's norm^2,
    and the state is renormalized at the start and after every
    ``renormalize_every`` steps: 1 renormalizes every step, the package's
    ``_DRIVE_BLOCK`` gives its schedule.
    """
    n_kx = len(psi0)
    kxs = 2.0 * math.pi * np.arange(n_kx) / n_kx
    p1 = np.array(psi0[:, 0], dtype=complex)
    p2 = np.array(psi0[:, 1], dtype=complex)
    T = 2.0 * math.pi / F
    n_steps = max(1, round(T / dt))
    dt = T / n_steps
    sx, cx = np.sin(kxs), np.cos(kxs)

    def rhs(t, q1, q2):
        ky = ky0 + F * t
        dy, dz = math.sin(ky), u + cx + math.cos(ky)
        n1 = q1.real**2 + q1.imag**2
        n2 = q2.real**2 + q2.imag**2
        od = sx - 1j * dy
        h1 = (dz + U * n1) * q1 + od * q2
        h2 = od.conjugate() * q1 + (U * n2 - dz) * q2
        return -1j * h1, -1j * h2

    def velocity(q1, q2):
        """The velocity of the normalized state, and the norm^2 of (q1, q2)."""
        n1 = q1.real**2 + q1.imag**2
        n2 = q2.real**2 + q2.imag**2
        sigx = 2.0 * (q1.conjugate() * q2).real
        return (cx * sigx - sx * (n1 - n2)) / (n1 + n2), n1 + n2

    Q = np.zeros(n_kx)
    v_prev, norm = velocity(p1, p2)
    p1 /= np.sqrt(norm)
    p2 /= np.sqrt(norm)
    half = 0.5 * dt
    for n in range(n_steps):
        t = n * dt
        a1, a2 = rhs(t, p1, p2)
        b1, b2 = rhs(t + half, p1 + half * a1, p2 + half * a2)
        c1, c2 = rhs(t + half, p1 + half * b1, p2 + half * b2)
        d1, d2 = rhs(t + dt, p1 + dt * c1, p2 + dt * c2)
        p1 = p1 + dt / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        p2 = p2 + dt / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        v_new, norm = velocity(p1, p2)
        if (n + 1) % renormalize_every == 0:
            p1 /= np.sqrt(norm)
            p2 /= np.sqrt(norm)
        Q += 0.5 * dt * (v_prev + v_new)
        v_prev = v_new
    return -float(Q.mean())


# ---------------------------------------------------------------------------
# loop versions of batched package code
# ---------------------------------------------------------------------------

def pumped_charge_stacked(params, band, F, n_kx, dt):
    """(nu, Q, dt, steps) from a stacked (2, n_kx) state and a drive rebuilt per half-step.

    The time loop of ``response.pumped_charge`` before its state became one
    flat vector: each column's [p1, p2] is a column of P, the drive
    coefficients come from a ``drive(t)`` closure at t + dt/2 and t + dt,
    the spin sums index the two rows, and the state is renormalized after
    each step whose count is a multiple of ``_DRIVE_BLOCK``.  The stepper,
    the cycle closure, the spin ratios over each step's own norm^2 and the
    trapezoid rule are the package's.
    """
    from nlchern.dynamics import rk4_columns
    from nlchern.response import _DRIVE_BLOCK, _velocity, kx_columns, sweep_initial_states

    kxs = kx_columns(n_kx)
    P = np.ascontiguousarray(sweep_initial_states(params, band, kxs).T)

    T = 2.0 * math.pi / F
    n_steps = max(1, round(T / dt))
    dt = T / n_steps
    sin_kx = np.sin(kxs)
    cos_kx = np.cos(kxs)
    dz0 = params.u + cos_kx
    # drive(t) = base + shift: D = [dz, -dz] and O = [dx - i dy, dx + i dy]
    base = np.array([[dz0, -dz0], [sin_kx, sin_kx]], dtype=complex)
    shift = np.zeros((2, 2, 1), dtype=complex)

    def drive(t):
        ky = F * t
        cy, sy = math.cos(ky), math.sin(ky)
        shift[0, 0, 0], shift[0, 1, 0] = cy, -cy
        shift[1, 0, 0], shift[1, 1, 0] = -1j * sy, 1j * sy
        DO = base + shift
        return DO[0], DO[1]

    def spin(P):
        """Re(p1* p2) and |p1|^2 - |p2|^2 over the norm^2, and the norm^2."""
        n1, n2 = P.real**2 + P.imag**2
        norm = n1 + n2
        cross = (P[0].real * P[1].real + P[0].imag * P[1].imag) / norm
        return cross, (n1 - n2) / norm, norm

    half = 0.5 * dt
    step = rk4_columns(params.U, dt, P)
    x0, z0, norm = spin(P)
    P = P / np.sqrt(norm)
    X, Z = x0.copy(), z0.copy()
    a = drive(0.0)
    for n in range(n_steps):
        t = n * dt
        b, c = drive(t + half), drive(t + dt)
        P = step(a, b, c, P, np.empty_like(P))
        a = c
        x, z, norm = spin(P)
        if (n + 1) % _DRIVE_BLOCK == 0:
            P = P / np.sqrt(norm)
        X += x
        Z += z
    X -= 0.5 * (x0 + x)
    Z -= 0.5 * (z0 + z)
    Q = dt * _velocity(cos_kx, sin_kx, X, Z)
    return -float(Q.mean()), tuple(map(float, Q)), dt, n_steps


def mean_energy_reference(params, k, psi):
    """<psi| H(k, psi) |psi> of one state through Python's complex operators, the
    reference of the elementwise ``dynamics.mean_energy``, with d(k) from ``_bloch``."""
    c1, c2 = psi.c1, psi.c2
    n1 = c1.real * c1.real + c1.imag * c1.imag
    n2 = c2.real * c2.real + c2.imag * c2.imag
    cross = c1.conjugate() * c2
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = n1 - n2
    dx, dy, dz = _bloch(params, k)
    return dx * sx + dy * sy + dz * sz + params.U * (n1 * n1 + n2 * n2)


def projections_reference(psi, pairs):
    """P_i = |<chi_i|psi>|^2 against the eigenpairs ``pairs`` of one k through Python's
    complex operators, the reference of the elementwise ``dynamics.instantaneous_projections``."""
    out = []
    for pair in pairs:
        ov = pair.state.c1.conjugate() * psi.c1 + pair.state.c2.conjugate() * psi.c2
        out.append(ov.real * ov.real + ov.imag * ov.imag)
    return tuple(out)


def evolve_interleaved(params, drive, initial, sample_every):
    """``evolve`` records from a loop that builds each record as it samples.

    The body of ``dynamics.evolve`` before its time loop only stepped and
    kept its samples: ``sample`` checks the norm and builds the record
    fields in the loop, and ``flush`` solves the spectra of each full block
    of pending samples, and of the last partial one after the loop.
    """
    from nlchern.dynamics import (
        _SPECTRUM_BLOCK,
        NORM_ABORT,
        NumericalHealthError,
        TrajectoryRecord,
        norm_squared,
        rk4_step,
        rk4_weights,
    )
    from nlchern.model import KPoint, Spinor, bloch_vector
    from nlchern.spectrum import nonlinear_spectra

    u, U = params.u, params.U
    kx0, ky0 = drive.k0.kx, drive.k0.ky
    fx, fy = drive.F
    # the whole number of steps nearest T / dt, each T / n_steps long
    n_steps = max(1, round(drive.T / drive.dt))
    dt = drive.T / n_steps

    p1 = complex(initial.c1)
    p2 = complex(initial.c2)

    records = []
    pending = []  # (record fields, normalized state) of samples awaiting their spectra

    def sample(step):
        t = step * dt
        k = KPoint(kx0 + fx * t, ky0 + fy * t)
        norm = math.sqrt(norm_squared(p1, p2))
        if abs(norm - 1.0) > NORM_ABORT:
            raise NumericalHealthError(f"norm drift |{norm} - 1| > {NORM_ABORT} at t={t:.4g}")
        psi = Spinor(p1 / norm, p2 / norm)
        fields = (t, k, Spinor(p1, p2), norm, mean_energy_reference(params, k, psi))
        pending.append((fields, psi))
        if len(pending) == _SPECTRUM_BLOCK:
            flush()

    def flush():
        ks = [fields[1] for fields, _ in pending]
        ds = [bloch_vector(params, k) for k in ks]
        spectra = nonlinear_spectra([(d.dx, d.dy, d.dz) for d in ds], U).pairs()
        for (fields, psi), k, pairs in zip(pending, ks, spectra):
            records.append(TrajectoryRecord(*fields, projections_reference(psi, pairs)))
        pending.clear()

    def drive_at(t):
        kx, ky = kx0 + fx * t, ky0 + fy * t
        return u + math.cos(kx) + math.cos(ky), complex(math.sin(kx), -math.sin(ky))

    half = 0.5 * dt
    w = rk4_weights(dt)
    a = drive_at(0.0)
    sample(0)
    for n in range(n_steps):
        t = n * dt
        b, c = drive_at(t + half), drive_at(t + dt)
        p1, p2 = rk4_step(U, w, a, b, c, p1, p2)
        a = c
        if (n + 1) % sample_every == 0:
            sample(n + 1)
    if pending:
        flush()
    return records


def evolve_per_sample(params, drive, initial, sample_every):
    """``evolve`` records with projections from one ``physical_spectrum`` call per sample."""
    from nlchern.dynamics import TrajectoryRecord, evolve
    from nlchern.model import Spinor
    from nlchern.spectrum import physical_spectrum

    out = []
    for rec in evolve(params, drive, initial, sample_every=sample_every):
        psi = Spinor(rec.psi.c1 / rec.norm, rec.psi.c2 / rec.norm)
        proj = projections_reference(psi, physical_spectrum(params, rec.k))
        out.append(TrajectoryRecord(rec.t, rec.k, rec.psi, rec.norm, rec.energy, proj))
    return out


def write_csv(header, rows, path):
    """A CSV written row by row through csv.writer, 17 significant digits per float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def band_rows(kx, ky, spectra):
    """``bands.csv``'s rows as Python numbers, node by node from the flat arrays of
    ``band_surface``: one row per branch, a state repeated once per unit of its
    multiplicity, branch_index counting from 0 at each node."""
    kx, ky, eps, kappa, c1, c2, mult = (
        a.tolist() for a in (kx, ky, spectra.epsilon, spectra.kappa, spectra.c1, spectra.c2, spectra.multiplicity)
    )
    bounds = spectra.offsets.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        branch = 0
        for s in range(lo, hi):
            for _ in range(mult[s]):
                yield (kx[i], ky[i], branch, eps[s], kappa[s], c1[s].real, c1[s].imag, c2[s].real, c2[s].imag)
                branch += 1


def write_bands_csv(rows, path):
    """``bands.csv`` written row by row through csv.writer, 17 significant digits per float."""
    header = ["kx", "ky", "branch_index", "epsilon", "kappa", "re_c1", "im_c1", "re_c2", "im_c2"]
    write_csv(header, rows, path)


def write_response_columns_csv(summary, path):
    """``response_columns.csv`` through csv.writer: each column's k_x = 2 pi j / n and its Q."""
    n = len(summary.Q)
    write_csv(["kx", "Q"], ((2.0 * math.pi * j / n, q) for j, q in enumerate(summary.Q)), path)


def write_trajectory_csv(records, path):
    """``trajectory.csv`` through csv.writer: t, kx, ky, norm, energy, P1..P4 (blank where absent)."""
    rows = (
        (rec.t, rec.k.kx, rec.k.ky, rec.norm, rec.energy, *rec.projections[:4], *[""] * (4 - len(rec.projections)))
        for rec in records
    )
    write_csv(["t", "kx", "ky", "norm", "energy", "P1", "P2", "P3", "P4"], rows, path)


def write_phase_diagram_csv(diagram, path):
    """``phase_diagram.csv`` through csv.writer, one u, U, label row per cell."""
    rows = (
        (u, U, diagram.labels[i][j])
        for i, u in enumerate(diagram.u_values)
        for j, U in enumerate(diagram.U_values)
    )
    write_csv(["u", "U", "label"], rows, path)
