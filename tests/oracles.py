"""Independent reference computations used to validate the package.

Deliberately avoids the package's quartic/eigenstate machinery: spectra
come from a population-imbalance fixed-point scan, fold points from a
grid scan of the locus residual, III-type degenerate points from sign
changes of the locus residual on the edges of an n x n zone grid, each
bisected, Chern numbers from a lattice plaquette-link calculation, and
time evolution from midpoint matrix exponentials of the linear
Hamiltonian.  Loop versions of batched package code are kept as
references: the pumped-charge loop on a stacked (2, n) state, the
trajectory loop that builds each record as it samples, the per-sample
spectra of a trajectory and the csv.writer loops of
``bands.csv``, ``trajectory.csv`` and ``phase_diagram.csv``.
"""

import csv
import decimal
import math

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
# diagonal fold points of the effective model by a grid scan
# ---------------------------------------------------------------------------

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

def pumped_charge_reference(u, U, psi0, F, dt, ky0=0.0):
    """nu from the two-column RK4 loop: p1, p2 held apart, d(t) rebuilt per stage.

    ``psi0`` holds the normalized start state of each k_x column, one row
    per column, on the grid kx = 2 pi j / n.  Same cycle closure, per-step
    renormalization and trapezoid rule as the package, written with real
    operands and the velocity accumulated step by step.
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
        sigx = 2.0 * (q1.conjugate() * q2).real
        sigz = (q1.real**2 + q1.imag**2) - (q2.real**2 + q2.imag**2)
        return cx * sigx - sx * sigz

    Q = np.zeros(n_kx)
    v_prev = velocity(p1, p2)
    half = 0.5 * dt
    for n in range(n_steps):
        t = n * dt
        a1, a2 = rhs(t, p1, p2)
        b1, b2 = rhs(t + half, p1 + half * a1, p2 + half * a2)
        c1, c2 = rhs(t + half, p1 + half * b1, p2 + half * b2)
        d1, d2 = rhs(t + dt, p1 + dt * c1, p2 + dt * c2)
        p1 = p1 + dt / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        p2 = p2 + dt / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        norm = np.sqrt(p1.real**2 + p1.imag**2 + p2.real**2 + p2.imag**2)
        p1 /= norm
        p2 /= norm
        v_new = velocity(p1, p2)
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
    and the spin sums index the two rows.  The stepper, the cycle closure,
    the per-step renormalization and the trapezoid rule are the package's.
    """
    from nlchern.dynamics import rk4_columns, rk4_weights
    from nlchern.response import _velocity, kx_columns, sweep_initial_states

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
        conj = P.conjugate()
        n = conj * P
        norm = n + n[::-1]
        cross = conj[0] * P[1] / norm[0]
        imbalance = (n[0] - n[1]) / norm[0]
        P /= np.sqrt(norm)
        return cross, imbalance

    U = np.array(complex(params.U))
    w = tuple(map(np.array, rk4_weights(dt)))
    half = 0.5 * dt
    step = rk4_columns(U, w, P)
    x0, z0 = spin(P)
    X, Z = x0.copy(), z0.copy()
    a = drive(0.0)
    for n in range(n_steps):
        t = n * dt
        b, c = drive(t + half), drive(t + dt)
        P = step(a, b, c, P, np.empty_like(P))
        a = c
        x, z = spin(P)
        X += x
        Z += z
    X -= 0.5 * (x0 + x)
    Z -= 0.5 * (z0 + z)
    Q = dt * _velocity(cos_kx, sin_kx, X.real, Z.real)
    return -float(Q.mean()), tuple(map(float, Q)), dt, n_steps


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
        instantaneous_projections,
        mean_energy,
        norm_squared,
        rk4_step,
        rk4_weights,
    )
    from nlchern.model import KPoint, Spinor, bloch_vector
    from nlchern.spectrum import nonlinear_spectra

    u, U = params.u, params.U
    kx0, ky0 = drive.k0.kx, drive.k0.ky
    fx, fy = drive.F
    dt = drive.dt
    n_steps = int(round(drive.T / dt))

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
        fields = (t, k, Spinor(p1, p2), norm, mean_energy(params, k, psi))
        pending.append((fields, psi))
        if len(pending) == _SPECTRUM_BLOCK:
            flush()

    def flush():
        ks = [fields[1] for fields, _ in pending]
        spectra = nonlinear_spectra([bloch_vector(params, k) for k in ks], U)
        for (fields, psi), k, pairs in zip(pending, ks, spectra):
            records.append(TrajectoryRecord(*fields, instantaneous_projections(psi, pairs)))
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
    from nlchern.dynamics import TrajectoryRecord, evolve, instantaneous_projections
    from nlchern.model import Spinor
    from nlchern.spectrum import physical_spectrum

    out = []
    for rec in evolve(params, drive, initial, sample_every=sample_every):
        psi = Spinor(rec.psi.c1 / rec.norm, rec.psi.c2 / rec.norm)
        proj = instantaneous_projections(psi, physical_spectrum(params, rec.k))
        out.append(TrajectoryRecord(rec.t, rec.k, rec.psi, rec.norm, rec.energy, proj))
    return out


def write_bands_csv(rows, path):
    """``bands.csv`` written row by row through csv.writer, 17 significant digits per float."""
    header = ["kx", "ky", "branch_index", "epsilon", "kappa", "re_c1", "im_c1", "re_c2", "im_c2"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def write_trajectory_csv(records, path):
    """``trajectory.csv`` through csv.writer: t, kx, ky, norm, energy, P1..P4 (blank where absent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "kx", "ky", "norm", "energy", "P1", "P2", "P3", "P4"])
        for rec in records:
            proj = [f"{p:.17g}" for p in rec.projections[:4]]
            proj += [""] * (4 - len(proj))
            writer.writerow(
                [
                    f"{rec.t:.17g}",
                    f"{rec.k.kx:.17g}",
                    f"{rec.k.ky:.17g}",
                    f"{rec.norm:.17g}",
                    f"{rec.energy:.17g}",
                    *proj,
                ]
            )


def write_phase_diagram_csv(diagram, path):
    """``phase_diagram.csv`` through csv.writer, one u, U, label row per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "U", "label"])
        for i, u in enumerate(diagram.u_values):
            for j, U in enumerate(diagram.U_values):
                writer.writerow([f"{u:.17g}", f"{U:.17g}", diagram.labels[i][j]])
