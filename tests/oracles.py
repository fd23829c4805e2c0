"""Independent reference computations used to validate the package.

Deliberately avoids the package's quartic/eigenstate machinery: spectra
come from a population-imbalance fixed-point scan, Chern numbers from a
lattice plaquette-link calculation, and time evolution from midpoint
matrix exponentials of the linear Hamiltonian.
"""

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
    reproduces the imbalance kappa it was built from.  At dx = dy = 0 the
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
        g = branch * heff / m - kap
        idx = np.where(np.sign(g[:-1]) * np.sign(g[1:]) <= 0)[0]
        for i in idx:
            lo, hi = float(kap[i]), float(kap[i + 1])

            def gval(x):
                h = dz + 0.5 * U * x
                return branch * h / math.sqrt(s + h * h) - x

            glo = gval(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                gm = gval(mid)
                if (glo < 0) == (gm < 0):
                    lo, glo = mid, gm
                else:
                    hi = mid
            kstar = 0.5 * (lo + hi)
            h = dz + 0.5 * U * kstar
            out.append(0.5 * U + branch * math.sqrt(s + h * h))
    return sorted(out)


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
