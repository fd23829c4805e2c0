"""Hall-type linear response of the driven nonlinear Chern insulator.

Each k_x column is initialized in a band eigenstate at (k_x, 0) and
dragged through one full cycle k_y(t) = F t, T = 2*pi/F, while the
velocity expectation

    v = <(1/hbar) dH/dk_x> = cos(kx) <sigma_x> - sin(kx) <sigma_z>

is accumulated into the transported charge per cycle Q(k_x).  All columns
step together as one flat state [p1 by column, p2 by reversed column]
through the stepper of ``dynamics.rk4_columns``, the RK4 and row formula
that ``dynamics.evolve`` runs on scalars; reversing the vector pairs every
entry with its partner component, so each numpy call of the loop runs on
whole 1-D vectors.  The loop runs on buffers made once, so a step makes
only its numpy calls: the stepper, a drive table whose column-independent
shift (cos k_y, sin k_y) is refilled in place a block of steps at a time,
and the RK4 output of each step of a block with the pieces of its norm,
from which the block's spin ratios are formed in four calls and summed in
one.  The response number nu averages Q
over columns; its sign fixes the Brillouin zone orientation so that in
the adiabatic linear limit nu reproduces the ground-band Chern number of
``model.chern_number``.  Nonlinearity first
shifts nu off the integer and, once the swept band develops cone or tube
structures, destroys the quantization altogether; the phase diagram below
labels those regimes from the analytic critical strengths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import check_norm_drift, rk4_columns, rk4_weights
from .model import GaplessParameterError, KPoint, ModelParams, chern_number
from .spectrum import physical_spectrum

# steps per block of ``pumped_charge``: its drive table (refilled in place
# every block) and its per-step buffers hold one block; 256 raised the peak
# resident memory of the README response command by 5.3 MB over 32
_DRIVE_BLOCK = 32


class RegimeError(RuntimeError):
    """A requested band branch does not exist at a sweep start point."""


@dataclass(frozen=True)
class ResponseSummary:
    """Pumped charge of one drive cycle; ``Q`` holds the charge of each k_x column."""

    u: float
    U: float
    F: float
    band: str
    nu: float
    nu_linear: int | None
    adiabatic: bool
    n_kx: int
    steps: int
    dt: float
    Q: tuple[float, ...]
    max_norm_drift: float
    nu_even_columns: float
    nu_odd_columns: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _velocity(cos_kx, sin_kx, cross, imbalance):
    """cos(kx) <sigma_x> - sin(kx) <sigma_z> from Re(p1* p2) and |p1|^2 - |p2|^2.

    Linear in the two spin components, so it also maps their time
    integrals to the integral of the velocity.
    """
    return cos_kx * (2.0 * cross) - sin_kx * imbalance


def kx_columns(n_kx: int) -> np.ndarray:
    """The k_x columns 2 pi j / n_kx, j = 0 .. n_kx - 1, of the pumped charge."""
    return 2.0 * math.pi * np.arange(n_kx) / n_kx


def sweep_initial_states(params: ModelParams, band: str, kxs) -> np.ndarray:
    """Band eigenstates at the sweep start points (kx, 0), one per column."""
    index = _band(band)[0]
    psi = np.empty((len(kxs), 2), dtype=complex)
    for i, kx in enumerate(kxs):
        pairs = physical_spectrum(params, KPoint(float(kx), 0.0))
        if len(pairs) < 2:
            raise RegimeError(
                f"band structure at kx={kx:.6g}, ky=0 has fewer than two "
                f"branches; no {band} branch to start from"
            )
        psi[i] = pairs[index].state.as_array()
    return psi


def pumped_charge(params: ModelParams, band: str, F: float, n_kx: int, dt: float) -> ResponseSummary:
    """Transported charge per drive cycle, averaged over k_x columns.

    All columns share the drive k_y(t) = F t and step together through
    the stepper of ``dynamics.rk4_columns`` as one flat state P = [p1, p2
    reversed], so ``P[::-1]`` is the partner component of every entry;
    D = [dz, -dz reversed] and O = [dx - i dy, (dx + i dy) reversed] are
    laid out the same way.  The drive shift (cos k_y, sin k_y) is the same
    for every column, so the loop takes D and O as rows of one table, whose
    cos k_y and sin k_y parts each block of ``_DRIVE_BLOCK`` steps rewrites
    in place.  The step is shrunk from ``dt`` to T / round(T / dt), so the
    steps add up to exactly one cycle T = 2*pi/F.
    The state is renormalized after every step: a full cycle takes 2*pi/F
    time units and the drift bound matters there; ``max_norm_drift`` is the
    largest |norm^2 - 1| met before a renormalization, and a block of steps
    whose drift fails ``dynamics.check_norm_drift`` aborts.  The velocity is
    linear in Re(p1* p2) and |p1|^2 - |p2|^2, so the loop only sums those
    two per entry (the first half of each sum is the columns'); the
    trapezoid end weights and the velocity formula are applied once, after
    the loop.

    Each step writes its RK4 output, before the renormalization, into a
    row of a ``_DRIVE_BLOCK``-row buffer, with its conjugate, conj * P and
    norm^2 in three more; the renormalized state goes to one fixed P.  At
    the end of a block the two spin ratios conj * P[::-1] / norm^2 and
    (n - n[::-1]) / norm^2 are formed for all its rows at once, and one
    ``np.add.accumulate`` over [running sums; the block's rows] adds them
    strictly in step order, as a step-by-step loop does.
    ``nu_even_columns`` and ``nu_odd_columns`` are nu over the even and
    over the odd columns alone (None without an odd column); their spread
    estimates how far nu is from converged in ``n_kx``.
    """
    if not (math.isfinite(F) and F > 0.0):
        raise ValueError("drive rate F must be positive and finite")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if n_kx < 1:
        raise ValueError("n_kx must be at least 1")
    kxs = kx_columns(n_kx)
    psi0 = sweep_initial_states(params, band, kxs)
    P = np.concatenate([psi0[:, 0], psi0[::-1, 1]])

    T = 2.0 * math.pi / F
    n_steps = max(1, round(T / dt))
    dt = T / n_steps
    sin_kx = np.sin(kxs)
    cos_kx = np.cos(kxs)
    dz0 = params.u + cos_kx
    sin_flat = np.concatenate([sin_kx, sin_kx[::-1]])

    U = np.array(complex(params.U))
    w = tuple(map(np.array, rk4_weights(dt)))
    step = rk4_columns(U, w, P)
    half = 0.5 * dt
    # row 0 holds a block's start drive, rows 2j + 1 and 2j + 2 step j's
    # drive at t + dt/2 and t + dt; D.imag and O.real are written once
    D = np.zeros((2 * _DRIVE_BLOCK + 1, 2 * n_kx), dtype=complex)
    O = np.empty_like(D)
    O.real = sin_flat

    def refill(lo, times):
        """Write the drive at each of ``times`` into the table from row ``lo`` on."""
        cy = np.array([math.cos(F * t) for t in times])[:, None]
        sy = np.array([math.sin(F * t) for t in times])[:, None]
        Dr, Oi = D.real[lo : lo + len(times)], O.imag[lo : lo + len(times)]
        np.add(dz0, cy, out=Dr[:, :n_kx])
        np.add(-dz0[::-1], -cy, out=Dr[:, n_kx:])
        np.subtract(0.0, sy, out=Oi[:, :n_kx])  # +0.0, not -0.0, where sin ky = 0
        Oi[:, n_kx:] = sy

    # per step of a block: the RK4 output before its renormalization, its
    # conjugate, conj * output and norm^2; S holds the running spin sums in
    # row 0 and the block's spin ratios after it, A their running sums
    R, C, N, norms = np.empty((4, _DRIVE_BLOCK, 2 * n_kx), dtype=complex)
    S, A = np.empty((2, _DRIVE_BLOCK + 1, 2, 2 * n_kx), dtype=complex)
    rows = tuple(zip(D, O))
    steps = tuple(zip(rows[0::2], rows[1::2], rows[2::2], R, C, N, N[:, ::-1], norms))
    root = np.empty_like(P)

    def spin(m):
        """p1* p2 and |p1|^2 - |p2|^2 over the norm^2 of the first m rows, into S[1:m + 1].

        The first halves belong to the columns, and their real parts are
        the two spin components the velocity needs.
        """
        cross, imbalance = S[1 : m + 1, 0], S[1 : m + 1, 1]
        np.divide(np.multiply(C[:m], R[:m, ::-1], cross), norms[:m], cross)
        np.divide(np.subtract(N[:m], N[:m, ::-1], imbalance), norms[:m], imbalance)

    conjugate, multiply, add, divide, sqrt = np.conjugate, np.multiply, np.add, np.divide, np.sqrt
    R[0] = P
    conjugate(P, C[0])
    multiply(C[0], P, N[0])
    add(N[0], N[0, ::-1], norms[0])
    divide(R[0], sqrt(norms[0], root), P)
    spin(1)
    S[0] = xz0 = S[1].copy()
    drifts = []
    refill(0, [0.0])
    for j0 in range(0, n_steps, _DRIVE_BLOCK):
        js = range(j0, min(j0 + _DRIVE_BLOCK, n_steps))
        times = [t for j in js for t in (j * dt + half, j * dt + dt)]
        refill(1, times)
        m = len(times) // 2
        for a, b, c, r, conj, n, n_rev, norm in steps[:m]:
            step(a, b, c, P, r)
            conjugate(r, conj)
            multiply(conj, r, n)
            add(n, n_rev, norm)
            divide(r, sqrt(norm, root), P)
        # the next block starts from this one's last t + dt row
        D[0], O[0] = D[2 * m], O[2 * m]
        # one sequential accumulate adds the steps one by one, in step order
        spin(m)
        add.accumulate(S[: m + 1], axis=0, out=A[: m + 1])
        S[0] = A[m]
        drifts.append(np.abs(norms[:m].real - 1.0).max())
        check_norm_drift(drifts[-1], times[-1], dt)
    # trapezoid rule: the end points carry half weight
    S[0] -= 0.5 * (xz0 + S[m])
    X, Z = S[0, :, :n_kx].real
    Q = dt * _velocity(cos_kx, sin_kx, X, Z)

    # Zone orientation fixed so the linear adiabatic limit returns the
    # ground-band Chern number (and its negative for the excited band).
    nu = -float(Q.mean())
    nu_even, nu_odd = (-float(Q[j::2].mean()) if n_kx > j else None for j in (0, 1))

    try:
        nu_linear = _band(band)[2] * chern_number(params.u)
    except GaplessParameterError:
        nu_linear = None

    return ResponseSummary(
        u=params.u,
        U=params.U,
        F=F,
        band=band,
        nu=nu,
        nu_linear=nu_linear,
        adiabatic=is_adiabatic(params, band),
        n_kx=n_kx,
        steps=n_steps,
        dt=dt,
        Q=tuple(map(float, Q)),
        max_norm_drift=float(np.max(drifts)),
        nu_even_columns=nu_even,
        nu_odd_columns=nu_odd,
    )


# ---------------------------------------------------------------------------
# adiabatic / non-adiabatic phase diagram
# ---------------------------------------------------------------------------

def ground_critical_strength(u: float) -> float:
    """Kerr strength opening the first ground-band cone on the sweep path.

    The diagonal path crosses the polar points (0, 0) and (pi, pi) with
    critical strengths 2|u + 2| and 2|u - 2|; the smaller of the two is
    2 * ||u| - 2|.
    """
    return 2.0 * abs(abs(u) - 2.0)


def excited_critical_strength(u: float) -> float:
    """Minimal Kerr strength opening the excited-band tube, over the dz=0 contour.

    The tube opens at U = 2 sqrt(s), s = sin^2 kx + sin^2 ky, minimized
    over the contour u + cos kx + cos ky = 0.  With c = cos kx the contour
    gives s = 2 - c^2 - (u + c)^2, concave in c and equal at both ends of
    the allowed range, where s = |u| (2 - |u|).  The contour exists only
    for |u| < 2; returns +inf otherwise (the excited band never develops a
    tube).
    """
    if abs(u) >= 2.0:
        return math.inf
    return 2.0 * math.sqrt(abs(u) * (2.0 - abs(u)))


# band -> (index among the energy-sorted stationary states at a sweep start,
# critical strength as a function of u, sign of its linear Chern number)
_BANDS = {
    "ground": (0, ground_critical_strength, 1),
    "excited": (-1, excited_critical_strength, -1),
}


def _band(band: str):
    """The ``_BANDS`` entry of the swept band."""
    if band not in _BANDS:
        raise ValueError('band must be "ground" or "excited"')
    return _BANDS[band]


def is_adiabatic(params: ModelParams, band: str) -> bool:
    """Whether the swept band stays free of nonlinearity-induced structure."""
    return not params.U > _band(band)[1](params.u)


@dataclass(frozen=True)
class PhaseDiagram:
    band: str
    u_values: tuple[float, ...]
    U_values: tuple[float, ...]
    labels: tuple[tuple[str, ...], ...]  # labels[i][j] for (u_values[i], U_values[j])


def phase_diagram(
    u_range: tuple[float, float], U_range: tuple[float, float], band: str, resolution: int
) -> PhaseDiagram:
    """Label each (u, U) cell A (adiabatic) or nA over the given ranges."""
    critical_strength = _band(band)[1]
    if not all(map(math.isfinite, (*u_range, *U_range))):
        raise ValueError("phase diagram bounds must be finite")
    if resolution < 2:
        raise ValueError("phase diagram needs at least a 2 x 2 grid")
    us = np.linspace(u_range[0], u_range[1], resolution)
    Us = np.linspace(U_range[0], U_range[1], resolution)
    labels = []
    for u in us:
        crit = critical_strength(float(u))
        labels.append(tuple("nA" if U > crit else "A" for U in Us))
    return PhaseDiagram(band, tuple(map(float, us)), tuple(map(float, Us)), tuple(labels))

