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
whole 1-D vectors.  The steps only integrate; the state is renormalized
by its real norm once per block of ``_DRIVE_BLOCK`` steps, in one
vectorized pass that also takes the block's spin ratios, each over its
own step's norm^2.  The response number nu averages Q over columns; its
sign fixes the Brillouin zone orientation so that in the adiabatic linear
limit nu reproduces the ground-band Chern number of ``model.chern_number``.
Nonlinearity first shifts nu off the integer and, once the swept band
develops cone or tube structures, destroys the quantization altogether;
the phase diagram below labels those regimes from the analytic critical
strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _blocks, _drive, check_energy_scale, check_norm_drift, rk4_columns, step_schedule
from .model import GaplessParameterError, KPoint, ModelParams, chern_number
from .spectrum import physical_spectrum

# steps per block of ``pumped_charge``: its drive and its state buffer
# hold one block; 256 raised the peak resident memory of the README
# response command by 5.3 MB over 32.  Part of the numerics: the state is
# renormalized once per block, so changing it moves nu and max_norm_drift
_DRIVE_BLOCK = 32


class RegimeError(RuntimeError):
    """A requested band branch does not exist at a sweep start point."""


@dataclass(frozen=True, slots=True)
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
    nu_even_columns: float | None
    nu_odd_columns: float | None


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
    laid out the same way.  Each block of ``_DRIVE_BLOCK`` steps takes
    them from ``dynamics._drive`` at the times of ``dynamics._blocks``, the
    drive and blocks of ``dynamics.evolve``.  The steps are those of
    ``dynamics.step_schedule``, as in ``evolve``: the whole number n of
    steps nearest T / dt, each T / n long, so they add up to exactly one
    cycle T = 2*pi/F.

    Step j of a block reads row j of a ``_DRIVE_BLOCK + 1``-row state
    buffer and writes its RK4 output, unnormalized, to row j + 1; row 0
    holds the block's normalized start state.  At the end of a block one
    vectorized pass takes, for all its rows at once, the real norm^2
    |p1|^2 + |p2|^2 and the two spin ratios Re(p1* p2) / norm^2 and
    (|p1|^2 - |p2|^2) / norm^2 of each row's columns, and writes the last
    row divided by its real norm into row 0.  The velocity is linear in
    the two ratios, so the loop only sums those per column: one sum over
    [running sums; the block's rows] adds them strictly in step order, as
    a step-by-step loop does, and the trapezoid end weights and the
    velocity formula are applied once, after the loop.
    ``max_norm_drift`` is the largest |norm^2 - 1| met since the last
    renormalization, and a block whose drift fails
    ``dynamics.check_norm_drift`` aborts.
    ``nu_even_columns`` and ``nu_odd_columns`` are nu over the even and
    over the odd columns alone, each then a uniform grid of n_kx / 2, and
    None for an odd ``n_kx``; their spread estimates how far nu is from
    converged in ``n_kx``.
    """
    if not (math.isfinite(F) and F > 0.0):
        raise ValueError("drive rate F must be positive and finite")
    T = 2.0 * math.pi / F
    n_steps, dt = step_schedule(T, dt)
    check_energy_scale(params, T)
    if n_kx < 1:
        raise ValueError("n_kx must be at least 1")
    kxs = kx_columns(n_kx)
    psi0 = sweep_initial_states(params, band, kxs)
    P = np.concatenate([psi0[:, 0], psi0[::-1, 1]])

    sin_kx = np.sin(kxs)
    cos_kx = np.cos(kxs)

    step = rk4_columns(params.U, dt, P)
    # rows 2j .. 2j + 2 of D and O hold step j's drive at t, t + dt/2 and
    # t + dt; B holds a block's normalized start state in row 0 and step
    # j's RK4 output in row j + 1; S holds the columns' running spin sums in
    # row 0 and the block's spin ratios after it
    D = np.zeros((2 * _DRIVE_BLOCK + 1, 2 * n_kx), dtype=complex)
    O = np.empty_like(D)
    B = np.empty((_DRIVE_BLOCK + 1, 2 * n_kx), dtype=complex)
    S = np.empty((_DRIVE_BLOCK + 1, 2, n_kx))
    rows = tuple(zip(D, O))
    steps = tuple(zip(rows[0::2], rows[1::2], rows[2::2], B[:-1], B[1:]))

    def renormalize(lo, m):
        """Spin ratios of rows lo .. m of B into S, row m normalized into row 0.

        Each row's Re(p1* p2) and |p1|^2 - |p2|^2 are divided by that row's
        own norm^2; returns the largest |norm^2 - 1| among the rows.
        """
        p1, p2 = B[lo : m + 1, :n_kx], B[lo : m + 1, ::-1][:, :n_kx]
        n1, n2 = p1.real**2 + p1.imag**2, p2.real**2 + p2.imag**2
        norm = n1 + n2
        np.divide(p1.real * p2.real + p1.imag * p2.imag, norm, S[lo : m + 1, 0])
        np.divide(n1 - n2, norm, S[lo : m + 1, 1])
        root = np.sqrt(norm[-1])
        np.divide(B[m], np.concatenate([root, root[::-1]]), B[0])
        return np.abs(norm - 1.0).max()

    B[0] = P
    renormalize(0, 0)
    xz0 = S[0].copy()
    max_drift = 0.0
    # a diverging state overflows or turns NaN before the block's drift
    # check aborts the run, which says all that numpy's warnings would
    with np.errstate(over="ignore", invalid="ignore"):
        for j0, j1, t in _blocks(n_steps, dt, _DRIVE_BLOCK):
            dz, o = _drive(params.u, kxs, (F * t)[:, None])
            D.real[: len(t)] = np.concatenate([dz, -dz[:, ::-1]], axis=1)
            O[: len(t)] = np.concatenate([o, o[:, ::-1].conjugate()], axis=1)
            m = j1 - j0
            for a, b, c, p, out in steps[:m]:
                step(a, b, c, p, out)
            drift = renormalize(1, m)
            max_drift = max(max_drift, drift)
            # a sum over the outer axis adds the rows one by one, in step order
            S[0] = S[: m + 1].sum(axis=0)
            check_norm_drift(drift, t[-1], dt)
    # trapezoid rule: the end points carry half weight
    S[0] -= 0.5 * (xz0 + S[m])
    X, Z = S[0]
    Q = dt * _velocity(cos_kx, sin_kx, X, Z)

    # Zone orientation fixed so the linear adiabatic limit returns the
    # ground-band Chern number (and its negative for the excited band).
    nu = -float(Q.mean())
    nu_even, nu_odd = (-float(Q[j::2].mean()) if n_kx % 2 == 0 else None for j in (0, 1))

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
        max_norm_drift=float(max_drift),
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


@dataclass(frozen=True, slots=True)
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
    # hi - lo is finite only if both bounds are and their span does not overflow
    if not all(math.isfinite(hi - lo) for lo, hi in (u_range, U_range)):
        raise ValueError("phase diagram bounds must be finite, and so must the span between them")
    if min(U_range) < 0:
        raise ValueError("U must be a finite nonnegative Kerr strength")
    if resolution < 2:
        raise ValueError("phase diagram needs at least a 2 x 2 grid")
    us = np.linspace(u_range[0], u_range[1], resolution)
    Us = np.linspace(U_range[0], U_range[1], resolution)
    labels = []
    for u in us:
        crit = critical_strength(float(u))
        labels.append(tuple("nA" if U > crit else "A" for U in Us))
    return PhaseDiagram(band, tuple(map(float, us)), tuple(map(float, Us)), tuple(labels))

