"""Hall-type linear response of the driven nonlinear Chern insulator.

Each k_x column is initialized in a band eigenstate at (k_x, ky0) and
dragged through one full cycle k_y(t) = ky0 + F t, T = 2*pi/F, while the
velocity expectation

    v = <(1/hbar) dH/dk_x> = cos(kx) <sigma_x> - sin(kx) <sigma_z>

is accumulated into the transported charge per cycle Q(k_x).  The
response number nu averages Q over columns; its sign fixes the Brillouin
zone orientation so that in the adiabatic linear limit nu reproduces the
ground-band Chern number of ``model.chern_number``.  Nonlinearity first
shifts nu off the integer and, once the swept band develops cone or tube
structures, destroys the quantization altogether; the phase diagram below
labels those regimes from the analytic critical strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import norm_squared, rk4_step
from .model import GaplessParameterError, KPoint, ModelParams, Spinor, chern_number
from .spectrum import physical_spectrum


class RegimeError(RuntimeError):
    """A requested band branch does not exist at a sweep start point."""


@dataclass(frozen=True)
class ResponseSummary:
    u: float
    U: float
    F: float
    band: str
    nu: float
    nu_linear: int | None
    adiabatic: bool
    n_kx: int
    steps: int

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "U": self.U,
            "F": self.F,
            "band": self.band,
            "nu": self.nu,
            "nu_linear": self.nu_linear,
            "adiabatic": self.adiabatic,
            "n_kx": self.n_kx,
            "steps": self.steps,
        }


def _velocity(cos_kx, sin_kx, p1, p2):
    """cos(kx) <sigma_x> - sin(kx) <sigma_z>, elementwise."""
    sx = 2.0 * (p1.conjugate() * p2).real
    sz = (p1.real * p1.real + p1.imag * p1.imag) - (p2.real * p2.real + p2.imag * p2.imag)
    return cos_kx * sx - sin_kx * sz


def velocity_expectation(params: ModelParams, k: KPoint, psi: Spinor) -> float:
    """Expectation of the velocity operator along x at fixed state.

    Only the linear part of the Hamiltonian carries explicit k_x
    dependence; the Kerr diagonal depends on k through the state alone
    and does not enter the derivative.
    """
    return _velocity(math.cos(k.kx), math.sin(k.kx), complex(psi.c1), complex(psi.c2))


def _band_index(band: str, n_branches: int) -> int:
    if band == "ground":
        return 0
    if band == "excited":
        return n_branches - 1
    raise ValueError('band must be "ground" or "excited"')


def sweep_initial_states(
    params: ModelParams, band: str, kxs, ky0: float = 0.0
) -> np.ndarray:
    """Band eigenstates at the sweep start points (kx, ky0), one per column."""
    psi = np.empty((len(kxs), 2), dtype=complex)
    for i, kx in enumerate(kxs):
        pairs = physical_spectrum(params, KPoint(float(kx), ky0))
        if len(pairs) < 2:
            raise RegimeError(
                f"band structure at kx={kx:.6g}, ky={ky0:.6g} has fewer than two "
                f"branches; no {band} branch to start from"
            )
        st = pairs[_band_index(band, len(pairs))].state
        psi[i, 0] = st.c1
        psi[i, 1] = st.c2
    return psi


def pumped_charge(
    params: ModelParams,
    band: str = "ground",
    F: float = 0.01,
    n_kx: int = 50,
    dt: float = 0.01,
    ky0: float = 0.0,
) -> ResponseSummary:
    """Transported charge per drive cycle, averaged over k_x columns.

    All columns share the drive k_y(t) = ky0 + F t and step together
    through ``dynamics.rk4_step``; the velocity integral uses the
    trapezoid rule on the step grid.  The step is shrunk from ``dt`` to
    T / round(T / dt), so the steps add up to exactly one cycle
    T = 2*pi/F.  The state is renormalized after every step: a full cycle
    takes 2*pi/F time units and the drift bound matters there.
    """
    if F <= 0.0:
        raise ValueError("drive rate F must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if n_kx < 1:
        raise ValueError("n_kx must be at least 1")
    u, U = params.u, params.U
    kxs = 2.0 * math.pi * np.arange(n_kx) / n_kx
    p1, p2 = sweep_initial_states(params, band, kxs, ky0).T

    T = 2.0 * math.pi / F
    n_steps = max(1, round(T / dt))
    dt = T / n_steps
    sx_col = np.sin(kxs)
    cx_col = np.cos(kxs)
    dz_base = u + cx_col

    def d_of_t(t):
        ky = ky0 + F * t
        return sx_col, math.sin(ky), dz_base + math.cos(ky)

    Q = np.zeros(n_kx)
    v_prev = _velocity(cx_col, sx_col, p1, p2)
    for n in range(n_steps):
        p1, p2 = rk4_step(U, d_of_t, n * dt, dt, p1, p2)
        norm = np.sqrt(norm_squared(p1, p2))
        p1 /= norm
        p2 /= norm
        v_new = _velocity(cx_col, sx_col, p1, p2)
        Q += (0.5 * dt) * (v_prev + v_new)
        v_prev = v_new

    # Zone orientation fixed so the linear adiabatic limit returns the
    # ground-band Chern number (and its negative for the excited band).
    nu = -float(Q.mean())

    try:
        c = chern_number(u)
        nu_linear = c if band == "ground" else -c
    except GaplessParameterError:
        nu_linear = None

    return ResponseSummary(
        u=u,
        U=U,
        F=F,
        band=band,
        nu=nu,
        nu_linear=nu_linear,
        adiabatic=is_adiabatic(params, band),
        n_kx=n_kx,
        steps=n_steps,
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


def is_adiabatic(params: ModelParams, band: str) -> bool:
    """Whether the swept band stays free of nonlinearity-induced structure."""
    if band == "ground":
        return not params.U > ground_critical_strength(params.u)
    if band == "excited":
        return not params.U > excited_critical_strength(params.u)
    raise ValueError('band must be "ground" or "excited"')


@dataclass(frozen=True)
class PhaseDiagram:
    band: str
    u_values: tuple[float, ...]
    U_values: tuple[float, ...]
    labels: tuple[tuple[str, ...], ...]  # labels[i][j] for (u_values[i], U_values[j])


def phase_diagram(
    u_range: tuple[float, float],
    U_range: tuple[float, float],
    band: str = "ground",
    resolution: int = 50,
) -> PhaseDiagram:
    """Label each (u, U) cell A (adiabatic) or nA over the given ranges."""
    us = np.linspace(u_range[0], u_range[1], resolution)
    Us = np.linspace(U_range[0], U_range[1], resolution)
    labels = []
    for u in us:
        crit = (
            ground_critical_strength(float(u))
            if band == "ground"
            else excited_critical_strength(float(u))
        )
        labels.append(tuple("nA" if U > crit else "A" for U in Us))
    return PhaseDiagram(band, tuple(map(float, us)), tuple(map(float, Us)), tuple(labels))


def write_phase_diagram_csv(diagram: PhaseDiagram, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "U", "label"])
        for i, u in enumerate(diagram.u_values):
            for j, U in enumerate(diagram.U_values):
                writer.writerow([f"{u:.17g}", f"{U:.17g}", diagram.labels[i][j]])
