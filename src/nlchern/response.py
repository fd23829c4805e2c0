"""Hall-type linear response of the driven nonlinear Chern insulator.

Each k_x column is initialized in a band eigenstate at (k_x, ky0) and
dragged through one full cycle k_y(t) = ky0 + F t, T = 2*pi/F, while the
velocity expectation

    v = <(1/hbar) dH/dk_x> = cos(kx) <sigma_x> - sin(kx) <sigma_z>

is accumulated into the transported charge per cycle Q(k_x).  All columns
step together as one stacked (2, n_kx) state through
``dynamics.rk4_step_columns``, the RK4 and row formula that
``dynamics.evolve`` runs on scalars.  The response number nu averages Q
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

from .dynamics import rk4_step_columns, rk4_weights
from .model import GaplessParameterError, KPoint, ModelParams, Spinor, chern_number
from .spectrum import physical_spectrum


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

    def to_dict(self) -> dict:
        return asdict(self)


def _velocity(cos_kx, sin_kx, cross, imbalance):
    """cos(kx) <sigma_x> - sin(kx) <sigma_z> from Re(p1* p2) and |p1|^2 - |p2|^2.

    Linear in the two spin components, so it also maps their time
    integrals to the integral of the velocity.
    """
    return cos_kx * (2.0 * cross) - sin_kx * imbalance


def velocity_expectation(params: ModelParams, k: KPoint, psi: Spinor) -> float:
    """Expectation of the velocity operator along x at fixed state.

    Only the linear part of the Hamiltonian carries explicit k_x
    dependence; the Kerr diagonal depends on k through the state alone
    and does not enter the derivative.
    """
    c1, c2 = complex(psi.c1), complex(psi.c2)
    imbalance = (c1.real * c1.real + c1.imag * c1.imag) - (c2.real * c2.real + c2.imag * c2.imag)
    return _velocity(math.cos(k.kx), math.sin(k.kx), (c1.conjugate() * c2).real, imbalance)


def _band_index(band: str, n_branches: int) -> int:
    if band == "ground":
        return 0
    if band == "excited":
        return n_branches - 1
    raise ValueError('band must be "ground" or "excited"')


def kx_columns(n_kx: int) -> np.ndarray:
    """The k_x columns 2 pi j / n_kx, j = 0 .. n_kx - 1, of the pumped charge."""
    return 2.0 * math.pi * np.arange(n_kx) / n_kx


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

    All columns share the drive k_y(t) = ky0 + F t and step together as
    one stacked (2, n_kx) state through ``dynamics.rk4_step_columns``.  The
    step is shrunk from ``dt`` to T / round(T / dt), so the steps add up to
    exactly one cycle T = 2*pi/F.  The state is renormalized after every
    step: a full cycle takes 2*pi/F time units and the drift bound matters
    there.  The velocity is linear in Re(p1* p2) and |p1|^2 - |p2|^2, so the
    loop only sums those two per column; the trapezoid end weights and the
    velocity formula are applied once, after the loop.
    """
    if F <= 0.0:
        raise ValueError("drive rate F must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if n_kx < 1:
        raise ValueError("n_kx must be at least 1")
    kxs = kx_columns(n_kx)
    P = np.ascontiguousarray(sweep_initial_states(params, band, kxs, ky0).T)

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
        ky = ky0 + F * t
        cy, sy = math.cos(ky), math.sin(ky)
        shift[0, 0, 0], shift[0, 1, 0] = cy, -cy
        shift[1, 0, 0], shift[1, 1, 0] = -1j * sy, 1j * sy
        DO = base + shift
        return DO[0], DO[1]

    def spin(P):
        """p1* p2 and |p1|^2 - |p2|^2 of each normalized column, as complex numbers.

        Normalizes P in place; the real parts are the two spin components
        the velocity needs.
        """
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
    x0, z0 = spin(P)
    X, Z = x0.copy(), z0.copy()
    a = drive(0.0)
    for n in range(n_steps):
        t = n * dt
        b, c = drive(t + half), drive(t + dt)
        P = rk4_step_columns(U, w, a, b, c, P)
        a = c
        x, z = spin(P)
        X += x
        Z += z
    # trapezoid rule: the end points carry half weight
    X -= 0.5 * (x0 + x)
    Z -= 0.5 * (z0 + z)
    Q = dt * _velocity(cos_kx, sin_kx, X.real, Z.real)

    # Zone orientation fixed so the linear adiabatic limit returns the
    # ground-band Chern number (and its negative for the excited band).
    nu = -float(Q.mean())

    try:
        chern = chern_number(params.u)
        nu_linear = chern if band == "ground" else -chern
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
