"""Driven dynamics of the nonlinear Bloch Hamiltonian.

The state at fixed initial quasimomentum k0 is dragged through the zone
by a constant force, k(t) = k0 + F t, and obeys

    i d/dt psi = H(k(t), psi) psi,

with the Kerr diagonal re-evaluated from the instantaneous state.  The
integrator is classical explicit RK4 with the Hamiltonian rebuilt at
every stage state and stage time; the exact flow conserves the norm, so
norm drift is used as the health metric (no renormalization by default).

``_kerr_row`` is the one formula for H(psi) psi, written per row of the
2x2 problem.  ``rk4_step`` calls it twice per stage on Python complex
scalars (``evolve``); ``rk4_step_columns`` calls it once per stage on a
stacked (2, n) numpy state whose columns are k points
(``response.pumped_charge``).  Both fold the -i into the stage weights
and take the drive coefficients at t + dt/2 and t + dt, reusing the
t + dt value as the start of the next step.

Adiabaticity is diagnosed by projecting onto the instantaneous
self-consistent eigenstates.  Those are mutually non-orthogonal once the
Kerr term is on, so the projection probabilities need not sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import KPoint, ModelParams, Spinor
from .spectrum import NonlinearEigenpair, physical_spectrum

#: abort threshold on |norm - 1| during integration
NORM_ABORT = 1e-5


class NumericalHealthError(RuntimeError):
    """Integration produced an unhealthy state (norm drift beyond tolerance)."""


@dataclass(frozen=True)
class DriveSpec:
    """Sweep protocol k(t) = k0 + F t over total time T with step dt."""

    k0: KPoint
    F: tuple[float, float]
    T: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("total time must cover at least one step")
        fmag = math.hypot(self.F[0], self.F[1])
        if fmag * self.dt > 1e-3:
            raise ValueError(
                f"|F|*dt = {fmag * self.dt:.2e} exceeds the k-resolution guard 1e-3"
            )


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    k: KPoint
    psi: Spinor
    norm: float
    energy: float
    projections: tuple[float, ...]


def mean_energy(params: ModelParams, k: KPoint, psi: Spinor) -> float:
    """<psi| H(k, psi) |psi>, including the quartic Kerr piece U(|c1|^4+|c2|^4)."""
    c1, c2 = psi.c1, psi.c2
    n1 = c1.real * c1.real + c1.imag * c1.imag
    n2 = c2.real * c2.real + c2.imag * c2.imag
    cross = c1.conjugate() * c2
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = n1 - n2
    dx = math.sin(k.kx)
    dy = math.sin(k.ky)
    dz = params.u + math.cos(k.kx) + math.cos(k.ky)
    return dx * sx + dy * sy + dz * sz + params.U * (n1 * n1 + n2 * n2)


def instantaneous_projections(
    params: ModelParams, k: KPoint, psi: Spinor, pairs: list[NonlinearEigenpair] | None = None
) -> tuple[float, ...]:
    """P_i = |<chi_i|psi>|^2 against the eigenstates sorted by energy.

    The number of entries follows the stationary-state count at k; sums
    to one only in the linear (orthonormal) regime.
    """
    if pairs is None:
        pairs = physical_spectrum(params, k)
    out = []
    for pair in pairs:
        ov = pair.state.c1.conjugate() * psi.c1 + pair.state.c2.conjugate() * psi.c2
        out.append(ov.real * ov.real + ov.imag * ov.imag)
    return tuple(out)


def _kerr_row(D, O, U, p, q):
    """One row of H(d, psi) psi for H = d . sigma + U diag(|p1|^2, |p2|^2), elementwise.

    Row 1 is ``_kerr_row(dz, dx - i dy, U, p1, p2)``, row 2 is
    ``_kerr_row(-dz, dx + i dy, U, p2, p1)``.
    """
    return (D + U * p * p.conjugate()) * p + O * q


def rk4_weights(dt):
    """Classical RK4 stage weights dt/2, dt, dt/6 with the -i of i psi' = H psi folded in."""
    return -0.5j * dt, -1j * dt, -1j * dt / 6.0


def rk4_step(U, w, a, b, c, p1, p2):
    """One classical RK4 step of i psi' = H(d(t), psi) psi from t to t + dt.

    ``w`` is ``rk4_weights(dt)``; ``a``, ``b`` and ``c`` hold the drive
    coefficients (dz, dx - i dy) at t, t + dt/2 and t + dt.  ``p1`` and
    ``p2`` are Python complex scalars: a numpy batch of one costs several
    times the scalar step.
    """
    h, f, s = w
    (za, oa), (zb, ob), (zc, oc) = a, b, c
    ob_bar = ob.conjugate()
    a1 = _kerr_row(za, oa, U, p1, p2)
    a2 = _kerr_row(-za, oa.conjugate(), U, p2, p1)
    q1, q2 = p1 + h * a1, p2 + h * a2
    b1 = _kerr_row(zb, ob, U, q1, q2)
    b2 = _kerr_row(-zb, ob_bar, U, q2, q1)
    q1, q2 = p1 + h * b1, p2 + h * b2
    c1 = _kerr_row(zb, ob, U, q1, q2)
    c2 = _kerr_row(-zb, ob_bar, U, q2, q1)
    q1, q2 = p1 + f * c1, p2 + f * c2
    d1 = _kerr_row(zc, oc, U, q1, q2)
    d2 = _kerr_row(-zc, oc.conjugate(), U, q2, q1)
    return p1 + s * (a1 + 2.0 * (b1 + c1) + d1), p2 + s * (a2 + 2.0 * (b2 + c2) + d2)


def rk4_step_columns(U, w, a, b, c, P):
    """``rk4_step`` on a stacked complex state P = [p1, p2] of shape (2, n).

    Each column is one k point.  The drive coefficients are stacked the
    same way, D = [dz, -dz] and O = [dx - i dy, dx + i dy], so one
    ``_kerr_row`` call gives both rows.  Pass U and the weights as 0-d
    complex arrays: numpy takes its fast path only when every operand is
    a complex array, and the loop is bound by that per-call cost.
    """
    h, f, s = w
    (Da, Oa), (Db, Ob), (Dc, Oc) = a, b, c
    k1 = _kerr_row(Da, Oa, U, P, P[::-1])
    X = P + h * k1
    k2 = _kerr_row(Db, Ob, U, X, X[::-1])
    X = P + h * k2
    k3 = _kerr_row(Db, Ob, U, X, X[::-1])
    X = P + f * k3
    k4 = _kerr_row(Dc, Oc, U, X, X[::-1])
    k2 += k3
    k2 += k2
    k2 += k1
    k2 += k4
    k2 *= s
    return P + k2


def norm_squared(p1, p2):
    """|p1|^2 + |p2|^2, elementwise."""
    return p1.real * p1.real + p1.imag * p1.imag + p2.real * p2.real + p2.imag * p2.imag


def evolve(
    params: ModelParams,
    drive: DriveSpec,
    initial: Spinor,
    sample_every: int = 10,
    renormalize: bool = False,
    with_projections: bool = True,
) -> list[TrajectoryRecord]:
    """Integrate the driven state and sample it every ``sample_every`` steps.

    Raises NumericalHealthError when |norm - 1| exceeds 1e-5 (suggesting a
    smaller dt), unless per-step renormalization is requested.
    """
    if abs(initial.norm - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    u, U = params.u, params.U
    kx0, ky0 = drive.k0.kx, drive.k0.ky
    fx, fy = drive.F
    dt = drive.dt
    n_steps = int(round(drive.T / dt))

    p1 = complex(initial.c1)
    p2 = complex(initial.c2)

    def sample(step: int) -> TrajectoryRecord:
        t = step * dt
        k = KPoint(kx0 + fx * t, ky0 + fy * t)
        norm = math.sqrt(norm_squared(p1, p2))
        if not renormalize and abs(norm - 1.0) > NORM_ABORT:
            raise NumericalHealthError(
                f"norm drift |{norm} - 1| > {NORM_ABORT} at t={t:.4g}; "
                f"reduce dt (currently {dt})"
            )
        psi = Spinor(p1 / norm, p2 / norm)
        pairs = physical_spectrum(params, k) if with_projections else None
        proj = instantaneous_projections(params, k, psi, pairs) if with_projections else ()
        return TrajectoryRecord(t, k, Spinor(p1, p2), norm, mean_energy(params, k, psi), proj)

    def drive(t):
        kx, ky = kx0 + fx * t, ky0 + fy * t
        return u + math.cos(kx) + math.cos(ky), complex(math.sin(kx), -math.sin(ky))

    half = 0.5 * dt
    w = rk4_weights(dt)
    a = drive(0.0)
    records = [sample(0)]
    for n in range(n_steps):
        t = n * dt
        b, c = drive(t + half), drive(t + dt)
        p1, p2 = rk4_step(U, w, a, b, c, p1, p2)
        a = c
        if renormalize:
            inv = 1.0 / math.sqrt(norm_squared(p1, p2))
            p1 *= inv
            p2 *= inv
        if (n + 1) % sample_every == 0:
            records.append(sample(n + 1))
    return records


def detect_breakdown(
    records: list[TrajectoryRecord],
    window: float = 5.0,
    threshold: float = 0.05,
) -> float | None:
    """Earliest time where max_i P_i develops oscillations beyond threshold.

    Scans a sliding window of the given time span over the uniformly
    sampled trajectory and reports the start time of the first window
    whose peak-to-peak amplitude of max_i P_i exceeds the threshold.
    """
    if len(records) < 2:
        raise ValueError("trajectory too short for breakdown analysis")
    dt_s = records[1].t - records[0].t
    span = records[-1].t - records[0].t
    if span < window:
        raise ValueError(f"trajectory span {span:.4g} shorter than window {window:.4g}")
    for rec in records:
        if not rec.projections:
            raise ValueError("trajectory records carry no projections")
    signal = [max(rec.projections) for rec in records]
    n_win = max(1, int(round(window / dt_s)))
    for i in range(len(signal) - n_win):
        seg = signal[i : i + n_win + 1]
        if max(seg) - min(seg) > threshold:
            return records[i].t
    return None


def write_trajectory_csv(records: list[TrajectoryRecord], path) -> None:
    """CSV export: t, kx, ky, norm, energy, P1..P4 (blank where absent)."""
    import csv

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
