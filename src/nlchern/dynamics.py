"""Driven dynamics of the nonlinear Bloch Hamiltonian.

The state at fixed initial quasimomentum k0 is dragged through the zone
by a constant force, k(t) = k0 + F t, and obeys

    i d/dt psi = H(k(t), psi) psi,

with the Kerr diagonal re-evaluated from the instantaneous state.  The
integrator is classical explicit RK4 with the Hamiltonian rebuilt at
every stage state and stage time.  The exact flow conserves the norm, so
``evolve`` never renormalizes; it and ``response.pumped_charge`` abort on
norm drift through one rule, ``check_norm_drift``.

``model._kerr_row`` is the one formula for H(psi) psi, written per row of
the 2x2 problem.  ``rk4_step`` calls it twice per stage on Python complex
scalars (``evolve``); the stepper that ``rk4_columns(U, dt, like)``
builds once per run calls it once per stage on a numpy state of many k
points whose reversal pairs each entry with its partner component: a
stacked (2, n) state, or the flat [p1, p2 reversed] vector of
``response.pumped_charge``.  Both fold the -i into the stage weights and
take the drive coefficients at t + dt/2 and t + dt, reusing the t + dt
value as the start of the next step.  The stepper makes U and its weights
the 0-d complex arrays of numpy's fast path and owns its stage buffers, so
a step allocates nothing.

Adiabaticity is diagnosed by projecting onto the instantaneous
self-consistent eigenstates.  Those are mutually non-orthogonal once the
Kerr term is on, so the projection probabilities need not sum to one.
Both driven runs last exactly their time T: ``step_schedule`` takes the
whole number n of steps nearest T / dt, each T / n long.  Both loops take
their drive a fixed block of steps at a time from ``_drive`` at the times
that ``_blocks`` yields, so it never outgrows one block.  The loop of
``evolve`` only steps and keeps its samples; the records are built after
it on arrays, a block of samples at a time: one ``nonlinear_spectra``
call, the elementwise ``mean_energy`` and ``instantaneous_projections``,
and no object but the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NORM_INPUT_TOL, KPoint, ModelParams, Spinor, _bloch_parts, _kerr_row
from .spectrum import SpectrumHealth, _cdiv, _cmul, nonlinear_spectra

#: abort threshold of ``check_norm_drift``, on | ||psi|| - 1 | at each sample of
#: ``evolve`` and on | ||psi||^2 - 1 | within each block of ``response.pumped_charge``
NORM_ABORT = 1e-5

#: time span of ``detect_breakdown``'s sliding window (1/J)
BREAKDOWN_WINDOW = 5.0

#: peak-to-peak swing of max_i P_i within one window that ``detect_breakdown``
#: reads as the onset of breakdown
BREAKDOWN_THRESHOLD = 0.05

# trajectory samples whose records ``evolve`` builds in one pass; one block
# of all 3,142 samples of the README dynamics cycle raised its peak
# resident memory by 1.5-1.6 MB over blocks of 128
_SPECTRUM_BLOCK = 128

# steps whose drive coefficients ``evolve`` builds in one numpy pass; its
# table holds one block, whatever the run length
_DRIVE_BLOCK = 512

#: most steps a driven run may take: 40 times the 251,327 of one cycle at
#: F = dt = 0.005; a larger T / dt is a configuration error, not a hang
MAX_STEPS = 10**7


class NumericalHealthError(RuntimeError):
    """Integration produced an unhealthy state (norm drift beyond tolerance)."""


def check_norm_drift(drift: float, t: float, dt: float) -> None:
    """Raise NumericalHealthError unless drift <= NORM_ABORT; a NaN drift fails too.

    The caller measures the drift: ``evolve`` passes | ||psi|| - 1 | of a sample or
    of its final state, ``response.pumped_charge`` the largest | ||psi||^2 - 1 | of a
    block of steps.
    """
    if not drift <= NORM_ABORT:
        raise NumericalHealthError(
            f"norm drift {drift:.3g} > {NORM_ABORT} by t={t:.4g}; reduce dt (currently {dt})"
        )


def step_schedule(T: float, dt: float) -> tuple[int, float]:
    """The steps of a driven run of time T: n = max(1, round(T / dt)) steps of exactly T / n.

    dt must be positive and finite, and T / dt at most ``MAX_STEPS``, so
    finite; otherwise raises ValueError.  Returns (n, T / n).
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not T / dt <= MAX_STEPS:
        raise ValueError(f"the step count T / dt = {T / dt:.3g} exceeds MAX_STEPS = {MAX_STEPS:.0e}")
    n = max(1, round(T / dt))
    return n, T / n


def check_energy_scale(params: ModelParams, T: float) -> None:
    """Raise ValueError where no step of at least T / ``MAX_STEPS`` is stable for classical RK4.

    At every k and every normalized state, H(psi) has the eigenvalues U/2 +- R with
    R >= |dz + U kappa / 2| >= |dz| - U/2 and |dz| >= |u| - 2, so one of modulus at
    least E = max(U/2, |u| - 2).  RK4 amplifies a mode of frequency E once E dt
    exceeds its stability limit 2 sqrt(2) on the imaginary axis, and every run of
    time T that ``step_schedule`` allows has dt >= T / ``MAX_STEPS``: so where
    E T / ``MAX_STEPS`` exceeds 2 sqrt(2), no step count can keep the norm, and u
    or U, not dt, is at fault.
    """
    scale = max(0.5 * params.U, abs(params.u) - 2.0)
    if scale * (T / MAX_STEPS) > 2.0 * math.sqrt(2.0):
        raise ValueError(
            f"u or U is too large: the energy scale max(U/2, |u| - 2) = {scale:.3g} leaves classical "
            f"RK4's stability limit 2 sqrt(2) at every step of at least T / MAX_STEPS = {T / MAX_STEPS:.3g}"
        )


def _blocks(n_steps, dt, size):
    """The steps 0 .. n_steps - 1 of dt in blocks of at most ``size``, as (j0, j1, t).

    A block holds steps j0 .. j1 - 1, and t their 2 m + 1 drive times,
    m = j1 - j0: step j0 + i reads entries 2i .. 2i + 2.  Entry 0 is
    (j0 - 1) dt + dt, the previous block's last time to the bit, then
    t + dt/2 and t + dt for each step's t = j dt.
    """
    for j0 in range(0, n_steps, size):
        j1 = min(j0 + size, n_steps)
        yield j0, j1, np.add.outer(np.arange(j0 - 1, j1) * dt, [0.5 * dt, dt]).ravel()[1:]


@dataclass(frozen=True, slots=True)
class DriveSpec:
    """Sweep protocol k(t) = k0 + F t over total time T, in the steps ``step_schedule(T, dt)``."""

    k0: KPoint
    F: tuple[float, float]
    T: float
    dt: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.T, *self.F))):
            raise ValueError("T and F must be finite")
        if self.T < self.dt:
            raise ValueError("total time must cover at least one step")
        step_schedule(self.T, self.dt)
        fmag = math.hypot(self.F[0], self.F[1])
        if fmag * self.dt > 1e-3:
            raise ValueError(
                f"|F|*dt = {fmag * self.dt:.2e} exceeds the k-resolution guard 1e-3"
            )

    @property
    def steps(self) -> int:
        """The number of steps ``evolve`` takes, from ``step_schedule``."""
        return step_schedule(self.T, self.dt)[0]


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    t: float
    k: KPoint
    psi: Spinor
    norm: float
    energy: float
    projections: tuple[float, ...]


def mean_energy(d, U, c1, c2):
    """<psi| H(d, psi) |psi> of psi = (c1, c2), d = (dx, dy, dz), with the Kerr piece U(|c1|^4+|c2|^4).

    Elementwise on scalars or arrays, to the same bits: parts taken in CPython's complex operation order."""
    dx, dy, dz = d
    n1 = c1.real * c1.real + c1.imag * c1.imag
    n2 = c2.real * c2.real + c2.imag * c2.imag
    cross_re, cross_im = _cmul(c1.real, -c1.imag, c2.real, c2.imag)  # conj(c1) c2
    return dx * (2.0 * cross_re) + dy * (2.0 * cross_im) + dz * (n1 - n2) + U * (n1 * n1 + n2 * n2)


def instantaneous_projections(c1, c2, chi1, chi2):
    """P = |<chi|psi>|^2 of psi = (c1, c2) on an eigenstate chi = (chi1, chi2), elementwise as
    ``mean_energy``; the eigenstates of one k need not be orthogonal, so P need not sum to one."""
    ar, ai = _cmul(chi1.real, -chi1.imag, c1.real, c1.imag)
    br, bi = _cmul(chi2.real, -chi2.imag, c2.real, c2.imag)
    re, im = ar + br, ai + bi
    return re * re + im * im


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


def _kerr_row_into(U, t1, t2):
    """``model._kerr_row`` as ``row(D, O, p, q, out)``, which writes into ``out`` and returns it.

    The same ufuncs on the same operands in the same order, through the
    scratch arrays t1 and t2 instead of fresh arrays; they must not share
    memory with ``p`` or ``q``.  No product is taken in place: on a single
    entry numpy rounds an in-place complex product differently.
    """
    multiply, add, conjugate = np.multiply, np.add, np.conjugate

    def row(D, O, p, q, out):
        multiply(U, p, t1)
        multiply(t1, conjugate(p, t2), out)
        add(D, out, out)
        multiply(out, p, t1)
        multiply(O, q, t2)
        return add(t1, t2, out)

    return row


def rk4_columns(U, dt, like):
    """``rk4_step`` of step dt on complex states shaped like ``like``, as ``step(a, b, c, P, out)``.

    P holds n k points with P[::-1] the partner of P: a stacked [p1, p2] of
    shape (2, n), one k point per column, or the flat vector [p1, p2
    reversed] of length 2 n.  The drive coefficients are laid out the same
    way, D = [dz, -dz] and O = [dx - i dy, dx + i dy], so one row formula
    call gives both components.  The stepper holds U and ``rk4_weights(dt)``
    as 0-d complex arrays: numpy takes its fast path only when every operand
    is a complex array, and the loop is bound by that per-call cost.

    Built once per run, the stepper owns its stage buffers and binds U, the
    weights and the ufuncs, so a step makes only its numpy calls.  ``step``
    writes the new state into ``out``, which must not share memory with P,
    and returns it.
    """
    multiply, add = np.multiply, np.add
    h, f, s = map(np.array, rk4_weights(dt))
    X, k1, k2, k3, k4, t1, t2 = (np.empty_like(like) for _ in range(7))
    Xr = X[::-1]
    row = _kerr_row_into(np.array(complex(U)), t1, t2)

    def step(a, b, c, P, out):
        (Da, Oa), (Db, Ob), (Dc, Oc) = a, b, c
        row(Da, Oa, P, P[::-1], k1)
        add(P, multiply(h, k1, X), X)
        row(Db, Ob, X, Xr, k2)
        add(P, multiply(h, k2, X), X)
        row(Db, Ob, X, Xr, k3)
        add(P, multiply(f, k3, X), X)
        row(Dc, Oc, X, Xr, k4)
        add(k2, k3, k2)
        add(k2, k2, k2)
        add(k2, k1, k2)
        add(k2, k4, k2)
        multiply(k2, s, k2)
        return add(P, k2, out)

    return step


def _drive(u, kx, ky):
    """The drive coefficients (dz, dx - i dy) at the arrays (kx, ky), broadcast together.

    d is ``model._bloch_parts``; the imaginary part of dx - i dy is
    negated, not subtracted, so a zero sin ky gives -0.0.
    """
    dx, dy, dz = _bloch_parts(u, kx, ky, np)
    o = np.empty(dz.shape, complex)
    o.real = dx
    o.imag = np.negative(dy)
    return dz, o


def norm_squared(p1, p2):
    """|p1|^2 + |p2|^2, elementwise."""
    return p1.real * p1.real + p1.imag * p1.imag + p2.real * p2.real + p2.imag * p2.imag


def evolve(
    params: ModelParams,
    drive: DriveSpec,
    initial: Spinor,
    sample_every: int,
    health: SpectrumHealth | None = None,
) -> list[TrajectoryRecord]:
    """Integrate the driven state and sample it every ``sample_every`` steps.

    The run takes the steps of ``step_schedule(drive.T, drive.dt)``, so it
    lasts exactly T: n steps of dt = T / n, not ``drive.dt`` itself.  Step
    j runs from t = j dt to t + dt with the scalar ``rk4_step``.  Its drive
    coefficients at t, t + dt/2 and t + dt come from ``_drive`` at the
    times of ``_blocks``, built for ``_DRIVE_BLOCK`` steps at a time, so
    the drive stays one block long for any T.  Raises
    NumericalHealthError when |norm - 1| at a sample, or at the final state
    when that is no sample, exceeds ``NORM_ABORT`` or is NaN (suggesting a
    smaller dt); raises ValueError where ``check_energy_scale`` says that no dt
    can help.  ``health`` is passed on to each block's ``nonlinear_spectra``.
    """
    if not abs(initial.norm - 1.0) <= NORM_INPUT_TOL:
        raise ValueError("initial state must be normalized")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    u, U = params.u, params.U
    k0, F = drive.k0, drive.F
    n_steps, dt = step_schedule(drive.T, drive.dt)
    check_energy_scale(params, drive.T)

    p1, p2 = complex(initial.c1), complex(initial.c2)
    samples = [(0.0, p1, p2, math.sqrt(norm_squared(p1, p2)))]

    w = rk4_weights(dt)
    for j0, j1, t in _blocks(n_steps, dt, _DRIVE_BLOCK):
        dz, o = _drive(u, k0.kx + F[0] * t, k0.ky + F[1] * t)
        drive = list(zip(dz.tolist(), o.tolist()))
        # n counts the steps taken once this one is done
        for n, a, b, c in zip(range(j0 + 1, j1 + 1), drive[0::2], drive[1::2], drive[2::2]):
            p1, p2 = rk4_step(U, w, a, b, c, p1, p2)
            if n % sample_every == 0:
                t_n = n * dt
                norm = math.sqrt(norm_squared(p1, p2))
                check_norm_drift(abs(norm - 1.0), t_n, dt)
                samples.append((t_n, p1, p2, norm))
    if n_steps % sample_every:
        # the steps after the last sample are not recorded, but they are checked
        check_norm_drift(abs(math.sqrt(norm_squared(p1, p2)) - 1.0), n_steps * dt, dt)

    records = []
    for i in range(0, len(samples), _SPECTRUM_BLOCK):
        block = samples[i : i + _SPECTRUM_BLOCK]
        ks = [KPoint(k0.kx + F[0] * t, k0.ky + F[1] * t) for t, _, _, _ in block]
        kx, ky = np.array([(k.kx, k.ky) for k in ks]).T
        d = _bloch_parts(u, kx, ky, np)
        spectra = nonlinear_spectra(np.column_stack(d), U, health)
        p = np.array([(p1, p2) for _, p1, p2, _ in block]).T
        psi = np.empty_like(p)  # the normalized states, one column per sample
        psi.real, psi.imag = _cdiv(p.real, p.imag, np.array([norm for *_, norm in block]))
        energies = mean_energy(d, U, *psi).tolist()
        states = np.repeat(psi, np.diff(spectra.offsets), axis=1)  # per eigenstate
        projections = instantaneous_projections(*states, spectra.c1, spectra.c2).tolist()
        bounds = spectra.offsets.tolist()
        for (t, p1, p2, norm), k, energy, lo, hi in zip(block, ks, energies, bounds, bounds[1:]):
            records.append(TrajectoryRecord(t, k, Spinor(p1, p2), norm, energy, tuple(projections[lo:hi])))
    return records


def detect_breakdown(records: list[TrajectoryRecord]) -> float | None:
    """Earliest time where max_i P_i develops oscillations beyond ``BREAKDOWN_THRESHOLD``.

    Scans a sliding window of ``BREAKDOWN_WINDOW`` time units over the
    uniformly sampled trajectory and reports the start time of the first
    window whose peak-to-peak amplitude of max_i P_i exceeds the threshold.
    """
    if len(records) < 2:
        raise ValueError("trajectory too short for breakdown analysis")
    dt_s = records[1].t - records[0].t
    span = records[-1].t - records[0].t
    if span < BREAKDOWN_WINDOW:
        raise ValueError(f"trajectory span {span:.4g} shorter than window {BREAKDOWN_WINDOW:.4g}")
    for rec in records:
        if not rec.projections:
            raise ValueError("trajectory records carry no projections")
    signal = [max(rec.projections) for rec in records]
    n_win = max(1, int(round(BREAKDOWN_WINDOW / dt_s)))
    for i in range(len(signal) - n_win):
        seg = signal[i : i + n_win + 1]
        if max(seg) - min(seg) > BREAKDOWN_THRESHOLD:
            return records[i].t
    return None

