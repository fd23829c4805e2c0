import itertools
import math
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlchern.dynamics import (
    _DRIVE_BLOCK,
    NORM_ABORT,
    DriveSpec,
    NumericalHealthError,
    _kerr_row_into,
    check_norm_drift,
    detect_breakdown,
    evolve,
    instantaneous_projections,
    mean_energy,
    rk4_columns,
    rk4_step,
    rk4_weights,
)
from nlchern.model import KPoint, ModelParams, Spinor, _kerr_row, bloch_vector
from nlchern.spectrum import Spectra, _path, physical_spectrum

from oracles import (
    evolve_interleaved,
    evolve_per_sample,
    hamiltonian,
    linear_propagate,
    mean_energy_reference,
    projections_reference,
    ray_distance,
    write_trajectory_csv,
)

TWO_PI = 2.0 * math.pi


def test_drivespec_validation():
    k0 = KPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.01, 0.01), 10.0, -0.01)
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.2, 0.0), 10.0, 0.01)  # |F| dt beyond the guard
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.0, 0.0), 0.001, 0.01)


@pytest.mark.parametrize("c1", [complex(math.nan), complex(math.inf), 2.0 + 0j])
def test_evolve_rejects_unnormalized_start(c1):
    # a NaN norm fails no ordered comparison: the start check must not let it through
    drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), 1.0, 0.01)
    with pytest.raises(ValueError, match="normalized"):
        evolve(ModelParams(u=1.0, U=0.5), drive, Spinor(c1, 0j), sample_every=10)


def _d(params, k):
    return astuple(bloch_vector(params, k))


def _projections(psi, pairs):
    """``instantaneous_projections`` of psi on the states of ``pairs``, one array call."""
    chi1, chi2 = np.array([pair.state.as_array() for pair in pairs]).T
    return instantaneous_projections(psi.c1, psi.c2, chi1, chi2)


def test_mean_energy_examples():
    p = ModelParams(u=3.0, U=5.0)
    k = KPoint(math.pi, math.pi)
    assert mean_energy(_d(p, k), p.U, 1.0, 0.0) == pytest.approx(1.0 + 5.0, abs=1e-12)
    # d = (1, 0, 0) at u=-2, k=(pi/2, 0): equal superposition gives dx + U/2
    p2 = ModelParams(u=-2.0, U=3.0)
    s = 1.0 / math.sqrt(2.0)
    assert mean_energy(_d(p2, KPoint(math.pi / 2, 0.0)), p2.U, s, s) == pytest.approx(
        1.0 + 1.5, abs=1e-12
    )
    # U=0 reduces to the linear expectation
    p3 = ModelParams(u=1.0, U=0.0)
    psi = Spinor(complex(0.3, 0.5), complex(0.7, -0.1)).normalized()
    k3 = KPoint(0.8, 2.0)
    H = hamiltonian(p3, k3, psi)
    v = psi.as_array()
    assert mean_energy(_d(p3, k3), p3.U, psi.c1, psi.c2) == pytest.approx((v.conj() @ H @ v).real, abs=1e-12)


def test_elementwise_formulas_equal_scalar_references_bit_for_bit():
    # random states, states with +-0.0 parts, and the eigenstates at a generic,
    # a polar and a dz = 0 contour momentum (dz = 6e-17 at (pi, pi/2), u = 1),
    # each as psi and as chi
    rng = np.random.default_rng(19)
    p = ModelParams(u=1.0, U=4.0)
    ks = [KPoint(2.9, 3.1), KPoint(0.0, 0.0), KPoint(math.pi, math.pi / 2)]
    ds = [bloch_vector(p, k) for k in ks]
    assert [_path(d.dz, d.planar_sq, p.U) for d in ds] == ["generic", "polar", "contour"]
    states = [Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))).normalized() for _ in range(30)]
    parts = (0.0, -0.0, 0.6, -0.8)
    states += [Spinor(complex(a, b), complex(c, e)) for a, b, c, e in itertools.product(parts, repeat=4)]
    for k in ks:
        pairs = physical_spectrum(p, k)
        psis = states + [pair.state for pair in pairs]
        c1, c2 = np.array([psi.as_array() for psi in psis]).T
        d = tuple(np.full(len(psis), x) for x in _d(p, k))
        energies = mean_energy(d, p.U, c1, c2).tolist()
        expected = [mean_energy_reference(p, k, psi) for psi in psis]
        assert repr(energies) == repr(expected)  # == takes -0.0 for 0.0; repr does not
        assert repr([mean_energy(_d(p, k), p.U, psi.c1, psi.c2) for psi in psis]) == repr(expected)
        chi1, chi2 = np.array([pair.state.as_array() for pair in pairs]).T
        projections = instantaneous_projections(
            np.repeat(c1, len(pairs)), np.repeat(c2, len(pairs)), np.tile(chi1, len(psis)), np.tile(chi2, len(psis))
        ).tolist()
        expected = [x for psi in psis for x in projections_reference(psi, pairs)]
        assert repr(projections) == repr(expected)


def test_evolve_takes_no_bloch_vector_and_no_pair_objects(monkeypatch):
    # every binding of bloch_vector, whichever module imported it, and
    # Spectra.pairs count their calls while evolve runs
    p = ModelParams(u=1.0, U=4.0)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.05, 0.02), 3.0, 0.01)
    psi0 = physical_spectrum(p, drive.k0)[0].state
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nlchern" and hasattr(module, "bloch_vector"):
            monkeypatch.setattr(module, "bloch_vector", counted("bloch_vector", module.bloch_vector))
    monkeypatch.setattr(Spectra, "pairs", counted("pairs", Spectra.pairs))
    records = evolve(p, drive, psi0, sample_every=2)
    assert len(records) == 151 and all(rec.projections for rec in records)
    assert calls == []


def test_stationary_state_prediction():
    p = ModelParams(u=3.0, U=5.0)
    k0 = KPoint(1.1, 2.3)
    pairs = physical_spectrum(p, k0)
    pair = pairs[0]
    drive = DriveSpec(k0, (0.0, 0.0), 100.0, 0.01)
    recs = evolve(p, drive, pair.state, sample_every=500)
    ref = pair.state.as_array()
    for rec in recs:
        ov = abs(np.vdot(ref, rec.psi.as_array()))
        assert ov == pytest.approx(1.0, abs=1e-8)
        # phase advances as exp(-i eps t)
        expected = ref * np.exp(-1j * pair.epsilon * rec.t)
        assert np.linalg.norm(expected - rec.psi.as_array()) < 1e-6


def test_linear_oracle_agreement():
    # U = 0: RK4 must track the exact linear propagator; the comparison is
    # phase-invariant since the dominant RK4 defect is a global phase
    p = ModelParams(u=1.0, U=0.0)
    k0 = KPoint(0.0, 0.0)
    pairs = physical_spectrum(p, k0)
    drive = DriveSpec(k0, (0.01, 0.01), 100.0, 0.01)
    recs = evolve(p, drive, pairs[0].state, sample_every=1000)
    times = [r.t for r in recs]
    ref = linear_propagate(
        p.u, (k0.kx, k0.ky), drive.F, pairs[0].state.as_array(), times, dt_fine=1e-4
    )
    worst = max(ray_distance(a.psi.as_array(), b) for a, b in zip(recs, ref))
    assert worst < 1e-7


def test_fourth_order_convergence_and_drift():
    p = ModelParams(u=1.0, U=0.0)
    k0 = KPoint(0.3, 5.7)
    pairs = physical_spectrum(p, k0)
    psi0 = pairs[0].state.as_array()
    T = 10.0
    errs = {}
    for dt in (0.02, 0.01):
        drive = DriveSpec(k0, (0.03, 0.01), T, dt)
        recs = evolve(p, drive, pairs[0].state, sample_every=int(T / dt))
        ref = linear_propagate(p.u, (k0.kx, k0.ky), drive.F, psi0, [0.0, T], dt_fine=1e-4)
        errs[dt] = np.linalg.norm(recs[-1].psi.as_array() - ref[-1])
    ratio = errs[0.02] / errs[0.01]
    assert 13.0 <= ratio <= 19.0
    # norm drift per unit time at dt=0.01
    drive = DriveSpec(k0, (0.01, 0.01), 50.0, 0.01)
    recs = evolve(p, drive, pairs[0].state, sample_every=100)
    assert abs(recs[-1].norm - 1.0) / 50.0 < 1e-8


def test_gauge_covariance():
    p = ModelParams(u=1.0, U=4.0)
    k0 = KPoint(0.0, 0.0)
    pairs = physical_spectrum(p, k0)
    drive = DriveSpec(k0, (0.01, 0.01), 30.0, 0.01)
    base = evolve(p, drive, pairs[0].state, sample_every=1000)
    phase = complex(math.cos(0.7), math.sin(0.7))
    rot = evolve(
        p,
        drive,
        Spinor(pairs[0].state.c1 * phase, pairs[0].state.c2 * phase),
        sample_every=1000,
    )
    for a, b in zip(base, rot):
        assert np.allclose(b.psi.as_array(), phase * a.psi.as_array(), atol=1e-12)
        assert a.norm == pytest.approx(b.norm, abs=1e-14)
        assert a.energy == pytest.approx(b.energy, abs=1e-12)
        assert a.projections == pytest.approx(b.projections, abs=1e-12)


def test_projections_linear_completeness():
    rng = np.random.default_rng(13)
    p = ModelParams(u=1.0, U=0.0)
    for _ in range(50):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        raw = rng.normal(size=4)
        psi = Spinor(complex(raw[0], raw[1]), complex(raw[2], raw[3])).normalized()
        P = _projections(psi, physical_spectrum(p, k))
        assert sum(P) == pytest.approx(1.0, abs=1e-10)


def test_projections_pick_out_branch():
    p = ModelParams(u=1.0, U=4.0)
    k = KPoint(2.9, 3.1)
    pairs = physical_spectrum(p, k)
    assert len(pairs) >= 3
    for j, pair in enumerate(pairs):
        P = _projections(pair.state, pairs)
        assert P[j] == pytest.approx(1.0, abs=1e-9)
    # non-orthogonality: the projections of one branch onto the others
    # need not vanish and their sum exceeds one somewhere
    sums = [sum(_projections(pair.state, pairs)) for pair in pairs]
    assert any(abs(s - 1.0) > 1e-3 for s in sums)


@pytest.mark.parametrize("u, U, sample_every", [(1.0, 4.0, 2), (3.0, 5.0, 3), (1.0, 0.0, 700)])
def test_evolve_projections_match_per_sample_spectra(u, U, sample_every):
    # 301 samples at sample_every = 2 span three blocks of stacked spectra, the last one partial
    p = ModelParams(u=u, U=U)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.05, 0.02), 6.0, 0.01)
    psi0 = physical_spectrum(p, drive.k0)[0].state
    records = evolve(p, drive, psi0, sample_every=sample_every)
    assert records == evolve_per_sample(p, drive, psi0, sample_every)
    assert all(rec.projections for rec in records)


def test_norm_abort_on_coarse_step():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.001, 0.001), 50.0, 0.5)
    pairs = physical_spectrum(p, KPoint(0.0, 0.0))
    with pytest.raises(NumericalHealthError):
        evolve(p, drive, pairs[0].state, sample_every=10)


@pytest.mark.parametrize(
    "k0, F, T, sample_every",
    [
        # 651 samples: five full blocks of stacked spectra and a partial one
        ((0.0, 0.0), (0.05, 0.05), 130.0, 20),
        # 1000 steps: the last sample falls 6 steps before the end
        ((0.0, 0.0), (0.05, 0.05), 10.0, 7),
        ((0.3, 5.7), (0.03, 0.01), 20.0, 20),
        # 2,500 steps: four full drive-table blocks of 512 steps and a partial
        # one of 452, sampled every 37 steps, which does not divide a block
        ((0.0, 0.0), (0.05, 0.05), 25.0, 37),
        # k_y stays 0, so sin k_y is exactly 0 in every table row
        ((0.4, 0.0), (0.05, 0.0), 12.0, 9),
        # off the diagonal, with F_x != F_y and one rate negative
        ((2.0, 1.0), (-0.02, 0.04), 15.0, 11),
        # T no multiple of dt: 1,235 steps of T / 1235, not of 0.01
        ((0.0, 0.0), (0.05, 0.05), 12.3456, 20),
    ],
)
def test_evolve_matches_interleaved_loop(k0, F, T, sample_every):
    p = ModelParams(u=1.0, U=4.0)
    drive = DriveSpec(KPoint(*k0), F, T, 0.01)
    psi0 = physical_spectrum(p, drive.k0)[0].state
    records = evolve(p, drive, psi0, sample_every)
    expected = evolve_interleaved(p, drive, psi0, sample_every)
    assert records == expected
    # == takes -0.0 for 0.0; repr does not
    assert repr(records) == repr(expected)


def test_evolve_drive_table_does_not_grow_with_the_run():
    # one sample per run, so what evolve holds beyond a block's table does
    # not grow with the step count; a table of the whole run would
    p = ModelParams(u=1.0, U=4.0)
    psi0 = physical_spectrum(p, KPoint(0.0, 0.0))[0].state

    def run(blocks):
        steps = blocks * _DRIVE_BLOCK
        drive = DriveSpec(KPoint(0.0, 0.0), (0.05, 0.05), steps * 0.01, 0.01)
        assert drive.steps == steps
        evolve(p, drive, psi0, steps)

    def traced_peak(blocks):
        tracemalloc.start()
        try:
            run(blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a lower bound on one block's table: two (dz, dx - i dy) pairs per step
    block_bytes = 2 * _DRIVE_BLOCK * sum(map(sys.getsizeof, ((0.0, 0j), 0.0, 0j)))
    run(1)  # fills the interpreter's free lists, which stay allocated after a run
    peaks = traced_peak(5), traced_peak(20)
    assert abs(peaks[1] - peaks[0]) < block_bytes, (peaks, block_bytes)


@pytest.mark.parametrize("drift", [math.nan, math.inf, 2.0 * NORM_ABORT])
def test_norm_drift_guard_rejects_nan_and_excess(drift):
    with pytest.raises(NumericalHealthError, match="norm drift"):
        check_norm_drift(drift, 1.0, 0.01)


def test_norm_drift_guard_passes_at_threshold():
    check_norm_drift(0.0, 1.0, 0.01)
    check_norm_drift(NORM_ABORT, 1.0, 0.01)


@pytest.mark.parametrize("T, dt, F", [(math.inf, 0.01, 0.01), (1.0, math.nan, 0.01), (1.0, 0.01, math.nan)])
def test_drivespec_rejects_non_finite(T, dt, F):
    with pytest.raises(ValueError, match="finite"):
        DriveSpec(KPoint(0.0, 0.0), (F, F), T, dt)


def test_detect_breakdown_validation():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.1, 0.2), (0.01, 0.01), 2.0, 0.01)
    pairs = physical_spectrum(p, KPoint(0.1, 0.2))
    recs = evolve(p, drive, pairs[0].state, sample_every=50)
    with pytest.raises(ValueError):
        detect_breakdown(recs)


def test_detect_breakdown_flat_signal_none():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.4, 1.2), (0.01, 0.01), 20.0, 0.01)
    pairs = physical_spectrum(p, KPoint(0.4, 1.2))
    recs = evolve(p, drive, pairs[0].state, sample_every=20)
    assert detect_breakdown(recs) is None


def test_trajectory_csv_blank_padding(tmp_path):
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), 1.0, 0.01)
    pairs = physical_spectrum(p, KPoint(0.0, 0.0))
    recs = evolve(p, drive, pairs[0].state, sample_every=50)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(recs, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,kx,ky,norm,energy,P1,P2,P3,P4"
    assert lines[1].endswith(",,")  # two branches: P3, P4 blank


def test_rk4_step_columns_match_scalars():
    # evolve steps Python complex scalars through rk4_step, pumped_charge a
    # stacked (2, n) state through the stepper of rk4_columns, with the
    # same row formula; one column at a time must reproduce the batch
    u, U, F, ky0, dt = 0.7, 2.5, 0.01, 0.2, 0.05
    kxs = np.array([0.3, 1.9, 4.4])
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psi0 /= np.linalg.norm(psi0, axis=1)[:, None]

    def d_columns(t):
        ky = ky0 + F * t
        dz = u + np.cos(kxs) + math.cos(ky)
        od = np.sin(kxs) - 1j * math.sin(ky)
        return np.array([dz, -dz], dtype=complex), np.array([od, od.conjugate()])

    w = rk4_weights(dt)
    P = psi0.T.copy()
    step = rk4_columns(U, dt, P)
    for n in range(20):
        P = step(d_columns(n * dt), d_columns((n + 0.5) * dt), d_columns((n + 1) * dt), P, np.empty_like(P))

    for i, kx in enumerate(map(float, kxs)):
        def d_scalar(t):
            ky = ky0 + F * t
            return u + math.cos(kx) + math.cos(ky), complex(math.sin(kx), -math.sin(ky))

        q1, q2 = complex(psi0[i, 0]), complex(psi0[i, 1])
        for n in range(20):
            a, b, c = d_scalar(n * dt), d_scalar((n + 0.5) * dt), d_scalar((n + 1) * dt)
            q1, q2 = rk4_step(U, w, a, b, c, q1, q2)
        assert type(q1) is complex and type(q2) is complex
        assert abs(q1 - P[0, i]) < 1e-12 and abs(q2 - P[1, i]) < 1e-12


def test_rk4_step_columns_flat_layout_matches_stacked():
    # pumped_charge holds [p1, p2 reversed] in one vector, so X[::-1] is
    # the partner entry there as it is the partner row of a (2, n) state
    u, U, F, dt = 0.7, 2.5, 0.05, 0.05
    kxs = np.array([0.3, 1.9, 4.4, 5.0])
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    psi0 /= np.linalg.norm(psi0, axis=1)[:, None]

    def d_stacked(t):
        ky = F * t
        dz = u + np.cos(kxs) + math.cos(ky)
        od = np.sin(kxs) - 1j * math.sin(ky)
        return np.array([dz, -dz], dtype=complex), np.array([od, od.conjugate()])

    def d_flat(t):
        D, O = d_stacked(t)
        return np.concatenate([D[0], D[1][::-1]]), np.concatenate([O[0], O[1][::-1]])

    P = np.ascontiguousarray(psi0.T)
    flat = np.concatenate([psi0[:, 0], psi0[::-1, 1]])
    step, step_flat = rk4_columns(U, dt, P), rk4_columns(U, dt, flat)
    for n in range(20):
        t = (n * dt, (n + 0.5) * dt, (n + 1) * dt)
        P = step(*map(d_stacked, t), P, np.empty_like(P))
        flat = step_flat(*map(d_flat, t), flat, np.empty_like(flat))
    assert np.array_equal(flat, np.concatenate([P[0], P[1][::-1]]))


_bounded = st.floats(-1.0, 1.0)
_complex = st.builds(complex, _bounded, _bounded)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.floats(-6.0, 6.0), st.lists(st.tuples(_complex, _complex, _complex), min_size=1, max_size=8))
@example(1.4700153844772306, [(1.75j, 0j, 6.788068883454952e-09 + 1.5j)])
def test_kerr_row_into_matches_kerr_row(U, rows):
    # the stepper's buffered row formula is model._kerr_row, bit for bit;
    # the example is a single entry where an in-place product rounds apart
    U = np.array(complex(U))
    D, O, p = map(np.array, zip(*rows))
    out, t1, t2 = (np.empty_like(p) for _ in range(3))
    expect = _kerr_row(D, O, U, p, p[::-1])
    assert _kerr_row_into(U, t1, t2)(D, O, p, p[::-1], out) is out
    assert np.array_equal(out, expect)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.data(), st.sampled_from(["flat", "stacked"]))
def test_rk4_step_columns_buffers_match_allocating_call(data, layout):
    # one stepper reused from one step to the next gives a fresh stepper's
    # step bit for bit on both layouts
    n = data.draw(st.integers(1, 6))
    U, dt = data.draw(st.floats(-4.0, 4.0)), data.draw(st.floats(1e-4, 0.1))
    shape = (2 * n,) if layout == "flat" else (2, n)
    entries = st.lists(_complex, min_size=2 * n, max_size=2 * n)
    P, *drive = (np.array(data.draw(entries)).reshape(shape) for _ in range(7))
    a, b, c = zip(drive[0::2], drive[1::2])
    step, out = rk4_columns(U, dt, P), np.empty_like(P)
    for _ in range(2):
        expect = rk4_columns(U, dt, P)(a, b, c, P, np.empty_like(P))
        assert step(a, b, c, P, out) is out
        assert np.isfinite(expect).all() and np.array_equal(out, expect)
        P = expect
