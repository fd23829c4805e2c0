import math

import numpy as np
import pytest

from nlchern.dynamics import (
    DriveSpec,
    NumericalHealthError,
    detect_breakdown,
    evolve,
    instantaneous_projections,
    mean_energy,
    rk4_step,
    rk4_step_columns,
    rk4_weights,
    write_trajectory_csv,
)
from nlchern.model import KPoint, ModelParams, Spinor
from nlchern.spectrum import physical_spectrum

from oracles import linear_propagate, ray_distance

TWO_PI = 2.0 * math.pi


def test_drivespec_validation():
    k0 = KPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.01, 0.01), 10.0, -0.01)
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.2, 0.0), 10.0, 0.01)  # |F| dt beyond the guard
    with pytest.raises(ValueError):
        DriveSpec(k0, (0.0, 0.0), 0.001, 0.01)


def test_mean_energy_examples():
    p = ModelParams(u=3.0, U=5.0)
    k = KPoint(math.pi, math.pi)
    assert mean_energy(p, k, Spinor(1.0, 0.0)) == pytest.approx(1.0 + 5.0, abs=1e-12)
    # d = (1, 0, 0) at u=-2, k=(pi/2, 0): equal superposition gives dx + U/2
    p2 = ModelParams(u=-2.0, U=3.0)
    s = 1.0 / math.sqrt(2.0)
    assert mean_energy(p2, KPoint(math.pi / 2, 0.0), Spinor(s, s)) == pytest.approx(
        1.0 + 1.5, abs=1e-12
    )
    # U=0 reduces to the linear expectation
    p3 = ModelParams(u=1.0, U=0.0)
    psi = Spinor(complex(0.3, 0.5), complex(0.7, -0.1)).normalized()
    from nlchern.model import bloch_vector, hamiltonian

    k3 = KPoint(0.8, 2.0)
    H = hamiltonian(p3, k3, psi)
    v = psi.as_array()
    assert mean_energy(p3, k3, psi) == pytest.approx((v.conj() @ H @ v).real, abs=1e-12)


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
    recs = evolve(p, drive, pairs[0].state, sample_every=1000, with_projections=False)
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
        recs = evolve(p, drive, pairs[0].state, sample_every=int(T / dt), with_projections=False)
        ref = linear_propagate(p.u, (k0.kx, k0.ky), drive.F, psi0, [0.0, T], dt_fine=1e-4)
        errs[dt] = np.linalg.norm(recs[-1].psi.as_array() - ref[-1])
    ratio = errs[0.02] / errs[0.01]
    assert 13.0 <= ratio <= 19.0
    # norm drift per unit time at dt=0.01
    drive = DriveSpec(k0, (0.01, 0.01), 50.0, 0.01)
    recs = evolve(p, drive, pairs[0].state, sample_every=100, with_projections=False)
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
        P = instantaneous_projections(p, k, psi)
        assert sum(P) == pytest.approx(1.0, abs=1e-10)


def test_projections_pick_out_branch():
    p = ModelParams(u=1.0, U=4.0)
    k = KPoint(2.9, 3.1)
    pairs = physical_spectrum(p, k)
    assert len(pairs) >= 3
    for j, pair in enumerate(pairs):
        P = instantaneous_projections(p, k, pair.state)
        assert P[j] == pytest.approx(1.0, abs=1e-9)
    # non-orthogonality: the projections of one branch onto the others
    # need not vanish and their sum exceeds one somewhere
    sums = [sum(instantaneous_projections(p, k, pair.state)) for pair in pairs]
    assert any(abs(s - 1.0) > 1e-3 for s in sums)


def test_norm_abort_on_coarse_step():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.001, 0.001), 50.0, 0.5)
    pairs = physical_spectrum(p, KPoint(0.0, 0.0))
    with pytest.raises(NumericalHealthError):
        evolve(p, drive, pairs[0].state, sample_every=10, with_projections=False)


def test_detect_breakdown_validation():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.1, 0.2), (0.01, 0.01), 2.0, 0.01)
    pairs = physical_spectrum(p, KPoint(0.1, 0.2))
    recs = evolve(p, drive, pairs[0].state, sample_every=50)
    with pytest.raises(ValueError):
        detect_breakdown(recs, window=5.0)


def test_detect_breakdown_flat_signal_none():
    p = ModelParams(u=1.0, U=0.0)
    drive = DriveSpec(KPoint(0.4, 1.2), (0.01, 0.01), 20.0, 0.01)
    pairs = physical_spectrum(p, KPoint(0.4, 1.2))
    recs = evolve(p, drive, pairs[0].state, sample_every=20)
    assert detect_breakdown(recs, window=5.0, threshold=0.05) is None


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
    # stacked (2, n) state through rk4_step_columns, with the same row
    # formula; one column at a time must reproduce the batch
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
    for n in range(20):
        P = rk4_step_columns(
            np.array(complex(U)), tuple(map(np.array, w)),
            d_columns(n * dt), d_columns((n + 0.5) * dt), d_columns((n + 1) * dt), P,
        )

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
