"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from nlchern.dynamics import DriveSpec, detect_breakdown, evolve, instantaneous_projections
from nlchern.effective import gap_closed_u_interval, gap_closing_search
from nlchern.model import KPoint, ModelParams, Spinor, bloch_vector, chern_number
from nlchern.response import is_adiabatic, pumped_charge
from nlchern.spectrum import physical_spectrum

from oracles import (
    eigenpair_residual,
    kappa_scan_spectrum,
    linear_propagate,
    plaquette_chern,
    quartic_coefficients,
    ray_distance,
)

TWO_PI = 2.0 * math.pi


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def ground_sweep_u1_U4():
    """Diagonal sweep u=1, U=4, F=(0.01, 0.01), ground start (shared)."""
    params = ModelParams(u=1.0, U=4.0)
    pairs = physical_spectrum(params, KPoint(0.0, 0.0))
    drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), TWO_PI / 0.01, 0.01)
    t0 = time.perf_counter()
    records = evolve(params, drive, pairs[0].state, sample_every=20)
    return records, time.perf_counter() - t0


def test_criterion_1_linear_limit_oracle_equivalence():
    rng = np.random.default_rng(101)
    ks = [KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(1000)]
    t0 = time.perf_counter()
    worst = 0.0
    for u in (-3.0, -1.0, 1.0, 3.0):
        params = ModelParams(u=u, U=0.0)
        for k in ks:
            pairs = physical_spectrum(params, k)
            mag = bloch_vector(params, k).magnitude
            worst = max(
                worst,
                abs(pairs[0].epsilon + mag),
                abs(pairs[-1].epsilon - mag),
                abs(len(pairs) - 2),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, ok, f"max |eps -+ |d|| = {worst:.2e} over 4x1000 k, {elapsed:.2f} s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_quartic_fidelity():
    params = ModelParams(u=3.0, U=5.0)
    k = KPoint(math.pi, math.pi)
    pairs = physical_spectrum(params, k)
    got = []
    for q in pairs:
        got.extend([q.epsilon] * q.multiplicity)
    expect = [2.5, 2.5, 4.0, 6.0]
    dev_eps = max(abs(a - b) for a, b in zip(got, expect))
    d = bloch_vector(params, k)
    coeffs = quartic_coefficients(params, d)
    dev_res = max(abs(np.polyval(coeffs, q.epsilon)) for q in pairs)
    dev_state = max(eigenpair_residual(params, k, q) for q in pairs)
    oracle = kappa_scan_spectrum(d.dx, d.dy, d.dz, params.U, n=1_000_001)
    dev_oracle = max(abs(a - b) for a, b in zip(got, oracle))
    ok = dev_eps < 1e-9 and dev_res < 1e-9 and dev_state < 1e-9 and dev_oracle < 1e-6
    _report(
        2,
        ok,
        f"spectrum {got} vs {expect}; |deps|={dev_eps:.1e}, |f(eps)|={dev_res:.1e}, "
        f"state residual={dev_state:.1e}, kappa-scan dev={dev_oracle:.1e}",
    )
    assert dev_eps < 1e-9
    assert dev_res < 1e-9
    assert dev_state < 1e-9
    assert dev_oracle < 1e-6


def test_criterion_3_critical_strengths():
    from nlchern.spectrum import DegeneracyKind, classify_degeneracies

    crit3 = sorted(
        p.critical_U
        for p in classify_degeneracies(ModelParams(u=3.0, U=5.0), 32)
        if p.kind == DegeneracyKind.I
    )
    crit12 = sorted(
        p.critical_U
        for p in classify_degeneracies(ModelParams(u=1.2, U=3.0), 32)
        if p.kind == DegeneracyKind.I
    )
    dev = max(
        max(abs(a - b) for a, b in zip(crit3, [2.0, 6.0, 6.0, 10.0])),
        max(abs(a - b) for a, b in zip(crit12, [1.6, 2.4, 2.4, 6.4])),
    )
    ok = dev < 1e-12
    _report(3, ok, f"u=3 -> {crit3}, u=1.2 -> {crit12}, max dev {dev:.1e}")
    assert dev < 1e-12


def test_criterion_4_gap_closing():
    t0 = time.perf_counter()
    rep_U = gap_closing_search("U", 1.0, (4.0, 4.4))
    rep_u = gap_closing_search("u", 4.0, (1.0, 1.2))
    lo, hi = gap_closed_u_interval(4.0)
    elapsed = time.perf_counter() - t0
    ok = (
        4.1993 <= rep_U.critical_value <= 4.1997
        and abs(rep_u.critical_value - 1.066) <= 0.005
        and abs(lo - 1.066) <= 0.005
        and abs(hi - 2.0) <= 0.01
        and elapsed < 10.0
    )
    _report(
        4,
        ok,
        f"U_g={rep_U.critical_value:.5f}, u*={rep_u.critical_value:.5f}, "
        f"closed interval [{lo:.4f}, {hi:.4f}], {elapsed:.1f} s",
    )
    assert 4.1993 <= rep_U.critical_value <= 4.1997
    assert abs(rep_u.critical_value - 1.066) <= 0.005
    assert abs(lo - 1.066) <= 0.005
    assert abs(hi - 2.0) <= 0.01
    assert elapsed < 10.0


def test_criterion_5_linear_response_quantization():
    details = []
    ok = True
    for u in (3.0, 1.0, -1.0):
        t0 = time.perf_counter()
        summary = pumped_charge(ModelParams(u=u, U=0.0), "ground", F=0.01, n_kx=50, dt=0.01)
        elapsed = time.perf_counter() - t0
        c = chern_number(u)
        oracle = plaquette_chern(u, "ground", n=100)
        ok = (
            ok
            and abs(summary.nu - c) < 0.02
            and abs(oracle - c) < 1e-6
            and abs(summary.nu - oracle) < 0.02
            and elapsed < 60.0
        )
        details.append(f"u={u}: nu={summary.nu:+.4f}, C={c}, plaquette={oracle:+.4f}, {elapsed:.0f}s")
        assert abs(summary.nu - c) < 0.02
        assert abs(oracle - c) < 1e-6
        assert elapsed < 60.0
    _report(5, ok, "; ".join(details))


def test_criterion_6_nonlinear_response_deviation():
    weak = pumped_charge(ModelParams(u=1.0, U=0.5), "ground", F=0.01, n_kx=50, dt=0.01)
    strong = pumped_charge(ModelParams(u=1.0, U=3.0), "ground", F=0.01, n_kx=50, dt=0.01)
    dev_weak = abs(weak.nu - weak.nu_linear)
    dev_strong = abs(strong.nu - strong.nu_linear)
    strong_label_nA = not is_adiabatic(ModelParams(u=1.0, U=3.0), "ground")
    ok = 0.0 < dev_weak < 0.1 and dev_strong > 0.1 and strong_label_nA
    _report(
        6,
        ok,
        f"U=0.5: nu={weak.nu:+.6f} (|dev|={dev_weak:.2e}); "
        f"U=3: nu={strong.nu:+.6f} (|dev|={dev_strong:.3f}, label nA={strong_label_nA})",
    )
    assert 0.0 < dev_weak < 0.1
    assert dev_strong > 0.1
    assert strong_label_nA


def test_criterion_7_adiabaticity_dynamics(ground_sweep_u1_U4):
    records_u1, wall_u1 = ground_sweep_u1_U4
    onset_u1 = detect_breakdown(records_u1)
    k_u1 = None if onset_u1 is None else 0.01 * onset_u1

    def sweep(u, U, band, dt):
        params = ModelParams(u=u, U=U)
        pairs = physical_spectrum(params, KPoint(0.0, 0.0))
        initial = pairs[0].state if band == "ground" else pairs[-1].state
        drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), TWO_PI / 0.01, dt)
        t0 = time.perf_counter()
        recs = evolve(params, drive, initial, sample_every=int(round(0.2 / dt)))
        return recs, time.perf_counter() - t0

    recs_ex, wall_ex = sweep(2.5, 4.0, "excited", 0.005)
    onset_ex = detect_breakdown(recs_ex)
    recs_u2, wall_u2 = sweep(2.0, 4.0, "ground", 0.01)
    onset_u2 = detect_breakdown(recs_u2)
    k_u2 = None if onset_u2 is None else 0.01 * onset_u2

    ok = (
        onset_u1 is not None
        and abs(k_u1 - math.pi) <= 0.3
        and onset_ex is None
        and onset_u2 is not None
        and k_u2 > math.pi
        and max(wall_u1, wall_ex, wall_u2) < 30.0
    )
    _report(
        7,
        ok,
        f"u=1 ground onset k={k_u1:.3f} (pi={math.pi:.3f}); u=2.5 excited onset={onset_ex}; "
        f"u=2 ground onset k={k_u2:.3f} (> pi); walls {wall_u1:.1f}/{wall_ex:.1f}/{wall_u2:.1f} s",
    )
    assert onset_u1 is not None and abs(k_u1 - math.pi) <= 0.3
    assert onset_ex is None
    assert onset_u2 is not None and k_u2 > math.pi
    assert max(wall_u1, wall_ex, wall_u2) < 30.0


def test_criterion_8_numerical_health():
    params = ModelParams(u=1.0, U=0.0)
    k0 = KPoint(0.3, 5.7)
    pairs = physical_spectrum(params, k0)
    psi0 = pairs[0].state.as_array()
    T = 10.0
    errs = {}
    for dt in (0.02, 0.01):
        drive = DriveSpec(k0, (0.03, 0.01), T, dt)
        recs = evolve(params, drive, pairs[0].state, sample_every=int(T / dt))
        ref = linear_propagate(params.u, (k0.kx, k0.ky), drive.F, psi0, [0.0, T], dt_fine=1e-4)
        errs[dt] = float(np.linalg.norm(recs[-1].psi.as_array() - ref[-1]))
    ratio = errs[0.02] / errs[0.01]

    drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), 100.0, 0.01)
    pairs0 = physical_spectrum(params, KPoint(0.0, 0.0))
    recs = evolve(params, drive, pairs0[0].state, sample_every=1000)
    drift_rate = abs(recs[-1].norm - 1.0) / 100.0
    times = [r.t for r in recs]
    ref = linear_propagate(params.u, (0.0, 0.0), (0.01, 0.01), pairs0[0].state.as_array(), times, dt_fine=1e-4)
    ray = max(ray_distance(a.psi.as_array(), b) for a, b in zip(recs, ref))

    ok = 13.0 <= ratio <= 19.0 and drift_rate < 1e-8 and ray < 1e-7
    _report(
        8,
        ok,
        f"dt-halving error ratio {ratio:.1f} (target 13-19); norm drift "
        f"{drift_rate:.1e}/unit time; propagator-oracle state distance {ray:.1e}",
    )
    assert 13.0 <= ratio <= 19.0
    assert drift_rate < 1e-8
    assert ray < 1e-7


def test_criterion_9_projection_sum(ground_sweep_u1_U4):
    rng = np.random.default_rng(909)
    params = ModelParams(u=1.0, U=0.0)
    worst_linear = 0.0
    for _ in range(100):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        raw = rng.normal(size=4)
        psi = Spinor(complex(raw[0], raw[1]), complex(raw[2], raw[3])).normalized()
        chi1, chi2 = np.array([pair.state.as_array() for pair in physical_spectrum(params, k)]).T
        worst_linear = max(worst_linear, abs(sum(instantaneous_projections(psi.c1, psi.c2, chi1, chi2)) - 1.0))

    records, _ = ground_sweep_u1_U4
    max_dev = max(abs(sum(r.projections) - 1.0) for r in records)

    ok = worst_linear < 1e-10 and max_dev > 1e-3
    _report(
        9,
        ok,
        f"U=0: max |sum P - 1| = {worst_linear:.1e}; u=1, U=4 sweep: "
        f"max deviation {max_dev:.3f} (> 1e-3: non-orthogonal branches)",
    )
    assert worst_linear < 1e-10
    assert max_dev > 1e-3
