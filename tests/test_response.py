import math

import numpy as np
import pytest

from nlchern.dynamics import DriveSpec, detect_breakdown, evolve
from nlchern.model import KPoint, ModelParams, Spinor, chern_number
from nlchern.response import (
    _DRIVE_BLOCK,
    excited_critical_strength,
    ground_critical_strength,
    is_adiabatic,
    kx_columns,
    phase_diagram,
    pumped_charge,
    sweep_initial_states,
)
from nlchern.spectrum import physical_spectrum

from oracles import (
    plaquette_chern,
    pumped_charge_reference,
    pumped_charge_stacked,
    tube_strength_scan,
    velocity_expectation,
    write_phase_diagram_csv,
)

TWO_PI = 2.0 * math.pi


def test_velocity_examples():
    p = ModelParams(u=1.0, U=0.0)
    s = 1.0 / math.sqrt(2.0)
    assert velocity_expectation(KPoint(0.0, 0.0), Spinor(1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert velocity_expectation(KPoint(math.pi / 2, 0.0), Spinor(1.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert velocity_expectation(KPoint(math.pi / 2, 0.0), Spinor(s, s)) == pytest.approx(0.0, abs=1e-12)


def test_velocity_band_sum_rule_linear():
    rng = np.random.default_rng(19)
    p = ModelParams(u=1.0, U=0.0)
    for _ in range(30):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        pairs = physical_spectrum(p, k)
        total = sum(velocity_expectation(k, q.state) for q in pairs)
        assert abs(total) < 1e-10


def test_plaquette_oracle_matches_formula():
    for u in (3.0, 1.0, -1.0, -3.0):
        c = plaquette_chern(u, "ground", n=60)
        assert c == pytest.approx(chern_number(u), abs=1e-6)
        assert plaquette_chern(u, "excited", n=60) == pytest.approx(-chern_number(u), abs=1e-6)


def test_pump_quantization_fast():
    # coarse drive keeps runtime small; full-precision runs live in the
    # acceptance suite
    rs = pumped_charge(ModelParams(u=1.0, U=0.0), "ground", F=0.05, n_kx=16, dt=0.01)
    assert rs.nu == pytest.approx(-1.0, abs=0.02)
    assert rs.nu_linear == -1
    rs2 = pumped_charge(ModelParams(u=1.0, U=0.0), "excited", F=0.05, n_kx=16, dt=0.01)
    assert rs2.nu == pytest.approx(1.0, abs=0.02)
    assert rs2.nu_linear == 1


def test_pump_F_robustness_linear():
    a = pumped_charge(ModelParams(u=1.0, U=0.0), "ground", F=0.02, n_kx=10, dt=0.01)
    b = pumped_charge(ModelParams(u=1.0, U=0.0), "ground", F=0.01, n_kx=10, dt=0.01)
    assert abs(a.nu - b.nu) < 0.005


def test_critical_strengths():
    assert ground_critical_strength(3.0) == 2.0
    assert ground_critical_strength(1.0) == 2.0
    assert ground_critical_strength(0.5) == 3.0
    # mirror symmetry u -> -u (the sweep crosses the (0,0) cone instead)
    assert ground_critical_strength(-1.0) == 2.0
    assert ground_critical_strength(-3.0) == 2.0
    assert excited_critical_strength(3.0) == math.inf
    for u in (1.0, 1.2, -0.7):
        expect = 2.0 * math.sqrt(1.0 - (1.0 - abs(u)) ** 2)
        assert excited_critical_strength(u) == pytest.approx(expect, abs=1e-5)
        assert excited_critical_strength(-u) == pytest.approx(expect, abs=1e-5)


def test_phase_diagram_examples():
    assert is_adiabatic(ModelParams(u=3.0, U=1.0), "ground")
    assert is_adiabatic(ModelParams(u=3.0, U=12.0), "excited")
    assert not is_adiabatic(ModelParams(u=1.0, U=4.0), "ground")


@pytest.mark.parametrize("resolution", [3, 0])
def test_unknown_band_rejected(resolution):
    # an unknown band used to get the excited labels in phase_diagram
    with pytest.raises(ValueError, match="band must be"):
        phase_diagram((0.0, 3.0), (0.0, 5.0), band="bogus", resolution=resolution)
    with pytest.raises(ValueError, match="band must be"):
        is_adiabatic(ModelParams(u=1.0, U=1.0), "bogus")


def test_phase_diagram_grid_and_csv(tmp_path):
    diagram = phase_diagram((0.0, 3.0), (0.0, 5.0), band="ground", resolution=7)
    assert len(diagram.u_values) == 7 and len(diagram.U_values) == 7
    for i, u in enumerate(diagram.u_values):
        for j, U in enumerate(diagram.U_values):
            expect = "nA" if U > 2.0 * abs(abs(u) - 2.0) else "A"
            assert diagram.labels[i][j] == expect
    out = tmp_path / "pd.csv"
    write_phase_diagram_csv(diagram, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,U,label"
    assert len(lines) == 1 + 49


# ---------------------------------------------------------------------------
# label consistency: analytic A/nA labels vs actual driven trajectories
# ---------------------------------------------------------------------------

_SPOT_CELLS = [
    # (u, U, band); labels follow from the critical strengths
    (3.0, 1.0, "ground"),
    (2.5, 0.6, "ground"),
    (1.0, 1.5, "ground"),
    (0.5, 2.5, "ground"),
    (-3.0, 1.0, "ground"),
    (-1.0, 1.5, "ground"),
    (-1.0, 3.0, "ground"),
    (1.0, 4.0, "ground"),
    (1.5, 1.5, "ground"),
    (2.0, 4.0, "ground"),
    (3.0, 2.5, "ground"),
    (0.5, 3.5, "ground"),
    (3.0, 5.0, "excited"),
    (2.5, 4.0, "excited"),
    (1.0, 1.5, "excited"),
    (1.2, 1.5, "excited"),
    (-3.0, 4.0, "excited"),
    (-2.5, 2.0, "excited"),
    (1.0, 4.0, "excited"),
    (0.5, 3.0, "excited"),
    (1.0, 3.0, "excited"),
    (-1.0, 4.0, "excited"),
]


def _diagonal_breakdown(u, U, band):
    params = ModelParams(u=u, U=U)
    pairs = physical_spectrum(params, KPoint(0.0, 0.0))
    initial = pairs[0].state if band == "ground" else pairs[-1].state
    drive = DriveSpec(KPoint(0.0, 0.0), (0.01, 0.01), TWO_PI / 0.01, 0.005)
    recs = evolve(params, drive, initial, sample_every=40)
    return detect_breakdown(recs)


def test_label_consistency_spot_checks():
    assert len(_SPOT_CELLS) >= 20
    for u, U, band in _SPOT_CELLS:
        adiabatic = is_adiabatic(ModelParams(u=u, U=U), band)
        onset = _diagonal_breakdown(u, U, band)
        if adiabatic:
            assert onset is None, (u, U, band, onset)
        else:
            assert onset is not None, (u, U, band)


def test_excited_critical_strength_closed_form_matches_scan():
    for u in np.linspace(-2.5, 2.5, 399):
        assert excited_critical_strength(float(u)) == pytest.approx(
            tube_strength_scan(float(u)), abs=1e-12
        )


def test_pump_cycle_closes_exactly():
    # the steps add up to exactly T = 2 pi / F, so the error falls with
    # the fourth power of dt instead of stalling at the cycle mismatch
    params = ModelParams(u=1.0, U=0.0)
    ref = pumped_charge(params, "ground", F=0.01, n_kx=8, dt=0.0125).nu
    err_coarse = abs(pumped_charge(params, "ground", F=0.01, n_kx=8, dt=0.05).nu - ref)
    err_fine = abs(pumped_charge(params, "ground", F=0.01, n_kx=8, dt=0.025).nu - ref)
    assert err_coarse >= 8.0 * err_fine


def test_pump_rejects_empty_grid():
    with pytest.raises(ValueError):
        pumped_charge(ModelParams(u=1.0, U=0.0), "ground", F=0.01, n_kx=0, dt=0.01)


@pytest.mark.parametrize(
    "u, U, band", [(1.0, 0.0, "ground"), (1.0, 0.5, "ground"), (1.0, 3.0, "ground"), (-1.0, 0.5, "excited")]
)
def test_pump_matches_two_column_reference(u, U, band):
    # the stacked stepper reorders only the stage sum and the velocity sum
    params = ModelParams(u=u, U=U)
    rs = pumped_charge(params, band, F=0.05, n_kx=8, dt=0.01)
    psi0 = sweep_initial_states(params, band, kx_columns(8))
    reference = pumped_charge_reference(u, U, psi0, F=0.05, dt=0.01, renormalize_every=_DRIVE_BLOCK)
    assert abs(rs.nu - reference) <= 1e-11
    assert rs.dt == TWO_PI / 0.05 / rs.steps
    assert len(rs.Q) == 8 and rs.nu == -float(np.mean(rs.Q))


def test_pump_block_renormalization_within_dt_error():
    # renormalizing once per block instead of once per step moves nu by
    # less than halving dt does, at an nA cell where the two differ most
    params = ModelParams(u=1.0, U=3.0)
    rs = pumped_charge(params, "ground", F=0.05, n_kx=8, dt=0.01)
    psi0 = sweep_initial_states(params, "ground", kx_columns(8))
    per_step = pumped_charge_reference(1.0, 3.0, psi0, F=0.05, dt=0.01)
    half_dt = pumped_charge(params, "ground", F=0.05, n_kx=8, dt=0.005).nu
    assert abs(rs.nu - per_step) < abs(rs.nu - half_dt)


@pytest.mark.parametrize(
    "u, U, band, n_kx",
    [(1.0, 0.5, "ground", 8), (1.0, 3.0, "ground", 7), (-1.0, 0.5, "excited", 8), (1.0, 0.0, "ground", 1)],
)
def test_pump_matches_stacked_loop_bit_for_bit(u, U, band, n_kx):
    # the flat state and the tabulated drive reorder no arithmetic of the
    # (2, n) loop with its drive rebuilt per half-step
    params = ModelParams(u=u, U=U)
    rs = pumped_charge(params, band, F=0.05, n_kx=n_kx, dt=0.01)
    assert (rs.nu, rs.Q, rs.dt, rs.steps) == pumped_charge_stacked(params, band, 0.05, n_kx, 0.01)


@pytest.mark.parametrize(
    "U, F, n_kx, steps",
    [
        (0.5, 1e4, 3, 1),
        (0.5, 300.0, 5, _DRIVE_BLOCK - 11),
        (0.5, 10.0, 5, 2 * _DRIVE_BLOCK),
        (3.0, 10.0, 4, 3 * _DRIVE_BLOCK),
        (3.0, 10.0, 1, _DRIVE_BLOCK + 1),
        (3.0, 10.0, 7, 2 * _DRIVE_BLOCK + 5),
    ],
)
def test_pump_block_edges_match_stacked_loop_bit_for_bit(U, F, n_kx, steps):
    # the block buffers hold a step's output until its block ends: one
    # step, a single partial block, whole blocks only, one column, and odd
    # columns with a partial third block, whose drive rows are only partly rewritten
    params = ModelParams(u=1.0, U=U)
    dt = TWO_PI / F / steps
    rs = pumped_charge(params, "ground", F=F, n_kx=n_kx, dt=dt)
    assert rs.steps == steps
    assert (rs.nu, rs.Q, rs.dt, rs.steps) == pumped_charge_stacked(params, "ground", F, n_kx, dt)


def test_pump_nu_pinned():
    # a change claimed to keep nu bit-identical keeps these literals; one
    # that moves nu on purpose updates them
    rs = pumped_charge(ModelParams(u=1.0, U=0.5), "ground", F=0.05, n_kx=8, dt=0.01)
    assert repr(rs.nu) == "-1.0175852604209048"
    assert rs.Q == (
        0.4394940194805182, 31.171258003814735, 61.134955124596544, 69.62564342473954,
        3.6103445886705265, -67.00469121185165, -60.26747578435859, -30.56884608172438,
    )
    assert (rs.steps, rs.dt, rs.max_norm_drift) == (12566, 0.01000029493423458, 1.0569400910043214e-10)


@pytest.mark.parametrize("n_kx", [1, 2, 7])
def test_pump_column_spread(n_kx):
    rs = pumped_charge(ModelParams(u=1.0, U=0.5), "ground", F=0.5, n_kx=n_kx, dt=0.01)
    # the even and odd columns are uniform sub-grids only of an even grid
    if n_kx % 2:
        assert rs.nu_even_columns is None and rs.nu_odd_columns is None
    else:
        assert rs.nu_even_columns == -float(np.mean(rs.Q[0::2]))
        assert rs.nu_odd_columns == -float(np.mean(rs.Q[1::2]))


def test_pump_reports_norm_drift():
    # the drift over the steps since the last renormalization is an RK4
    # truncation error: nonzero, and larger at a coarser step
    params = ModelParams(u=1.0, U=0.5)
    fine = pumped_charge(params, "ground", F=0.2, n_kx=6, dt=0.01).max_norm_drift
    coarse = pumped_charge(params, "ground", F=0.2, n_kx=6, dt=0.04).max_norm_drift
    assert 0.0 < fine < coarse < 1e-5
