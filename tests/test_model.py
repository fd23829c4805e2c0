import dataclasses
import math
import pickle

import numpy as np
import pytest

from nlchern.model import (
    GaplessParameterError,
    KPoint,
    ModelParams,
    Spinor,
    bloch_vector,
    chern_number,
)

from oracles import NormalizationError, hamiltonian, linear_eigenvalues

TWO_PI = 2.0 * math.pi


def test_bloch_vector_examples():
    d = bloch_vector(ModelParams(u=3.0), KPoint(math.pi, math.pi))
    assert (d.dx, d.dy, d.dz) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    d = bloch_vector(ModelParams(u=1.0), KPoint(0.0, 0.0))
    assert (d.dx, d.dy, d.dz) == pytest.approx((0.0, 0.0, 3.0), abs=1e-15)
    d = bloch_vector(ModelParams(u=1.0), KPoint(math.pi / 2, 0.0))
    assert (d.dx, d.dy, d.dz) == pytest.approx((1.0, 0.0, 2.0), abs=1e-15)


def test_bloch_vector_periodicity():
    p = ModelParams(u=1.3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        kx, ky = rng.uniform(0, TWO_PI, 2)
        a = bloch_vector(p, KPoint(kx, ky))
        # adding 2*pi perturbs the argument by one ulp at most
        b = bloch_vector(p, KPoint(kx + TWO_PI, ky - TWO_PI))
        assert (a.dx, a.dy, a.dz) == pytest.approx((b.dx, b.dy, b.dz), abs=1e-13)
        # identical reduced arguments evaluate identically
        c = bloch_vector(p, KPoint(kx, ky))
        assert (a.dx, a.dy, a.dz) == (c.dx, c.dy, c.dz)


def test_kpoint_reduction_idempotent():
    k = KPoint(-1e-20, 7.0)
    assert 0.0 <= k.kx < TWO_PI and 0.0 <= k.ky < TWO_PI
    k2 = KPoint(k.kx, k.ky)
    assert (k2.kx, k2.ky) == (k.kx, k.ky)
    with pytest.raises(ValueError):
        KPoint(math.inf, 0.0)


@pytest.mark.parametrize("x, want", [
    (-0.0, 0.0), (TWO_PI, 0.0), (-1e-300, 0.0), (7.0, 7.0 - TWO_PI), (-1.0, TWO_PI - 1.0), (0.5, 0.5),
])
def test_kpoint_reduces_each_component_into_the_zone(x, want):
    # -0.0 and 2 pi give +0.0; x % 2 pi rounds up to 2 pi at -1e-300, which is 0.0 too
    for k in (KPoint(x, 0.5), KPoint(0.5, x), KPoint(kx=x, ky=x)):
        assert 0.0 <= k.kx < TWO_PI and 0.0 <= k.ky < TWO_PI
    k = KPoint(x, x)
    assert (k.kx.hex(), k.ky.hex()) == (want.hex(), want.hex())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_kpoint_rejects_a_nonfinite_component(bad):
    for args in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match=r"^quasimomentum components must be finite$"):
            KPoint(*args)


def test_kpoint_keeps_the_dataclass_contract():
    # fields, eq, hash and repr on the reduced components; frozen, slotted, picklable,
    # and dataclasses.replace reduces the component it replaces
    fields = [(f.name, f.type, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(KPoint)]
    assert fields == [("kx", "float", True, True, True, None), ("ky", "float", True, True, True, None)]
    k = KPoint(7.0, -1.0)
    assert k == KPoint(7.0 - TWO_PI, TWO_PI - 1.0) and k != KPoint(0.5, 0.5)
    assert hash(k) == hash(KPoint(7.0 - TWO_PI, TWO_PI - 1.0)) == hash((7.0 - TWO_PI, TWO_PI - 1.0))
    assert repr(KPoint(0.5, 1.5)) == "KPoint(kx=0.5, ky=1.5)"
    assert not hasattr(k, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.kx = 1.0
    moved = dataclasses.replace(k, kx=7.0)
    assert (moved.kx, moved.ky) == (7.0 - TWO_PI, k.ky)
    back = pickle.loads(pickle.dumps(k))
    assert back == k and repr(back) == repr(k)


def test_params_validation():
    with pytest.raises(TypeError):
        ModelParams(u=1.0, J=2.0)
    with pytest.raises(ValueError):
        ModelParams(u=1.0, U=-0.5)
    with pytest.raises(ValueError):
        ModelParams(u=math.nan)
    with pytest.raises(ValueError):
        ModelParams(u=1.0, U=math.inf)


def test_hamiltonian_zero_U_is_linear_part():
    p = ModelParams(u=1.7, U=0.0)
    k = KPoint(0.9, 2.2)
    d = bloch_vector(p, k)
    psi = Spinor(complex(0.6, 0.1), complex(0.2, 0.3)).normalized()
    H = hamiltonian(p, k, psi)
    expected = np.array([[d.dz, d.dx - 1j * d.dy], [d.dx + 1j * d.dy, -d.dz]])
    assert np.allclose(H, expected, atol=1e-15)


def test_hamiltonian_polarized_example():
    H = hamiltonian(ModelParams(u=3.0, U=5.0), KPoint(math.pi, math.pi), Spinor(1.0, 0.0))
    assert H[0, 0] == pytest.approx(6.0, abs=1e-12)
    assert H[1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert abs(H[0, 1]) < 1e-15 and abs(H[1, 0]) < 1e-15


def test_hamiltonian_hermitian_and_trace():
    rng = np.random.default_rng(11)
    p = ModelParams(u=0.8, U=2.3)
    for _ in range(100):
        k = KPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        raw = rng.normal(size=4)
        psi = Spinor(complex(raw[0], raw[1]), complex(raw[2], raw[3])).normalized()
        H = hamiltonian(p, k, psi)
        assert np.linalg.norm(H - H.conj().T) == 0.0
        assert abs(np.trace(H).real - p.U) < 1e-12


def test_hamiltonian_rejects_unnormalized():
    p = ModelParams(u=1.0, U=1.0)
    with pytest.raises(NormalizationError):
        hamiltonian(p, KPoint(0.0, 0.0), Spinor(1.0, 0.1))


def test_linear_eigenvalues():
    assert linear_eigenvalues(ModelParams(u=3.0), KPoint(math.pi, math.pi)) == pytest.approx((-1.0, 1.0))
    assert linear_eigenvalues(ModelParams(u=2.0), KPoint(math.pi, math.pi)) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert linear_eigenvalues(ModelParams(u=1.0), KPoint(0.0, 0.0)) == pytest.approx((-3.0, 3.0))


def test_chern_number_values_and_plateaus():
    assert chern_number(3.0) == 0
    assert chern_number(1.0) == -1
    assert chern_number(-1.0) == 1
    assert chern_number(-3.0) == 0
    for us, expect in [((-5.0, -2.5), 0), ((-1.9, -0.1), 1), ((0.1, 1.9), -1), ((2.5, 9.0), 0)]:
        for u in np.linspace(*us, 7):
            assert chern_number(float(u)) == expect


def test_chern_number_gapless_rejected():
    for u in (0.0, 2.0, -2.0):
        with pytest.raises(GaplessParameterError):
            chern_number(u)
