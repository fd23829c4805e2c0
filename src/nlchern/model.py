"""Kerr-nonlinear Qi-Wu-Zhang (QWZ) Chern insulator: model definition.

Two-band Bloch Hamiltonian on the square lattice,

    H(k, psi) = d(k) . sigma + U * diag(|psi1|^2, |psi2|^2),
    d(k) = (J sin kx, J sin ky, u + J cos kx + J cos ky),

with hopping J = 1 fixed (energies in units of J, times in 1/J).

Unit conventions: hbar = 1, so the Planck constant h is 2*pi wherever a
Hall-type response is normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: gapless values of the topological parameter (linear band touchings)
GAPLESS_U = (0.0, 2.0, -2.0)

#: tolerance for user-supplied state normalization
NORM_INPUT_TOL = 1e-9


class GaplessParameterError(ValueError):
    """Raised when a Chern number is requested at a gap-closing parameter."""


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Physical parameters: topological parameter u, Kerr strength U, hopping J=1."""

    u: float
    U: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise ValueError("u must be finite")
        if not (0.0 <= self.U < math.inf):
            raise ValueError("U must be a finite nonnegative Kerr strength")


def _reduce_angle(x: float) -> float:
    """Reduce to [0, 2*pi). Idempotent, including the rounding edge at 2*pi."""
    if not math.isfinite(x):
        raise ValueError("quasimomentum components must be finite")
    r = x % TWO_PI
    if r >= TWO_PI:  # x slightly below 0 can round the modulo up to 2*pi
        r = 0.0
    return r


@dataclass(frozen=True, slots=True)
class KPoint:
    """Quasimomentum in the restricted Brillouin zone, components in [0, 2*pi)."""

    kx: float
    ky: float

    def __post_init__(self):
        object.__setattr__(self, "kx", _reduce_angle(self.kx))
        object.__setattr__(self, "ky", _reduce_angle(self.ky))


@dataclass(frozen=True, slots=True)
class BlochVector:
    """The real vector d(k) multiplying the Pauli matrices."""

    dx: float
    dy: float
    dz: float

    @property
    def planar_sq(self) -> float:
        return self.dx * self.dx + self.dy * self.dy

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.planar_sq + self.dz * self.dz)


@dataclass(frozen=True, slots=True)
class Spinor:
    """Two-component complex amplitude (c1, c2)."""

    c1: complex
    c2: complex

    @property
    def norm(self) -> float:
        return math.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2)

    def normalized(self) -> "Spinor":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero spinor")
        return Spinor(self.c1 / n, self.c2 / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)

    @classmethod
    def from_array(cls, a) -> "Spinor":
        return cls(complex(a[0]), complex(a[1]))


def _bloch_parts(u, kx, ky, m):
    """(dx, dy, dz) = (sin kx, sin ky, (u + cos kx) + cos ky), J = 1, by ``m``'s sin and cos,
    elementwise: ``m`` is ``math`` on Python floats and ``np`` on numpy arrays."""
    return m.sin(kx), m.sin(ky), (u + m.cos(kx)) + m.cos(ky)


def bloch_vector(params: ModelParams, k: KPoint) -> BlochVector:
    """d(k) = (sin kx, sin ky, u + cos kx + cos ky), J = 1."""
    return BlochVector(*_bloch_parts(params.u, k.kx, k.ky, math))


def _kerr_row(D, O, U, p, q):
    """One row of H(d, psi) psi for H = d . sigma + U diag(|p1|^2, |p2|^2), elementwise.

    Row 1 is ``_kerr_row(dz, dx - i dy, U, p1, p2)``, row 2 is
    ``_kerr_row(-dz, dx + i dy, U, p2, p1)``.
    """
    return (D + U * p * p.conjugate()) * p + O * q


def chern_number(u: float) -> int:
    """Ground-band Chern number C = sgn(u+2)/2 + sgn(u-2)/2 - sgn(u).

    Defined only away from the gapless values u in {0, +2, -2}.
    """
    if u in GAPLESS_U:
        raise GaplessParameterError(f"band gap closes at u={u}; Chern number undefined")
    sgn = lambda x: 1.0 if x > 0 else -1.0
    return int(round(0.5 * sgn(u + 2.0) + 0.5 * sgn(u - 2.0) - sgn(u)))
