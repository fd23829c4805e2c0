"""Effective model near k = (pi, pi) and the gap-closing parameter search.

Expanding the Bloch vector to second order around (pi, pi) gives

    d_eff(p) = (-px, -py, pz),   pz = u - 2 + (px^2 + py^2)/2,

with px = kx - pi, py = ky - pi.  Its quartic spectrum inherits the full
model's physicality rules.  Along the diagonal cross-section px = py = p,
the two-fold degenerate fold points satisfy

    (u - 2 + p^2) = -(1/2) * { U^(2/3) - (8 p^2)^(1/3) }^(3/2),

generically at four values of p; the merger of the inner pair (4 -> 2
roots) marks the closing of the gap between the Bloch band structures,
which is the criterion the parameter bisection below localizes.  At fixed
U the merger also has a closed form (``gap_closed_u_interval``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import BlochVector, ModelParams
from .spectrum import NonlinearEigenpair, _iii_residual, nonlinear_eigenpairs


class LocusDomainError(ValueError):
    """Fractional power evaluated outside its real domain |p| > U^(1/2)/8^(1/6)."""


class BracketError(ValueError):
    """Bisection bracket endpoints do not straddle the root-count transition."""


@dataclass(frozen=True)
class PPoint:
    """Expansion momenta around (pi, pi); |px|, |py| <= pi."""

    px: float
    py: float

    def __post_init__(self):
        if abs(self.px) > math.pi or abs(self.py) > math.pi:
            raise ValueError("expansion momenta must satisfy |px|, |py| <= pi")

    @classmethod
    def diagonal(cls, p: float) -> "PPoint":
        return cls(p, p)


@dataclass(frozen=True)
class GapClosingReport:
    """Outcome of the bisection for a gap-closing parameter value."""

    fixed_param: str
    fixed_value: float
    varied_param: str
    bracket: tuple[float, float]
    critical_value: float
    roots_before: tuple[float, ...]
    roots_after: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_tuples_as_lists)


def _tuples_as_lists(pairs) -> dict:
    """``asdict`` factory: tuples become lists, the way they read back from JSON."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def effective_bloch_vector(params: ModelParams, p: PPoint) -> BlochVector:
    pz = params.u - 2.0 + 0.5 * (p.px * p.px + p.py * p.py)
    return BlochVector(-p.px, -p.py, pz)


def effective_eigenpairs(params: ModelParams, p: PPoint) -> list[NonlinearEigenpair]:
    return nonlinear_eigenpairs(effective_bloch_vector(params, p), params.U)


def effective_spectrum(params: ModelParams, p: PPoint) -> list[float]:
    """Physical eigenvalues of the effective model, sorted, with multiplicity."""
    out: list[float] = []
    for pair in effective_eigenpairs(params, p):
        out.extend([pair.epsilon] * pair.multiplicity)
    return out


def iii_locus_residual(params: ModelParams, p: float, sign: int) -> float:
    """Defect (u - 2 + p^2) + sign * {U^(2/3) - (8 p^2)^(1/3)}^(3/2) / 2.

    This is the III-locus residual of ``spectrum`` on d_eff at px = py = p,
    with the sign flipped.  Defined only where the braced quantity is
    nonnegative; an even function of p.  The fold-point condition of the
    lower branch corresponds to sign = +1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = _iii_residual(effective_bloch_vector(params, PPoint.diagonal(p)), params.U, -sign)
    if r is None:
        raise LocusDomainError(
            f"|p|={abs(p):.6g} outside the real domain of the fractional power "
            f"(requires |p| <= {math.sqrt(params.U * params.U / 8.0):.6g})"
        )
    return r


def _p_domain(params: ModelParams) -> float:
    return min(math.pi, math.sqrt(params.U * params.U / 8.0))


def count_iii_points(
    params: ModelParams,
    n_grid: int = 20001,
    touch_tol: float = 1e-5,
) -> tuple[int, list[float]]:
    """Count and locate diagonal fold points, bisection-refined to 1e-10.

    Sign changes of the residual on a fine grid over the valid part of
    [-pi, pi] give transversal roots; in addition, a local minimum of |r|
    that dips below ``touch_tol`` without a sign change is reported as a
    tangential (just-merged) root pair member.
    """
    if n_grid < 10_000:
        raise ValueError("locus scan needs at least 10^4 grid nodes")
    pmax = _p_domain(params)
    if pmax <= 0.0:
        return 0, []
    grid = np.linspace(-pmax, pmax, n_grid)
    # vectorized residual (even and smooth inside the domain)
    t = params.U ** (2.0 / 3.0) - (8.0 * grid * grid) ** (1.0 / 3.0)
    t = np.maximum(t, 0.0)
    r = (params.u - 2.0 + grid * grid) + 0.5 * t**1.5

    roots: list[float] = []
    sign_change = np.where(np.sign(r[:-1]) * np.sign(r[1:]) < 0)[0]
    for i in sign_change:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(r[i])
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            fm = iii_locus_residual(params, mid, +1)
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))

    # tangential contacts: interior |r| minima below tolerance, away from
    # any transversal root already found
    absr = np.abs(r)
    interior = np.arange(1, n_grid - 1)
    is_min = (absr[interior] <= absr[interior - 1]) & (absr[interior] <= absr[interior + 1])
    for i in interior[is_min]:
        if absr[i] > touch_tol:
            continue
        p0 = float(grid[i])
        if any(abs(p0 - q) < 4.0 * (grid[1] - grid[0]) for q in roots):
            continue
        roots.append(p0)

    roots.sort()
    return len(roots), roots


def gap_closing_search(
    params: ModelParams,
    vary: str,
    bracket: tuple[float, float],
    tol: float = 1e-4,
) -> GapClosingReport:
    """Bisect the free parameter to the fold-merger (4 -> 2 roots) transition.

    ``vary`` is "u" (U held at params.U) or "U" (u held at params.u); the
    bracket endpoints must lie on opposite sides of the transition, with
    four fold points on one side and fewer on the other.
    """
    if vary not in ("u", "U"):
        raise ValueError('vary must be "u" or "U"')

    def make(value: float) -> ModelParams:
        return ModelParams(u=value, U=params.U) if vary == "u" else ModelParams(u=params.u, U=value)

    lo, hi = float(bracket[0]), float(bracket[1])
    n_lo, roots_lo = count_iii_points(make(lo))
    n_hi, roots_hi = count_iii_points(make(hi))
    if (n_lo >= 4) == (n_hi >= 4):
        raise BracketError(
            f"bracket invalid: {vary}={lo} gives {n_lo} fold points, "
            f"{vary}={hi} gives {n_hi}"
        )
    if n_lo < 4:  # orient so lo is the four-root side
        lo, hi = hi, lo
        roots_lo, roots_hi = roots_hi, roots_lo

    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        n_mid, _ = count_iii_points(make(mid))
        if n_mid >= 4:
            lo = mid
        else:
            hi = mid

    return GapClosingReport(
        fixed_param="U" if vary == "u" else "u",
        fixed_value=params.U if vary == "u" else params.u,
        varied_param=vary,
        bracket=(float(bracket[0]), float(bracket[1])),
        critical_value=0.5 * (lo + hi),
        roots_before=tuple(roots_lo),
        roots_after=tuple(roots_hi),
    )


def gap_closed_u_interval(U: float) -> tuple[float, float]:
    """Endpoints of the u-interval with no gap between the Bloch bands, at fixed U.

    The lower endpoint is the fold merger: the residual on the diagonal is
    u + g(p) with g(p) = p^2 - 2 + (1/2) {U^(2/3) - (8 p^2)^(1/3)}^(3/2),
    and its inner root pair merges at u* = -g(p*), where p* is the one
    interior minimum of g.  With w = (8 p*^2)^(1/3), g'(p*) = 0 reads
    w^4 / 4 + w = U^(2/3) and gives u* = 2 - w^3/8 - w^6/16.  Beyond the
    merger the fold count is zero on both sides of the reopening, so the
    upper endpoint is instead the pinch-off of the excited-band tube
    circle p^2 = 2(2 - u), which is u = 2 exactly for every U.
    """
    if not 0.0 < U < math.inf:
        raise ValueError("the gap closes only for finite U > 0")
    c = U ** (2.0 / 3.0)
    # Newton from above on the convex, increasing w^4/4 + w - c descends
    # monotonically to the root; rounding ends the descent
    w = min(c, (4.0 * c) ** 0.25)
    while (nxt := w - (0.25 * w**4 + w - c) / (w**3 + 1.0)) < w:
        w = nxt
    if w**3 / 8.0 > math.pi**2:
        raise ValueError(f"the fold merger at U={U} lies beyond the zone edge |p| = pi")
    return 2.0 - w**3 / 8.0 - w**6 / 16.0, 2.0
