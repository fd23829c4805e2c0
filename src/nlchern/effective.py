"""Effective model near k = (pi, pi) and the gap-closing parameter in closed form.

Expanding the Bloch vector to second order around (pi, pi) gives

    d_eff(p) = (-px, -py, pz),   pz = u - 2 + (px^2 + py^2)/2,

with px = kx - pi, py = ky - pi.  Along the diagonal cross-section
px = py = p, the two-fold degenerate fold points satisfy

    (u - 2 + p^2) = -(1/2) * { U^(2/3) - (8 p^2)^(1/3) }^(3/2),

generically at four values of p, the roots of a sextic in
v = {U^(2/3) - (8 p^2)^(1/3)}^(1/2) (``count_iii_points``).  The merger
of the inner pair (4 -> 2 roots) marks the closing of the gap between
the Bloch band structures.  It has a closed form at fixed U,
u* = 2 - w^3/8 - w^6/16 with w^4/4 + w = U^(2/3), and at fixed u,
U_g = (w^4/4 + w)^(3/2) with w^3 = sqrt(33 - 16 u) - 1 (``_fold_merger``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .spectrum import _real_roots


class BracketError(ValueError):
    """Bracket endpoints do not straddle the fold merger (4 -> 2 roots)."""


@dataclass(frozen=True, slots=True)
class GapClosingReport:
    """A gap-closing parameter value and the fold points at the bracket ends."""

    fixed_param: str
    fixed_value: float
    varied_param: str
    bracket: tuple[float, float]
    critical_value: float
    roots_before: tuple[float, ...]
    roots_after: tuple[float, ...]


def count_iii_points(params: ModelParams) -> tuple[int, list[float]]:
    """Count and locate the diagonal fold points as the real roots of a sextic.

    They are the roots p, |p| <= pi, of the III-locus residual
    ``spectrum._iii_residual`` at sign = -1 on d_eff(p, p), where s = 2 p^2
    and dz = u - 2 + p^2:

        r(p) = (u - 2 + p^2) + (1/2) t^(3/2),   t = c - (8 p^2)^(1/3),  c = U^(2/3).

    With v = sqrt(t) in [0, sqrt(c)], p^2 = (c - v^2)^3 / 8 and c^3 = U^2,

        -8 r = v^6 - 3c v^4 - 4 v^3 + 3c^2 v^2 + (16 - 8u - U^2),

    a sextic whose real roots v in [sqrt(max(0, c - (8 pi^2)^(1/3))), sqrt(c)]
    give the fold points p = +-(c - v^2)^(3/2) / sqrt(8).  A double root (a
    tangency) is reported once per side, and a root at p = 0 once.
    """
    U = params.U
    if not 0.0 < U < math.inf:
        return 0, []
    c = U ** (2.0 / 3.0)
    vmin = math.sqrt(max(0.0, c - (8.0 * math.pi**2) ** (1.0 / 3.0)))
    sextic = [1.0, 0.0, -3.0 * c, -4.0, 3.0 * c * c, 0.0, 16.0 - 8.0 * params.u - U * U]
    p = [max(0.0, c - v**2) ** 1.5 / math.sqrt(8.0) for v in _real_roots(sextic, vmin, math.sqrt(c))]
    roots = sorted({q for x in p for q in (-x, x)})
    return len(roots), roots


def _fold_merger(vary: str, fixed: float) -> float:
    """Value of the varied parameter at which the inner fold pair merges.

    On the diagonal the residual is u + g(p), g(p) = p^2 - 2 + (1/2)
    {U^(2/3) - (8 p^2)^(1/3)}^(3/2), and its inner root pair merges at
    u* = -g(p*), where p* is the one interior minimum of g.  With
    w = (8 p*^2)^(1/3), g'(p*) = 0 reads w^4 / 4 + w = U^(2/3) and gives
    u* = 2 - w^3/8 - w^6/16.  At fixed U (vary = "u") Newton solves the
    first for w; at fixed u (vary = "U") the second is a quadratic in w^3,
    w^3 = sqrt(33 - 16 u) - 1, and U_g = (w^4/4 + w)^(3/2).
    """
    if vary == "u":
        if not 0.0 < fixed < math.inf:
            raise ValueError("the gap closes only for finite U > 0")
        c = fixed ** (2.0 / 3.0)
        # Newton from above on the convex, increasing w^4/4 + w - c descends
        # monotonically to the root; rounding ends the descent
        w = min(c, (4.0 * c) ** 0.25)
        while (nxt := w - (0.25 * w**4 + w - c) / (w**3 + 1.0)) < w:
            w = nxt
        value = 2.0 - w**3 / 8.0 - w**6 / 16.0
    else:
        if not fixed < 2.0:
            raise ValueError("the gap closes only for u < 2")
        w = (math.sqrt(33.0 - 16.0 * fixed) - 1.0) ** (1.0 / 3.0)
        value = (0.25 * w**4 + w) ** 1.5
    if w**3 / 8.0 > math.pi**2:
        raise ValueError(f"the fold merger at {vary}={value:.6g} lies beyond the zone edge |p| = pi")
    return value


def gap_closing_search(params: ModelParams, vary: str, bracket: tuple[float, float]) -> GapClosingReport:
    """The free parameter at the fold merger (4 -> 2 roots), in closed form.

    ``vary`` is "u" (U held at params.U) or "U" (u held at params.u).  The
    bracket endpoints must lie on opposite sides of the transition, with
    four fold points on one side and fewer on the other, and the merger
    must lie between them.
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
    if n_lo < 4:  # roots_before is the four-root side
        roots_lo, roots_hi = roots_hi, roots_lo
    fixed = params.U if vary == "u" else params.u
    critical = _fold_merger(vary, fixed)
    if not min(lo, hi) <= critical <= max(lo, hi):
        raise BracketError(f"the fold merger {vary}={critical:.6g} lies outside the bracket [{lo}, {hi}]")

    return GapClosingReport(
        fixed_param="U" if vary == "u" else "u",
        fixed_value=fixed,
        varied_param=vary,
        bracket=(lo, hi),
        critical_value=critical,
        roots_before=tuple(roots_lo),
        roots_after=tuple(roots_hi),
    )


def gap_closed_u_interval(U: float) -> tuple[float, float]:
    """Endpoints of the u-interval with no gap between the Bloch bands, at fixed U.

    The lower endpoint is the fold merger (``_fold_merger``).  Beyond the
    merger the fold count is zero on both sides of the reopening, so the
    upper endpoint is instead the pinch-off of the excited-band tube
    circle p^2 = 2(2 - u), which is u = 2 exactly for every U.
    """
    return _fold_merger("u", U), 2.0
