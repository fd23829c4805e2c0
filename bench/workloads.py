"""Workload inputs and output checks of the nlchern benchmark.

Importing this module imports nothing from ``nlchern``, so the inputs and
checks can be tested on their own.  ``worker.py`` runs them against the
package.

Every check returns ``None`` when the output is right and a one-line
reason when it is not.  The reference values are the engine's results at
the baseline commit (BASELINE.md): the acceptance ranges of the gap
search, the band-count histogram of ``bands --u 3 --U 5 --grid 81``, the
analytic phase-diagram labels, the pumped charge and the trajectory
length.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

TWO_PI = 2.0 * math.pi
DEGENERACIES_u = 1.2     # u of the degeneracies command, which its check needs

# The README's CLI commands, in the order a figure script runs them.
STATICS = (
    ("bands", ["bands", "--u", "3", "--U", "5", "--grid", "81"]),
    ("degeneracies", ["degeneracies", "--u", str(DEGENERACIES_u), "--U", "3", "--grid", "64"]),
    ("gap_fix_u", ["gap", "--u", "1", "--bracket", "4.0,4.4"]),
    ("gap_fix_U", ["gap", "--U", "4", "--bracket", "1.0,1.2"]),
    (
        "phase_diagram",
        ["phase-diagram", "--u-min", "0", "--u-max", "4", "--U-min", "0",
         "--U-max", "6", "--grid", "60", "--band", "ground"],
    ),
)
RESPONSE = (
    ("response",
     ["response", "--u", "1", "--U", "0.5", "--F", "0.01", "--grid", "50",
      "--dt", "0.01", "--band", "ground"]),
)
DYNAMICS = (
    ("dynamics", ["dynamics", "--u", "1", "--U", "4", "--F", "0.01", "--dt", "0.01"]),
)
CLI_WORKLOADS = {"statics": STATICS, "response": RESPONSE, "dynamics": DYNAMICS}
WORKLOADS = ("statics", "spectrum-edge", "response", "dynamics")

# integrator steps of the dynamics command: round(T / dt), T = 2 pi / F
DYNAMICS_STEPS = round(TWO_PI / 0.01 / 0.01)

# reference values (baseline commit, README settings)
BANDS_HISTOGRAM = {"2": 6356, "4": 205}
GAP_FIX_u_RANGE = (4.1993, 4.1997)     # critical U at u = 1
GAP_FIX_U_TARGET, GAP_FIX_U_TOL = 1.066, 0.005   # critical u at U = 4
NU_SEED, NU_TOL = -1.0002094596824436, 1e-5
TRAJECTORY_ROWS = 3142          # samples at steps 0, 20, ..., 62820; 3143 lines with the header
NORM_DRIFT_MAX = 1e-5

# spectrum-edge: points per pass, and the invariants of ROADMAP item 2
EDGE_POINTS = 6000
EDGE_U_MAX = 6.0
RESIDUAL_REL = 1e-9


# ---------------------------------------------------------------------------
# spectrum-edge inputs
# ---------------------------------------------------------------------------

def edge_family_sizes() -> dict[str, int]:
    """A third generic, a third polar, a third on the dz = 0 contour."""
    third = EDGE_POINTS // 3
    polar = third
    contour = EDGE_POINTS - 2 * third
    return {
        "generic": third,
        "polar_exact": polar // 3,
        "polar_near": polar // 3,
        "polar_uniform": polar - 2 * (polar // 3),
        "contour_exact": contour // 2,
        "contour_uniform": contour - contour // 2,
    }


def edge_points(seed: int) -> list[tuple[str, float, float, float, float]]:
    """Seeded (family, u, U, kx, ky) inputs for physical_spectrum.

    Polar points sit at the four momenta {0, pi}^2 with U exactly at the
    I-type critical strength 2|dz|, within 1e-6 relative of it, or
    uniform.  Contour points lie on dz = 0 with U exactly at the II-type
    strength 2 sqrt(dx^2 + dy^2), or uniform.  The critical strengths are
    computed with the same floating-point expressions as
    ``nlchern.model.bloch_vector``, so "exactly" holds to the last bit.
    """
    rng = random.Random(seed)
    points = []
    for family, count in edge_family_sizes().items():
        for _ in range(count):
            if family == "generic":
                u, U = rng.uniform(-3.0, 3.0), rng.uniform(0.0, EDGE_U_MAX)
                kx, ky = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
            elif family.startswith("polar"):
                kx, ky = rng.choice((0.0, math.pi)), rng.choice((0.0, math.pi))
                u = rng.uniform(-3.0, 3.0)
                critical = 2.0 * abs(u + math.cos(kx) + math.cos(ky))
                if family == "polar_exact":
                    U = critical
                elif family == "polar_near":
                    U = critical * (1.0 + rng.uniform(-1e-6, 1e-6))
                else:
                    U = rng.uniform(0.0, EDGE_U_MAX)
            else:
                u = rng.uniform(-2.0, 2.0)
                while True:
                    kx = rng.uniform(0.0, TWO_PI)
                    c = -u - math.cos(kx)
                    if abs(c) <= 1.0:
                        break
                ky = math.acos(c)
                if rng.random() < 0.5:
                    ky = TWO_PI - ky
                if family == "contour_exact":
                    U = 2.0 * math.sqrt(math.sin(kx) ** 2 + math.sin(ky) ** 2)
                else:
                    U = rng.uniform(0.0, EDGE_U_MAX)
            points.append((family, u, U, kx, ky))
    return points


def check_pairs(u: float, U: float, kx: float, ky: float, pairs) -> tuple[str | None, float]:
    """ROADMAP item 2 invariants for one physical_spectrum result.

    At least two stationary states counting multiplicity, and every pair
    with residual ||H(psi) psi - eps psi|| <= 1e-9 * max(1, U, |d|).  The
    residual is computed here from the model's definition, independently
    of the package.  Returns (reason or None, largest residual).
    """
    dx, dy, dz = math.sin(kx), math.sin(ky), u + math.cos(kx) + math.cos(ky)
    scale = max(1.0, U, math.sqrt(dx * dx + dy * dy + dz * dz))
    worst = 0.0
    for p in pairs:
        c1, c2 = p.state.c1, p.state.c2
        n1 = c1.real * c1.real + c1.imag * c1.imag
        n2 = c2.real * c2.real + c2.imag * c2.imag
        r1 = (dz + U * n1 - p.epsilon) * c1 + complex(dx, -dy) * c2
        r2 = complex(dx, dy) * c1 + (U * n2 - dz - p.epsilon) * c2
        worst = max(worst, math.sqrt(abs(r1) ** 2 + abs(r2) ** 2))
    branches = sum(p.multiplicity for p in pairs)
    if branches < 2:
        return f"{branches} branch(es)", worst
    if worst > RESIDUAL_REL * scale:
        return "residual above 1e-9 scale", worst
    return None, worst


# ---------------------------------------------------------------------------
# CLI output checks, one per command
# ---------------------------------------------------------------------------

def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_bands(out: Path) -> str | None:
    summary = json.loads((out / "bands_summary.json").read_text())
    hist = summary["branch_count_nodes"]
    if hist != BANDS_HISTOGRAM:
        return f"branch-count histogram {hist}"
    rows = len(_csv_rows(out / "bands.csv"))
    expected = sum(int(k) * v for k, v in BANDS_HISTOGRAM.items())
    if rows != expected:
        return f"bands.csv has {rows} rows, expected {expected}"
    return None


def check_degeneracies(out: Path) -> str | None:
    points = json.loads((out / "degeneracies.json").read_text())["points"]
    polar = [p for p in points if p["kind"] == "I"]
    if len(polar) != 4:
        return f"{len(polar)} I-type points"
    for p in polar:
        critical = 2.0 * abs(DEGENERACIES_u + math.cos(p["kx"]) + math.cos(p["ky"]))
        if abs(p["critical_U"] - critical) > 1e-12:
            return f"I-point critical_U {p['critical_U']!r} != 2|dz| {critical!r}"
    return None


def _critical_value(out: Path) -> float:
    return json.loads((out / "gap.json").read_text())["critical_value"]


def check_gap_fix_u(out: Path) -> str | None:
    value = _critical_value(out)
    lo, hi = GAP_FIX_u_RANGE
    return None if lo <= value <= hi else f"critical U {value!r} outside [{lo}, {hi}]"


def check_gap_fix_U(out: Path) -> str | None:
    value = _critical_value(out)
    ok = abs(value - GAP_FIX_U_TARGET) <= GAP_FIX_U_TOL
    return None if ok else f"critical u {value!r} not within {GAP_FIX_U_TOL} of {GAP_FIX_U_TARGET}"


def check_phase_diagram(out: Path) -> str | None:
    rows = _csv_rows(out / "phase_diagram.csv")
    if len(rows) != 60 * 60:
        return f"phase_diagram.csv has {len(rows)} rows"
    for u, U, label in rows:
        # ground_critical_strength(u) = 2 ||u| - 2|; the cell is nA above it
        expected = "nA" if float(U) > 2.0 * abs(abs(float(u)) - 2.0) else "A"
        if label != expected:
            return f"label {label} at u={u}, U={U}, expected {expected}"
    return None


def check_response(out: Path) -> str | None:
    nu = json.loads((out / "response.json").read_text())["nu"]
    ok = abs(nu - NU_SEED) <= NU_TOL
    return None if ok else f"nu {nu!r} not within {NU_TOL} of {NU_SEED!r}"


def trajectory_norm_drift(out: Path) -> tuple[int, float]:
    rows = _csv_rows(out / "trajectory.csv")
    return len(rows), max((abs(float(r[3]) - 1.0) for r in rows), default=math.inf)


def check_dynamics(out: Path) -> str | None:
    rows, drift = trajectory_norm_drift(out)
    if rows != TRAJECTORY_ROWS:
        return f"trajectory.csv has {rows} rows, expected {TRAJECTORY_ROWS}"
    if drift > NORM_DRIFT_MAX:
        return f"max |norm - 1| = {drift:.3g} above {NORM_DRIFT_MAX}"
    return None


CHECKS = {
    "bands": check_bands,
    "degeneracies": check_degeneracies,
    "gap_fix_u": check_gap_fix_u,
    "gap_fix_U": check_gap_fix_U,
    "phase_diagram": check_phase_diagram,
    "response": check_response,
    "dynamics": check_dynamics,
}
