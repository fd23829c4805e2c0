"""Command-line front end.

Subcommands: bands, degeneracies, gap, dynamics, response, phase-diagram.
A flat key=value config file may supply any long-option value; explicit
command-line flags override it.  All computations are deterministic, so
identical configurations produce byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 regime error (missing
band branch), 4 numerical-health abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .dynamics import DriveSpec, NumericalHealthError, evolve, write_trajectory_csv
from .effective import BracketError, gap_closing_search
from .model import KPoint, ModelParams, Spinor, bloch_vector
from .response import (
    RegimeError,
    kx_columns,
    phase_diagram,
    pumped_charge,
    sweep_initial_states,
    write_phase_diagram_csv,
)
from .spectrum import (
    DegeneracyKind,
    SpectrumHealth,
    _iii_residual,
    band_surface,
    band_surface_rows,
    classify_degeneracies,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERICS = 4


class ConfigError(ValueError):
    pass


def _read_config(path: str, options: dict) -> dict:
    """Parse a key=value file; ``options`` maps long option names to their actions."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in options:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        action = options[key]
        try:
            value = action.type(val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"{path}:{lineno}: {key} must be one of {', '.join(action.choices)}, got {value!r}"
            )
        values[key] = value
    return values


def _parse_force(text: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            f = float(parts[0])
            return (f, f)
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"force must be F or Fx,Fy, got {text!r}")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--u", type=float, help="topological parameter")
    common.add_argument("--U", type=float, help="Kerr nonlinear strength")
    common.add_argument("--grid", type=int, help="grid resolution / number of k_x columns")
    common.add_argument("--F", type=str, help="drive rate; Fx,Fy for dynamics")
    common.add_argument("--dt", type=float, help="integration step (1/J)")
    common.add_argument("--T", type=float, help="total evolution time (1/J)")
    common.add_argument("--band", type=str, choices=["ground", "excited"], help="band branch")
    common.add_argument("--out", type=str, help="output directory (default .)")
    common.add_argument("--format", type=str, choices=["csv", "json"], help="tabular output format")

    parser = argparse.ArgumentParser(prog="nlchern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bands", parents=[common], help="band surface over the zone")
    sub.add_parser("degeneracies", parents=[common], help="classified degenerate points")
    gap = sub.add_parser("gap", parents=[common], help="gap-closing parameter search")
    gap.add_argument("--bracket", type=str, help="LO,HI bracket on the free parameter")
    dyn = sub.add_parser("dynamics", parents=[common], help="driven trajectory along the diagonal")
    dyn.add_argument("--sample-every", type=int, help="steps between trajectory samples")
    sub.add_parser("response", parents=[common], help="pumped charge over one cycle")
    pd = sub.add_parser("phase-diagram", parents=[common], help="A/nA diagram over (u, U)")
    pd.add_argument("--u-min", type=float)
    pd.add_argument("--u-max", type=float)
    pd.add_argument("--U-min", type=float, dest="U_min")
    pd.add_argument("--U-max", type=float, dest="U_max")
    # config keys: every long option of every subcommand, as the parser defines it
    options = {
        opt[2:]: action
        for command in sub.choices.values()
        for action in command._actions
        for opt in action.option_strings
        if opt.startswith("--") and action.dest not in ("help", "config")
    }
    return parser, options


def _merge(args: argparse.Namespace, options: dict) -> dict:
    cfg = _read_config(args.config, options) if args.config else {}
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key.replace("_", "-")] = val
    return merged


def _require(opts: dict, key: str):
    if key not in opts:
        raise ConfigError(f"missing required option --{key}")
    return opts[key]


def _params(opts: dict) -> ModelParams:
    try:
        return ModelParams(u=float(_require(opts, "u")), U=float(opts.get("U", 0.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outdir(opts: dict) -> Path:
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_bands(opts: dict) -> int:
    params = _params(opts)
    n = int(opts.get("grid", 41))
    health = SpectrumHealth()
    nodes = band_surface(params, n, health)
    out = _outdir(opts)
    fmt = opts.get("format", "csv")
    header = ["kx", "ky", "branch_index", "epsilon", "kappa", "re_c1", "im_c1", "re_c2", "im_c2"]
    if fmt == "csv":
        with open(out / "bands.csv", "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            # the rows csv.writer would write: 17 digits per float, no quoting, CRLF
            line = "%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"
            fh.writelines(line % row for row in band_surface_rows(nodes))
    else:
        _write_json(out / "bands.json", [dict(zip(header, row)) for row in band_surface_rows(nodes)])

    counts: dict[int, int] = {}
    multi = []
    for node in nodes:
        c = node.branch_count
        counts[c] = counts.get(c, 0) + 1
        if c > 2:
            multi.append((node.kx, node.ky))
    summary = {
        "u": params.u,
        "U": params.U,
        "grid": n,
        "branch_count_nodes": {str(k): v for k, v in sorted(counts.items())},
        "diagnostics": health.to_dict(),
    }
    if multi:
        summary["multi_branch_region"] = {
            "kx_min": min(m[0] for m in multi),
            "kx_max": max(m[0] for m in multi),
            "ky_min": min(m[1] for m in multi),
            "ky_max": max(m[1] for m in multi),
        }
    _write_json(out / "bands_summary.json", summary)
    return EXIT_OK


def cmd_degeneracies(opts: dict) -> int:
    params = _params(opts)
    n = int(opts.get("grid", 64))
    points = classify_degeneracies(params, n)
    order = {"I": 0, "II": 1, "III": 2}
    points.sort(key=lambda p: (order[p.kind.value], p.k.kx, p.k.ky))
    # each III point's residual on its locus branch, sign(dz); None off the locus domain
    iii = [bloch_vector(params, p.k) for p in points if p.kind is DegeneracyKind.III]
    residuals = [_iii_residual(d, params.U, math.copysign(1.0, d.dz)) for d in iii]
    payload = {
        "u": params.u,
        "U": params.U,
        "grid": n,
        "diagnostics": {
            "max_iii_residual": max((math.inf if r is None else abs(r) for r in residuals), default=0.0)
        },
        "points": [
            {
                "kind": p.kind.value,
                "kx": p.k.kx,
                "ky": p.k.ky,
                "epsilon": p.epsilon,
                "critical_U": p.critical_U,
            }
            for p in points
        ],
    }
    _write_json(_outdir(opts) / "degeneracies.json", payload)
    return EXIT_OK


def cmd_gap(opts: dict) -> int:
    has_u = "u" in opts
    has_U = "U" in opts
    if has_u == has_U:
        raise ConfigError("gap search fixes exactly one of --u / --U and brackets the other")
    bracket_text = _require(opts, "bracket")
    parts = str(bracket_text).split(",")
    if len(parts) != 2:
        raise ConfigError(f"bracket must be LO,HI, got {bracket_text!r}")
    bracket = (float(parts[0]), float(parts[1]))
    if has_u:
        params = ModelParams(u=float(opts["u"]), U=0.0)
        report = gap_closing_search(params, vary="U", bracket=bracket)
    else:
        params = ModelParams(u=0.0, U=float(opts["U"]))
        report = gap_closing_search(params, vary="u", bracket=bracket)
    _write_json(_outdir(opts) / "gap.json", report.to_dict())
    return EXIT_OK


def cmd_dynamics(opts: dict) -> int:
    params = _params(opts)
    force = _parse_force(str(opts.get("F", "0.01")))
    fmax = max(abs(force[0]), abs(force[1]))
    T = float(opts.get("T", 2.0 * math.pi / fmax if fmax > 0 else 100.0))
    dt = float(opts.get("dt", 0.01))
    band = opts.get("band", "ground")
    sample = int(opts.get("sample-every", 20))
    drive = DriveSpec(KPoint(0.0, 0.0), force, T, dt)
    initial = Spinor.from_array(sweep_initial_states(params, band, [drive.k0.kx], drive.k0.ky)[0])
    records = evolve(params, drive, initial, sample_every=sample)
    write_trajectory_csv(records, _outdir(opts) / "trajectory.csv")
    return EXIT_OK


def cmd_response(opts: dict) -> int:
    params = _params(opts)
    force = str(opts.get("F", "0.01"))
    if "," in force:
        raise ConfigError(f"response drives along k_y only; --F takes one rate, got {force!r}")
    summary = pumped_charge(
        params,
        band=opts.get("band", "ground"),
        F=_parse_force(force)[0],
        n_kx=int(opts.get("grid", 50)),
        dt=float(opts.get("dt", 0.01)),
    )
    out = _outdir(opts)
    _write_json(out / "response.json", summary.to_dict())
    with open(out / "response_columns.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kx", "Q"])
        for kx, q in zip(kx_columns(summary.n_kx), summary.Q):
            writer.writerow([f"{kx:.17g}", f"{q:.17g}"])
    return EXIT_OK


def cmd_phase_diagram(opts: dict) -> int:
    u_range = (float(opts.get("u-min", -3.0)), float(opts.get("u-max", 3.0)))
    U_range = (float(opts.get("U-min", 0.0)), float(opts.get("U-max", 6.0)))
    diagram = phase_diagram(
        u_range, U_range, band=opts.get("band", "ground"), resolution=int(opts.get("grid", 50))
    )
    write_phase_diagram_csv(diagram, _outdir(opts) / "phase_diagram.csv")
    return EXIT_OK


_COMMANDS = {
    "bands": cmd_bands,
    "degeneracies": cmd_degeneracies,
    "gap": cmd_gap,
    "dynamics": cmd_dynamics,
    "response": cmd_response,
    "phase-diagram": cmd_phase_diagram,
}


def main(argv=None) -> int:
    parser, options = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge(args, options)
        return _COMMANDS[args.command](opts)
    except (ConfigError, BracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc.filename or ''}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NumericalHealthError as exc:
        print(f"numerical health: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
