"""Command-line front end: the options, and the layout of every output file.

Subcommands: bands, degeneracies, gap, dynamics, response, phase-diagram.
Each subcommand takes only the options it reads; ``nlchern <command>
--help`` lists them with their defaults.  A flat key=value config file
(--config) may supply any of those options under its long name: each line
is parsed as the flag --key=value placed before the command-line flags, so
argparse checks it the same way and an explicit flag overrides it.  A key
the subcommand does not read is an error like a flag it does not read.
Flags are not abbreviated, so a flag and a config key name an option the
same way.  All computations are deterministic, so identical configurations
produce byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 regime error (missing
band branch), 4 numerical-health abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import DriveSpec, NumericalHealthError, evolve, step_schedule
from .effective import gap_closing_search
from .model import KPoint, ModelParams, Spinor, bloch_vector
from .response import _BANDS, RegimeError, kx_columns, phase_diagram, pumped_charge, sweep_initial_states
from .spectrum import (
    DegeneracyKind,
    Spectra,
    SpectrumHealth,
    _iii_residual,
    band_surface,
    classify_degeneracies,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERICS = 4

# grid CSV rows joined into one chunk of lines at a time: at 256 a block's bytes
# arrays stay under 64 KB; blocks of 1,024 rows raised the statics peak RSS more,
# and blocks of 128 wrote slower
_ROW_BLOCK = 256


class ConfigError(ValueError):
    pass


def _numbers(text: str, counts: tuple[int, ...], form: str) -> tuple[float, ...]:
    try:
        values = tuple(map(float, text.split(",")))
    except ValueError:
        values = ()
    if len(values) not in counts:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return values


def _force(text: str) -> tuple[float, ...]:
    return _numbers(text, (1, 2), "F or Fx,Fy")


def _bracket(text: str) -> tuple[float, ...]:
    return _numbers(text, (2,), "LO,HI")


# Every option, written once: long name -> add_argument keywords.  A
# subcommand whose default differs (grid) or must stay unset (gap's U) sets
# its own in _SUBCOMMANDS.
_OPTIONS = {
    "u": dict(type=float, help="topological parameter"),
    "U": dict(type=float, default=0.0, help="Kerr nonlinear strength"),
    "grid": dict(type=int, help="grid points per axis; k_x columns for response"),
    "bracket": dict(
        type=_bracket, help="LO,HI bracket on the free parameter (required); LO < 0 as --bracket=-0.5,1.2"
    ),
    "F": dict(
        type=_force, default="0.01", help="drive rate; dynamics also takes Fx,Fy, Fx < 0 as --F=-0.02,0.01"
    ),
    "T": dict(type=float, help="total evolution time (1/J); unset: 2 pi / max|F|, or 100 at F = 0"),
    "dt": dict(type=float, default=0.01, help="integration step (1/J), shrunk so that whole steps span the run exactly"),
    "band": dict(choices=tuple(_BANDS), default="ground", help="band branch"),
    "sample-every": dict(type=int, default=20, help="steps between trajectory samples"),
    "u-min": dict(type=float, default=-3.0, help="lowest u"),
    "u-max": dict(type=float, default=3.0, help="highest u"),
    "U-min": dict(type=float, default=0.0, help="lowest U"),
    "U-max": dict(type=float, default=6.0, help="highest U"),
    "out": dict(default=".", help="output directory"),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a flag is spelled out like its config key; no prefix matching
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # a bad command line is a configuration error like a bad config file:
        # main reports it and returns 2 instead of exiting.  argparse takes a
        # value that starts with "-" and is no plain negative number for a
        # flag; name the one-token form that passes it, unless the value is
        # an option of its own and the flag's value was left out.
        flag = re.fullmatch(r"argument (--\S+): expected one argument", message)
        tokens = getattr(self, "_tokens", [])
        if flag and flag[1] in tokens[:-1]:
            value = tokens[tokens.index(flag[1]) + 1]
            if value.startswith("-") and value.split("=")[0] not in self._option_string_actions:
                message += f" (a value starting with '-' goes in one token: {flag[1]}={value})"
        raise ConfigError(f"{self.prog}: {message}")


def _config_tokens(path: str, keys) -> list[str]:
    """A key=value file as the flags ``--key=value``, for argparse to convert and
    check like the command line's; ``keys`` are the long option names it may set."""
    tokens = []
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        # one token, so that a value starting with "-" is not read as a flag
        tokens.append(f"--{key}={val.strip()}")
    return tokens


def _require(args: argparse.Namespace, dest: str):
    value = getattr(args, dest)
    if value is None:
        raise ConfigError(f"missing required option --{dest}")
    return value


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(u=_require(args, "u"), U=args.U)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=asdict) + "\n")


def _write_csv(path: Path, header, chunks) -> None:
    """The header, then ``chunks``, bytes of whole CRLF-terminated lines, written in
    binary mode: the lines csv.writer would write for rows with floats as %.17g and
    nothing to quote."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        fh.writelines(chunks)


def _text_rows(*columns):
    """The CSV lines of the columns' entries as bytes, ``_ROW_BLOCK`` rows a chunk: %.17g
    for a float, %d for an integer, a string as ASCII.  Each distinct entry of a column
    is formatted once, numbers told apart by their bits, not by value, so that 0.0 and
    -0.0 keep their own text.  A block takes each column's text by its rows' indices
    into the distinct entries, and numpy's bytes ``add`` joins the fields in C."""
    taken = []
    for column in columns:
        kind = column.dtype.kind
        distinct, inverse = np.unique(column.view(np.uint64) if kind in "fi" else column, return_inverse=True)
        if kind in "fi":
            form = b"%.17g" if kind == "f" else b"%d"
            distinct = [form % v for v in distinct.view(column.dtype).tolist()]
        # an explicit S dtype, which an empty column does not imply
        taken.append((np.array(distinct, dtype="S"), inverse))
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        text, inverse = taken[0]
        line = text[inverse[block]]
        for text, inverse in taken[1:]:
            line = np.add(np.add(line, b","), text[inverse[block]])
        yield b"".join(np.add(line, b"\r\n").tolist())


def _band_rows(kx, ky, spectra: Spectra):
    """Flatten to CSV lines, by ``_text_rows``: one row per branch per node (kx[i], ky[i]), a
    population-split degenerate pair once per unit of its multiplicity; the
    columns are indexed as arrays."""
    branches = spectra.branch_counts()
    node = np.repeat(np.arange(len(branches)), branches)
    index = np.arange(len(node)) - np.repeat(np.cumsum(branches) - branches, branches)
    state = np.repeat(np.arange(len(spectra.multiplicity)), spectra.multiplicity)
    c1, c2 = spectra.c1[state], spectra.c2[state]
    return _text_rows(
        kx[node], ky[node], index, spectra.epsilon[state], spectra.kappa[state], c1.real, c1.imag, c2.real, c2.imag
    )


def cmd_bands(args: argparse.Namespace) -> int:
    params = _params(args)
    health = SpectrumHealth()
    kx, ky, spectra = band_surface(params, args.grid, health)
    out = _outdir(args)
    header = ("kx", "ky", "branch_index", "epsilon", "kappa", "re_c1", "im_c1", "re_c2", "im_c2")
    _write_csv(out / "bands.csv", header, _band_rows(kx, ky, spectra))

    branches = spectra.branch_counts()
    counts = Counter(branches.tolist())
    multi = branches > 2
    summary = {
        "u": params.u,
        "U": params.U,
        "grid": args.grid,
        "branch_count_nodes": {str(k): v for k, v in sorted(counts.items())},
        "diagnostics": health,
    }
    if multi.any():
        kxs, kys = kx[multi].tolist(), ky[multi].tolist()
        summary["multi_branch_region"] = dict(kx_min=min(kxs), kx_max=max(kxs), ky_min=min(kys), ky_max=max(kys))
    _write_json(out / "bands_summary.json", summary)
    return EXIT_OK


def cmd_degeneracies(args: argparse.Namespace) -> int:
    params = _params(args)
    points = classify_degeneracies(params, args.grid)
    order = {"I": 0, "II": 1, "III": 2}
    points.sort(key=lambda p: (order[p.kind.value], p.k.kx, p.k.ky))
    # each III point's residual on its locus branch, sign(dz); None off the locus domain
    iii = [bloch_vector(params, p.k) for p in points if p.kind is DegeneracyKind.III]
    residuals = [_iii_residual(d, params.U, math.copysign(1.0, d.dz)) for d in iii]
    payload = {
        "u": params.u,
        "U": params.U,
        "grid": args.grid,
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
    _write_json(_outdir(args) / "degeneracies.json", payload)
    return EXIT_OK


def cmd_gap(args: argparse.Namespace) -> int:
    if (args.u is None) == (args.U is None):
        raise ConfigError("gap search fixes exactly one of --u / --U and brackets the other")
    vary, fixed = ("U", args.u) if args.U is None else ("u", args.U)
    report = gap_closing_search(vary, fixed, _require(args, "bracket"))
    _write_json(_outdir(args) / "gap.json", report)
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    params = _params(args)
    force = (args.F[0], args.F[-1])  # a single rate drives both components
    fmax = max(abs(force[0]), abs(force[1]))
    T = args.T if args.T is not None else 2.0 * math.pi / fmax if fmax > 0 else 100.0
    drive = DriveSpec(KPoint(0.0, 0.0), force, T, args.dt)
    start = sweep_initial_states(params, args.band, [drive.k0.kx])[0]
    health = SpectrumHealth()
    records = evolve(params, drive, Spinor.from_array(start), args.sample_every, health)

    def lines():
        line = b"%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s\r\n"
        for r in records:
            # a k point has two to four states; the columns of absent ones stay blank
            projections = ([b"%.17g" % p for p in r.projections] + [b"", b"", b"", b""])[:4]
            yield line % (r.t, r.k.kx, r.k.ky, r.norm, r.energy, *projections)

    header = ("t", "kx", "ky", "norm", "energy", "P1", "P2", "P3", "P4")
    out = _outdir(args)
    _write_csv(out / "trajectory.csv", header, lines())
    steps, dt = step_schedule(drive.T, drive.dt)
    summary = {
        "steps": steps,
        "dt": dt,
        "sample_every": args.sample_every,
        "samples": len(records),
        "max_sample_norm_drift": max(abs(r.norm - 1.0) for r in records),
        "diagnostics": health,
    }
    _write_json(out / "trajectory_summary.json", summary)
    return EXIT_OK


def cmd_response(args: argparse.Namespace) -> int:
    params = _params(args)
    if len(args.F) != 1:
        raise ConfigError(f"response drives along k_y only; --F takes one rate, got {args.F}")
    summary = pumped_charge(params, band=args.band, F=args.F[0], n_kx=args.grid, dt=args.dt)
    out = _outdir(args)
    _write_json(out / "response.json", summary)
    lines = (b"%.17g,%.17g\r\n" % row for row in zip(kx_columns(summary.n_kx), summary.Q))
    _write_csv(out / "response_columns.csv", ("kx", "Q"), lines)
    return EXIT_OK


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    diagram = phase_diagram(
        (args.u_min, args.u_max), (args.U_min, args.U_max), band=args.band, resolution=args.grid
    )
    u, U = np.meshgrid(diagram.u_values, diagram.U_values, indexing="ij")
    lines = _text_rows(u.ravel(), U.ravel(), np.ravel(diagram.labels))
    _write_csv(_outdir(args) / "phase_diagram.csv", ("u", "U", "label"), lines)
    return EXIT_OK


# subcommand -> (function, help, the options it reads besides --config and
# --out, its own defaults)
_SUBCOMMANDS = {
    "bands": (cmd_bands, "band surface over the zone", ("u", "U", "grid"), {"grid": 41}),
    "degeneracies": (
        cmd_degeneracies, "classified degenerate points", ("u", "U", "grid"), {"grid": 64}
    ),
    "gap": (cmd_gap, "gap-closing parameter search", ("u", "U", "bracket"), {"U": None}),
    "dynamics": (
        cmd_dynamics,
        "driven trajectory along the diagonal",
        ("u", "U", "F", "T", "dt", "band", "sample-every"),
        {},
    ),
    "response": (
        cmd_response,
        "pumped charge over one cycle",
        ("u", "U", "F", "grid", "dt", "band"),
        {"grid": 50},
    ),
    "phase-diagram": (
        cmd_phase_diagram,
        "A/nA diagram over (u, U)",
        ("u-min", "u-max", "U-min", "U-max", "grid", "band"),
        {"grid": 50},
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by every
    ``main`` call: a parse keeps no state in it but ``_Parser._tokens``, which
    each parse overwrites before it can be read."""
    parser = _Parser(prog="nlchern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="flat key=value file of this subcommand's options")
        for key in (*options, "out"):
            p.add_argument(f"--{key}", **_OPTIONS[key])
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's options go in as flags before the command line's, which
            # override them; the command line parsed, so an error is the file's
            tokens = _config_tokens(args.config, (*_SUBCOMMANDS[args.command][2], "out"))
            try:
                args = parser.parse_args([args.command, *tokens, *argv[1:]])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from exc
        return _SUBCOMMANDS[args.command][0](args)
    except ValueError as exc:
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
