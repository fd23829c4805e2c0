"""The files of the README's CLI commands against ``tests/readme_outputs.json``.

The manifest holds the SHA-256 of every file the ``nlchern`` commands of the
README's CLI block write, each command run into its own directory, with the
numpy version and CPU features it was made on, and the values that the CI
workflow pins.  On that platform every output is reproduced byte for byte,
so the digests are compared there; elsewhere LAPACK and numpy's vector loops
may move last bits, and only the pinned values are compared.  A declared
change of an output rewrites the manifest, for review as a diff:

    PYTHONPATH=src python tests/test_readme_outputs.py
"""

import hashlib
import json
import platform
import shlex
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nlchern import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MANIFEST = Path(__file__).with_name("readme_outputs.json")


def readme_commands() -> list[str]:
    """The README's ``nlchern ... --out out/`` lines, without the comment and the --out."""
    lines = (line.partition("#")[0].strip() for line in README.read_text().splitlines())
    return [line.removesuffix("--out out/").strip() for line in lines if line.startswith("nlchern ")]


def platform_id() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    features = sorted(name for name, on in __cpu_features__.items() if on)
    return {"numpy": np.__version__, "machine": platform.machine(), "cpu_features": features}


def run_commands(out: Path) -> dict:
    """{command: {file name: path}}, each command run in-process into its own directory."""
    files = {}
    for i, command in enumerate(readme_commands()):
        directory = out / str(i)
        assert cli.main([*shlex.split(command)[1:], "--out", str(directory)]) == 0, command
        files[command] = {path.name: path for path in sorted(directory.iterdir())}
    return files


def digests(files: dict) -> dict:
    return {
        command: {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in written.items()}
        for command, written in files.items()
    }


def pins(files: dict) -> dict:
    """The values the CI workflow pins, from every command's files."""
    by_name = {name: path for written in files.values() for name, path in written.items()}
    response = json.loads(by_name["response.json"].read_text())
    bands = json.loads(by_name["bands_summary.json"].read_text())
    trajectory = by_name["trajectory.csv"].read_text().splitlines()
    dynamics = json.loads(by_name["trajectory_summary.json"].read_text())
    # the two gap commands both write gap.json; each is keyed by its fixed parameter
    gaps = [json.loads(w["gap.json"].read_text()) for w in files.values() if "gap.json" in w]
    degeneracies = json.loads(by_name["degeneracies.json"].read_text())
    labels = [row.rpartition(",")[2] for row in by_name["phase_diagram.csv"].read_text().splitlines()[1:]]
    return {
        "response": {k: response[k] for k in ("nu", "nu_even_columns", "nu_odd_columns", "max_norm_drift")},
        "bands": {
            "branch_count_nodes": bands["branch_count_nodes"],
            "paths": bands["diagnostics"]["paths"],
            "roots_discarded": bands["diagnostics"]["roots_discarded"],
        },
        # t, kx, ky, norm and energy; the projections come from LAPACK
        "trajectory": {"lines": len(trajectory), "last_row": trajectory[-1].split(",")[:5]},
        "trajectory_summary": {
            "steps": dynamics["steps"],
            "dt": dynamics["dt"],
            "samples": dynamics["samples"],
            "paths": dynamics["diagnostics"]["paths"],
            "roots_discarded": dynamics["diagnostics"]["roots_discarded"],
        },
        "gap": {
            g["fixed_param"]: {
                "critical_value": g["critical_value"],
                "roots_before": len(g["roots_before"]),
                "roots_after": len(g["roots_after"]),
            }
            for g in gaps
        },
        "degeneracies": {
            "points": dict(Counter(p["kind"] for p in degeneracies["points"])),
            "max_iii_residual": degeneracies["diagnostics"]["max_iii_residual"],
        },
        "phase_diagram": {"cells": len(labels), "nA": labels.count("nA")},
    }


def test_readme_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    files = run_commands(tmp_path)
    got, want = pins(files), manifest["pins"]
    # from the polar start k = (0, 0) the trajectory depends on libm, the
    # drive and RK4, not on LAPACK: exact on every platform
    assert got["trajectory"] == want["trajectory"]
    # counts are exact; margins of 3.4e-15 and 2.0e-14 (kept) against 0.031
    # and 0.012 (discarded), bands and dynamics, leave no root whose fate
    # round-off could change
    assert got["bands"] == want["bands"]
    assert got["trajectory_summary"] == want["trajectory_summary"]
    # nu sums 62,832 steps of 50 columns, whose round-off differs between
    # platforms by far less than 1e-9; the drift is round-off itself
    assert got["response"] == pytest.approx(want["response"], rel=1e-9, abs=1e-10)
    # closed forms, and counts of fold points at least 0.38 apart
    assert got["gap"].keys() == want["gap"].keys()
    for fixed, gap in want["gap"].items():
        assert got["gap"][fixed] == pytest.approx(gap, rel=1e-12)
    # the III residual is round-off of the locus formula; the counts are exact
    assert got["degeneracies"].pop("max_iii_residual") <= 1e-12
    assert got["degeneracies"]["points"] == want["degeneracies"]["points"]
    # labels compare U with a closed-form critical strength
    assert got["phase_diagram"] == want["phase_diagram"]
    if manifest["made_on"] == platform_id():
        assert digests(files) == manifest["sha256"]
    else:
        warnings.warn(f"digests not compared: the manifest was made on {manifest['made_on']}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_commands(Path(tmp))
        manifest = {"made_on": platform_id(), "sha256": digests(files), "pins": pins(files)}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
