"""The files of the README's CLI commands against ``tests/readme_outputs.json``.

The manifest holds the SHA-256 of every file the ``nlchern`` commands of the
README's CLI block write, with the numpy version and CPU features it was made
on, and values pinned from those files.  ``check_outputs`` is the one check:
each pin by its one policy, and the digests on the manifest's platform only,
since elsewhere LAPACK and numpy's vector loops may move last bits.  The test
runs the commands in-process, a numpy warning or a deprecation raised as an
error; CI runs them through the installed ``nlchern`` script,
``run_commands(out, console_script)``, which fails on any output to stderr,
and makes the same check.  A declared change of an output rewrites the
manifest, for review as a diff:

    PYTHONPATH=src python tests/test_readme_outputs.py
"""

import hashlib
import json
import math
import operator
import os
import platform
import shlex
import subprocess
import tempfile
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from nlchern import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MANIFEST = Path(__file__).with_name("readme_outputs.json")


def close(rel: float):
    return lambda got, want: math.isclose(got, want, rel_tol=rel)


# Each pin's one policy; every pin not named here is compared exactly.  Those
# are counts, where fold-pair margins 2b / (1 + a^2) of 0 (kept) against
# 0.032 and 0.012 (discarded), bands and dynamics, leave no pair whose fate
# round-off could change, and fold points lie at least 0.38 apart; the step T / steps,
# pure IEEE arithmetic; and the trajectory's last t, k, norm and energy: from
# the polar start k = (0, 0) they depend on libm, the drive and RK4, not on LAPACK.
POLICY = {
    # 48 of the 50 start states come from the closed-form theta-quartic solve
    # (libm's cbrt, acos, cos and atan) and the drive from numpy's sin and cos; moving every start state or every drive value by one
    # ulp moves nu and its column means by at most 9e-14 relative, and the
    # drift, a 1e-10 difference of sums near 1, by up to 5.4e-6 relative
    "response.nu": close(1e-9),
    "response.nu_even_columns": close(1e-9),
    "response.nu_odd_columns": close(1e-9),
    "response.max_norm_drift": close(1e-4),
    # closed forms
    "gap.u.critical_value": close(1e-12),
    "gap.U.critical_value": close(1e-12),
    # round-off of the locus formula, under a bound
    "degeneracies.max_iii_residual": lambda got, want: got <= 1e-12,
}


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


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def console_script(args: list[str]) -> int:
    """The exit code of the installed ``nlchern`` script run on ``args``, every warning
    shown; it must write nothing to stderr."""
    env = {**os.environ, "PYTHONWARNINGS": "default"}
    done = subprocess.run(["nlchern", *args], stderr=subprocess.PIPE, text=True, env=env)
    assert not done.stderr, f"nlchern {shlex.join(args)} wrote to stderr:\n{done.stderr}"
    return done.returncode


def run_commands(out: Path, main) -> dict:
    """{command: {file name: path}}, each command run into its own directory by ``main``,
    ``cli.main`` or ``console_script``: the arguments after ``nlchern`` to the exit code."""
    files = {}
    for i, command in enumerate(readme_commands()):
        directory = out / str(i)
        assert main([*shlex.split(command)[1:], "--out", str(directory)]) == 0, command
        files[command] = {path.name: path for path in sorted(directory.iterdir())}
    return files


def digests(files: dict) -> dict:
    return {
        command: {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in written.items()}
        for command, written in files.items()
    }


def pins(files: dict) -> dict:
    """The pinned values, from every command's files."""
    by_name = {name: path for written in files.values() for name, path in written.items()}
    response, bands, dynamics, degeneracies = (
        json.loads(by_name[name].read_text())
        for name in ("response.json", "bands_summary.json", "trajectory_summary.json", "degeneracies.json")
    )
    trajectory = by_name["trajectory.csv"].read_text().splitlines()
    # the two gap commands both write gap.json; each is keyed by its fixed parameter
    gaps = [json.loads(w["gap.json"].read_text()) for w in files.values() if "gap.json" in w]
    labels = [row.rpartition(",")[2] for row in by_name["phase_diagram.csv"].read_text().splitlines()[1:]]
    health, ends = ("paths", "roots_discarded"), ("roots_before", "roots_after")
    return {
        "response": {k: response[k] for k in ("nu", "nu_even_columns", "nu_odd_columns", "max_norm_drift")},
        "bands": {"branch_count_nodes": bands["branch_count_nodes"], **{k: bands["diagnostics"][k] for k in health}},
        # t, kx, ky, norm and energy; the projections come from the spectrum solve
        "trajectory": {"lines": len(trajectory), "last_row": trajectory[-1].split(",")[:5]},
        "trajectory_summary": {
            **{k: dynamics[k] for k in ("steps", "dt", "samples")}, **{k: dynamics["diagnostics"][k] for k in health}
        },
        # fold points at the bracket's ends
        "gap": {g["fixed_param"]: {"critical_value": g["critical_value"], **{k: len(g[k]) for k in ends}} for g in gaps},
        "degeneracies": {
            "points": dict(Counter(p["kind"] for p in degeneracies["points"])),
            "max_iii_residual": degeneracies["diagnostics"]["max_iii_residual"],
        },
        "phase_diagram": {"cells": len(labels), "nA": labels.count("nA")},
    }


def leaves(tree: dict, prefix: str = "") -> dict:
    """{dotted path: value} of every value in the nested dicts of ``tree``."""
    flat = {}
    for key, value in tree.items():
        flat.update(leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key: value})
    return flat


def check_outputs(files: dict, manifest: dict) -> None:
    """Raise AssertionError naming every way the README commands' files differ from the
    manifest: other commands, a pin outside its policy, or on its platform a digest."""
    if sorted(files) != sorted(manifest["sha256"]):
        raise AssertionError(f"the README runs {sorted(files)}; the manifest pins {sorted(manifest['sha256'])}")
    got, want = leaves(pins(files)), leaves(manifest["pins"])
    failed = [
        f"{name}: {got.get(name)!r}, pinned {want.get(name)!r}"
        for name in sorted(got.keys() | want.keys())
        if name not in got.keys() & want.keys() or not POLICY.get(name, operator.eq)(got[name], want[name])
    ]
    if manifest["made_on"] == platform_id():
        failed += [f"sha256 of the files of {c}" for c, d in digests(files).items() if d != manifest["sha256"][c]]
    else:
        warnings.warn(f"digests not compared: the manifest was made on {manifest['made_on']}")
    if failed:
        raise AssertionError("not the manifest's values:\n" + "\n".join(failed))


@pytest.fixture(scope="module")
def readme_files(tmp_path_factory):
    # silent, as console_script asks of the installed script: a numpy warning or a
    # deprecation is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", DeprecationWarning)
        return run_commands(tmp_path_factory.mktemp("readme"), cli.main)


def test_readme_outputs_match_manifest(readme_files):
    check_outputs(readme_files, load_manifest())


@pytest.mark.parametrize(
    "name, move",
    [("response.nu", 1e-8), ("response.max_norm_drift", 1e-3), ("gap.u.critical_value", 1e-11),
     ("trajectory_summary.dt", 1e-15), ("bands.roots_discarded", 1), ("phase_diagram.nA", 1)],
)
def test_moved_pin_fails(readme_files, name, move):
    # a float pin moved relatively, a count by one
    manifest = load_manifest()
    *path, key = name.split(".")
    tree = reduce(dict.__getitem__, path, manifest["pins"])
    tree[key] = tree[key] + 1 if isinstance(move, int) else tree[key] * (1.0 + move)
    with pytest.raises(AssertionError, match=name.replace(".", r"\.") + ":"):
        check_outputs(readme_files, manifest)


@pytest.mark.parametrize("kept", [0, 6])
def test_commands_other_than_the_manifests_fail(readme_files, kept):
    # a README whose commands are not found, or one fewer of them, runs too little
    files = dict(list(readme_files.items())[:kept])
    with pytest.raises(AssertionError, match="the README runs"):
        check_outputs(files, load_manifest())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_commands(Path(tmp), cli.main)
        manifest = {"made_on": platform_id(), "sha256": digests(files), "pins": pins(files)}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
