import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlchern import cli
from nlchern.dynamics import DriveSpec, evolve
from nlchern.model import KPoint, ModelParams, Spinor
from nlchern.response import phase_diagram, pumped_charge, sweep_initial_states
from nlchern.spectrum import band_surface

from oracles import (
    band_rows,
    write_bands_csv,
    write_csv,
    write_phase_diagram_csv,
    write_response_columns_csv,
    write_trajectory_csv,
)

# the options each subcommand reads, besides --config, with their defaults
OPTIONS = {
    "bands": {"u": None, "U": 0.0, "grid": 41, "out": "."},
    "degeneracies": {"u": None, "U": 0.0, "grid": 64, "out": "."},
    "gap": {"u": None, "U": None, "bracket": None, "out": "."},
    "dynamics": {
        "u": None, "U": 0.0, "F": 0.01, "T": None, "dt": 0.01, "band": "ground", "sample-every": 20,
        "out": ".",
    },
    "response": {"u": None, "U": 0.0, "F": 0.01, "grid": 50, "dt": 0.01, "band": "ground", "out": "."},
    "phase-diagram": {
        "u-min": -3.0, "u-max": 3.0, "U-min": 0.0, "U-max": 6.0, "grid": 50, "band": "ground", "out": ".",
    },
}
ALL_OPTIONS = sorted({key for options in OPTIONS.values() for key in options})


def run(args):
    return cli.main(args)


def test_bands_writes_table_and_summary(tmp_path):
    out = tmp_path / "b"
    assert run(["bands", "--u", "3", "--U", "5", "--grid", "21", "--out", str(out)]) == 0
    with open(out / "bands.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {
        "kx", "ky", "branch_index", "epsilon", "kappa", "re_c1", "im_c1", "re_c2", "im_c2"
    }
    # the node at (pi, pi) carries four branch rows
    pi_rows = [
        r
        for r in rows
        if abs(float(r["kx"]) - math.pi) < 1e-12 and abs(float(r["ky"]) - math.pi) < 1e-12
    ]
    assert len(pi_rows) == 4
    summary = json.loads((out / "bands_summary.json").read_text())
    assert summary["branch_count_nodes"]["4"] > 0
    box = summary["multi_branch_region"]
    assert box["kx_min"] <= math.pi <= box["kx_max"]


# (0, 3, 41) writes -0 fields; (3, 5, 81), the README's setting, spans 53 blocks of rows
@pytest.mark.parametrize("u, U, n", [(3.0, 5.0, 21), (1.2, 3.0, 41), (3.0, 0.0, 15), (0.0, 3.0, 41), (3.0, 5.0, 81)])
def test_bands_csv_matches_csv_writer_loop(tmp_path, u, U, n):
    out = tmp_path / "b"
    assert run(["bands", "--u", str(u), "--U", str(U), "--grid", str(n), "--out", str(out)]) == 0
    write_bands_csv(band_rows(*band_surface(ModelParams(u=u, U=U), n)), tmp_path / "ref.csv")
    assert (out / "bands.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# lengths around one block of rows, and floats whose text is easy to get wrong
_LENGTHS = (0, 1, cli._ROW_BLOCK - 1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1)
_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 1e308, -1e308)


@st.composite
def _columns(draw):
    """A float, an integer and a label column of one length, each entry picked
    from a few values so that entries repeat; 0.0 and -0.0 are among the floats."""
    n = draw(st.sampled_from(_LENGTHS))
    floats = [0.0, -0.0, *draw(st.lists(st.sampled_from(_EDGES) | st.floats(), min_size=1, max_size=6))]
    ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers
    return (
        [floats[i] for i in pick(len(floats), size=n)],
        [ints[i] for i in pick(len(ints), size=n)],
        [("A", "nA")[i] for i in pick(2, size=n)],
    )


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(_columns())
@example(([0.0, -0.0, 0.0], [0, -1, 0], ["A", "nA", "A"]))
def test_text_rows_match_csv_writer(columns):
    # each distinct entry is formatted once and keyed by its bits: a dedupe
    # keyed by value would write 0.0 and -0.0 alike, which the example catches
    floats, ints, labels = columns
    with tempfile.TemporaryDirectory() as tmp:
        got, ref = Path(tmp, "got.csv"), Path(tmp, "ref.csv")
        lines = cli._text_rows(np.array(floats, dtype=float), np.array(ints, dtype=np.int64), np.array(labels, dtype=str))
        cli._write_csv(got, ("x", "n", "label"), lines)
        write_csv(("x", "n", "label"), zip(floats, ints, labels), ref)
        assert got.read_bytes() == ref.read_bytes()


def test_trajectory_csv_matches_csv_writer_loop(tmp_path):
    # a full cycle at F = 0.05 passes (pi, pi), where the state count goes from two to four
    out = tmp_path / "t"
    assert run(["dynamics", "--u", "1", "--U", "4", "--F", "0.05", "--out", str(out)]) == 0
    params = ModelParams(u=1.0, U=4.0)
    drive = DriveSpec(KPoint(0.0, 0.0), (0.05, 0.05), 2.0 * math.pi / 0.05, 0.01)
    start = Spinor.from_array(sweep_initial_states(params, "ground", [0.0])[0])
    records = evolve(params, drive, start, sample_every=20)
    assert {len(r.projections) for r in records} == {2, 4}
    write_trajectory_csv(records, tmp_path / "ref.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_response_columns_csv_matches_csv_writer_loop(tmp_path):
    args = ["--u", "1", "--U", "0.5", "--F", "0.2", "--grid", "6", "--dt", "0.01"]
    assert run(["response", *args, "--out", str(tmp_path / "r")]) == 0
    summary = pumped_charge(ModelParams(u=1.0, U=0.5), "ground", F=0.2, n_kx=6, dt=0.01)
    write_response_columns_csv(summary, tmp_path / "ref.csv")
    assert (tmp_path / "r" / "response_columns.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_phase_diagram_csv_matches_csv_writer_loop(tmp_path):
    # the excited band at u >= 0, and the ground band at negative, zero and positive u
    for band, u_range, n in (("excited", (0.0, 4.0), 60), ("ground", (-3.0, 3.0), 61)):
        out = tmp_path / band
        args = ["--u-min", str(u_range[0]), "--u-max", str(u_range[1]), "--U-min", "0", "--U-max", "6"]
        assert run(["phase-diagram", *args, "--grid", str(n), "--band", band, "--out", str(out)]) == 0
        write_phase_diagram_csv(phase_diagram(u_range, (0.0, 6.0), band, n), tmp_path / "ref.csv")
        assert (out / "phase_diagram.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_bands_summary_diagnostics(tmp_path):
    out = tmp_path / "b"
    assert run(["bands", "--u", "1", "--U", "4", "--grid", "41", "--out", str(out)]) == 0
    diag = json.loads((out / "bands_summary.json").read_text())["diagnostics"]
    assert set(diag) == {
        "paths", "roots_discarded", "max_kept_root_margin", "min_discarded_root_margin", "max_residual"
    }
    assert sum(diag["paths"].values()) == 41 * 41 and diag["paths"]["polar"] == 9
    assert diag["roots_discarded"] > 0
    assert diag["max_kept_root_margin"] <= 1e-6 < diag["min_discarded_root_margin"]
    assert 0.0 < diag["max_residual"] <= 1e-12


def test_bands_linear_two_branches_everywhere(tmp_path):
    out = tmp_path / "b0"
    assert run(["bands", "--u", "3", "--U", "0", "--grid", "11", "--out", str(out)]) == 0
    summary = json.loads((out / "bands_summary.json").read_text())
    assert summary["branch_count_nodes"] == {"2": 121}


def test_degeneracies_report(tmp_path):
    out = tmp_path / "d"
    assert run(["degeneracies", "--u", "3", "--U", "5", "--grid", "32", "--out", str(out)]) == 0
    payload = json.loads((out / "degeneracies.json").read_text())
    crit = sorted(p["critical_U"] for p in payload["points"] if p["kind"] == "I")
    assert crit == pytest.approx([2.0, 6.0, 6.0, 10.0], abs=1e-12)
    assert not [p for p in payload["points"] if p["kind"] == "II"]


def test_degeneracies_reports_iii_residual(tmp_path):
    out = tmp_path / "d"
    assert run(["degeneracies", "--u", "1.2", "--U", "3", "--grid", "32", "--out", str(out)]) == 0
    payload = json.loads((out / "degeneracies.json").read_text())
    assert [p for p in payload["points"] if p["kind"] == "III"]
    # |d| <= sqrt(2 + 3.2^2) < 4 on this model
    assert 0.0 <= payload["diagnostics"]["max_iii_residual"] <= 1e-12 * 4.0


def test_gap_report(tmp_path):
    out = tmp_path / "g"
    assert run(["gap", "--u", "1", "--bracket", "4.0,4.4", "--out", str(out)]) == 0
    payload = json.loads((out / "gap.json").read_text())
    assert payload["fixed_param"] == "u"
    assert payload["varied_param"] == "U"
    assert 4.1993 <= payload["critical_value"] <= 4.1997
    assert len(payload["roots_before"]) == 4


def test_gap_rejects_bracket_without_merger(tmp_path, capsys):
    # the fold counts straddle 4 at the ends, but the merger is at u = 1.64675
    out = tmp_path / "g"
    assert run(["gap", "--U", "2.07", "--bracket", "1.40,1.55", "--out", str(out)]) == 2
    assert "outside the bracket" in capsys.readouterr().err
    assert not (out / "gap.json").exists()


def test_gap_requires_exactly_one_fixed(tmp_path):
    assert run(["gap", "--u", "1", "--U", "4", "--bracket", "1,2", "--out", str(tmp_path)]) == 2
    assert run(["gap", "--bracket", "1,2", "--out", str(tmp_path)]) == 2


def test_dynamics_trajectory(tmp_path):
    out = tmp_path / "t"
    code = run(
        ["dynamics", "--u", "3", "--U", "5", "--F", "0.01", "--T", "5", "--dt", "0.01",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,kx,ky,norm,energy,P1,P2,P3,P4"
    assert len(lines) > 10


def test_dynamics_trajectory_summary(tmp_path):
    out = tmp_path / "t"
    args = ["dynamics", "--u", "1", "--U", "4", "--F", "0.02,0.005", "--T", "5", "--sample-every", "7"]
    assert run([*args, "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        norms = [float(r["norm"]) for r in csv.DictReader(fh)]
    summary = json.loads((out / "trajectory_summary.json").read_text())
    # the health of the 72 sample spectra, one path per sample
    health = summary.pop("diagnostics")
    assert sum(health["paths"].values()) == 72 and health["max_residual"] < 1e-12
    # 500 steps give 71 samples after the one at t = 0; %.17g round-trips each norm
    assert summary == {
        "steps": 500,
        "dt": 0.01,
        "sample_every": 7,
        "samples": 72,
        "max_sample_norm_drift": max(abs(n - 1.0) for n in norms),
    }
    assert len(norms) == 72 and 0.0 < summary["max_sample_norm_drift"] < 1e-9
    # a run that aborts on its norm drift writes neither file
    bad = tmp_path / "bad"
    args = ["dynamics", "--u", "1", "--U", "0", "--F", "0.001", "--T", "50", "--dt", "0.5"]
    assert run([*args, "--out", str(bad)]) == 4
    assert not (bad / "trajectory.csv").exists()
    assert not (bad / "trajectory_summary.json").exists()


def test_response_report(tmp_path):
    out = tmp_path / "r"
    code = run(
        ["response", "--u", "1", "--U", "0", "--F", "0.1", "--grid", "8", "--dt", "0.01",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "response.json").read_text())
    assert payload["nu_linear"] == -1
    assert abs(payload["nu"] - payload["nu_linear"]) < 0.05
    assert payload["adiabatic"] is True
    assert payload["n_kx"] == 8


def test_phase_diagram_csv(tmp_path):
    out = tmp_path / "p"
    code = run(
        ["phase-diagram", "--u-min", "0", "--u-max", "3", "--U-min", "0", "--U-max", "5",
         "--grid", "5", "--band", "ground", "--out", str(out)]
    )
    assert code == 0
    with open(out / "phase_diagram.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert {r["label"] for r in rows} == {"A", "nA"}


def test_config_file_and_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("u=3\nU=5\ngrid=24\n")
    out1 = tmp_path / "c1"
    assert run(["degeneracies", "--config", str(conf), "--out", str(out1)]) == 0
    payload = json.loads((out1 / "degeneracies.json").read_text())
    assert payload["u"] == 3.0 and payload["grid"] == 24
    out2 = tmp_path / "c2"
    assert run(["degeneracies", "--config", str(conf), "--u", "1.2", "--out", str(out2)]) == 0
    payload2 = json.loads((out2 / "degeneracies.json").read_text())
    assert payload2["u"] == 1.2
    # a value starting with "-", or holding one, is the flag's value, not a flag
    for args, key, value in [
        (["bands"], "u", "-1"),
        (["dynamics", "--u", "1", "--U", "4", "--T", "1"], "F", "0.02,-0.01"),
        (["dynamics", "--u", "1", "--U", "4", "--T", "1"], "F", "-0.02,0.01"),
    ]:
        conf.write_text(f"{key}={value}\n")
        flag, config = tmp_path / "flag", tmp_path / "config"
        assert run([*args, f"--{key}={value}", "--out", str(flag)]) == 0
        assert run([*args, "--config", str(conf), "--out", str(config)]) == 0
        for name in sorted(os.listdir(flag)):
            assert (config / name).read_bytes() == (flag / name).read_bytes()


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("unknown_thing=1\n")
    assert run(["degeneracies", "--config", str(conf), "--out", str(tmp_path)]) == 2


def test_missing_required_option(tmp_path):
    assert run(["bands", "--out", str(tmp_path)]) == 2


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["degeneracies", "--u", "1.2", "--U", "3", "--grid", "24", "--out", str(out)]) == 0
        assert run(["bands", "--u", "1.2", "--U", "3", "--grid", "9", "--out", str(out)]) == 0
    assert (a / "degeneracies.json").read_bytes() == (b / "degeneracies.json").read_bytes()
    assert (a / "bands.csv").read_bytes() == (b / "bands.csv").read_bytes()


def test_response_outputs_repeat_in_one_process(tmp_path):
    # a drive table, stepper or buffer kept from one run to the next would
    # change the second run's files; 3,142 steps end on a partial block
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["response", "--u", "1", "--U", "3", "--F", "0.2", "--grid", "7", "--dt", "0.01",
                    "--out", str(out)]) == 0
    for name in ("response.json", "response_columns.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gap_json_round_trip(tmp_path):
    out = tmp_path / "g"
    assert run(["gap", "--U", "4", "--bracket", "1.0,1.2", "--out", str(out)]) == 0
    payload = json.loads((out / "gap.json").read_text())
    from nlchern.effective import GapClosingReport

    report = GapClosingReport(
        fixed_param=payload["fixed_param"],
        fixed_value=payload["fixed_value"],
        varied_param=payload["varied_param"],
        bracket=tuple(payload["bracket"]),
        critical_value=payload["critical_value"],
        roots_before=tuple(payload["roots_before"]),
        roots_after=tuple(payload["roots_after"]),
    )
    # its tuples read back as lists
    assert json.loads(json.dumps(dataclasses.asdict(report))) == payload


def test_response_json_round_trip(tmp_path):
    out = tmp_path / "r"
    assert run(
        ["response", "--u", "3", "--U", "0.5", "--F", "0.2", "--grid", "4", "--dt", "0.01",
         "--out", str(out)]
    ) == 0
    payload = json.loads((out / "response.json").read_text())
    from nlchern.response import ResponseSummary

    summary = ResponseSummary(**payload)
    assert dataclasses.asdict(summary) == payload


def test_exit_code_mapping_regime_and_health(tmp_path, monkeypatch):
    from nlchern.response import RegimeError

    def boom(*a, **k):
        raise RegimeError("no branch")

    monkeypatch.setattr(cli, "pumped_charge", boom)
    assert run(["response", "--u", "1", "--out", str(tmp_path)]) == 3

    # a coarse step on a fast phase genuinely trips the health abort
    code = run(
        ["dynamics", "--u", "1", "--U", "0", "--F", "0.001", "--T", "50", "--dt", "0.5",
         "--out", str(tmp_path)]
    )
    assert code == 4


def test_dynamics_rejects_missing_band_like_response(tmp_path, monkeypatch):
    from nlchern import response

    real = response.physical_spectrum
    monkeypatch.setattr(response, "physical_spectrum", lambda params, k: real(params, k)[:1])
    common = ["--u", "1", "--U", "4", "--band", "ground", "--out", str(tmp_path)]
    assert run(["dynamics", *common, "--T", "1"]) == 3
    assert run(["response", *common, "--grid", "2"]) == 3
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "args, output",
    [
        # the state blows up to NaN, whose drift no ordered comparison flags
        (["dynamics", "--U", "4", "--F", "0.001", "--dt", "0.7", "--T", "2000",
          "--sample-every", "2000"], "trajectory.csv"),
        # the spin ratios, each over its own step's norm^2, hide the drift from the charge
        (["response", "--U", "4", "--F", "0.01", "--grid", "8", "--dt", "0.6"], "response.json"),
        # the first run sampled only at t = 0: the check of its final state, step 2,857, sees the NaN
        (["dynamics", "--U", "4", "--F", "0.001", "--dt", "0.7", "--T", "2000",
          "--sample-every", "5000"], "trajectory.csv"),
    ],
)
def test_norm_drift_aborts_both_driven_runs(tmp_path, capsys, args, output):
    assert run([*args, "--u", "1", "--out", str(tmp_path)]) == 4
    assert "norm drift" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize(
    "args",
    [
        ["dynamics", "--T", "inf"],
        ["response", "--grid", "4", "--F", "inf"],
        ["response", "--grid", "4", "--dt", "inf"],
        # finite, but the step count overflows to inf
        ["response", "--F", "1e-310", "--grid", "2"],
        ["response", "--dt", "1e-320", "--grid", "2"],
        ["dynamics", "--dt", "1e-320"],
        ["dynamics", "--F", "0", "--T", "1e300", "--dt", "1e-300"],
        # finite, but more steps than MAX_STEPS: 6e302 and 1e8
        ["response", "--F", "1e-300", "--grid", "2"],
        ["dynamics", "--F", "0", "--T", "1e6"],
    ],
)
def test_non_finite_drive_rejected(tmp_path, args):
    assert run([*args, "--u", "1", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, message",
    [
        (["bands", "--u", "1", "--U", "inf", "--grid", "3"], "U must be a finite"),
        (["phase-diagram", "--u-min", "nan", "--grid", "3"], "bounds must be finite"),
        (["phase-diagram", "--U-max", "inf", "--grid", "3"], "bounds must be finite"),
        (["phase-diagram", "--grid", "0"], "at least a 2 x 2 grid"),
        (["phase-diagram", "--U-min", "-2", "--U-max", "1", "--grid", "3"], "U must be a finite nonnegative"),
        # finite, but the fold-point polynomials overflow float64
        (["gap", "--U", "1e308", "--bracket", "0,1"], "u or U is too large"),
        (["gap", "--u", "1", "--bracket", "1e308,1.5e308"], "u or U is too large"),
        (["degeneracies", "--u", "1", "--U", "1e300", "--grid", "16"], "u or U is too large"),
        # finite, but the stationary energy U + dz overflows float64
        (["bands", "--u", "1e308", "--U", "1e308", "--grid", "3"], "u or U is too large"),
        # finite bounds whose span overflows float64
        (["phase-diagram", "--u-min=-1e308", "--u-max=1e308", "--grid", "3"], "so must the span"),
        # finite energies, but beyond RK4's stability limit at every step that MAX_STEPS allows
        (["dynamics", "--u", "1", "--U", "1e308", "--T", "1"], "u or U is too large"),
        (["response", "--u", "1", "--U", "1e308", "--grid", "2", "--F", "1"], "u or U is too large"),
    ],
)
def test_non_finite_model_and_diagram_inputs_rejected(tmp_path, capsys, args, message):
    assert run([*args, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_response_abort_prints_no_numpy_warnings(tmp_path, capsys):
    # one step of a whole cycle overflows the state; the block's drift check aborts
    args = ["response", "--u", "1", "--U", "0.5", "--F", "1", "--grid", "1", "--dt", "1"]
    assert run([*args, "--out", str(tmp_path)]) == 4
    assert "norm drift nan" in capsys.readouterr().err
    assert not (tmp_path / "response.json").exists()


def test_response_empty_grid_rejected(tmp_path):
    assert run(["response", "--u", "1", "--grid", "0", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "response.json").exists()


def test_bad_config_values_rejected(tmp_path, capsys):
    # argparse checks a value from the file as the same flag: the same
    # message, after the file's path
    for args, lines, key, value in [
        (["dynamics", "--T", "1"], "u=1\nU=4\n", "band", "bogus"),
        (["bands"], "u=3\ngrid=3\n", "U", "strong"),
        (["phase-diagram"], "", "band", "middle"),
        (["degeneracies", "--u", "1"], "", "grid", "many"),
    ]:
        conf = tmp_path / f"{key}.conf"
        conf.write_text(f"{lines}{key}={value}\n")
        assert run([*args, f"--{key}", value, "--out", str(tmp_path)]) == 2
        flag_error = capsys.readouterr().err
        assert f"argument --{key}:" in flag_error
        assert run([*args, "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == flag_error.replace("error: ", f"error: {conf}: ", 1)
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "bands.json").exists()
    assert not (tmp_path / "bands.csv").exists()


def test_sample_every_from_config_or_flag(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("u=3\nU=5\nT=1\nsample-every=50\n")
    assert run(["dynamics", "--config", str(conf), "--out", str(tmp_path / "c")]) == 0
    assert len((tmp_path / "c" / "trajectory.csv").read_text().splitlines()) == 1 + 3
    args = ["--u", "3", "--U", "5", "--T", "1", "--sample-every", "25"]
    assert run(["dynamics", *args, "--out", str(tmp_path / "f")]) == 0
    assert len((tmp_path / "f" / "trajectory.csv").read_text().splitlines()) == 1 + 5


def test_one_schedule_serves_both_driven_runs(tmp_path):
    # at F = dt = 0.01, T = 2 pi / F is no multiple of dt: pumped_charge and
    # the README dynamics run both take 62,832 steps of T / 62,832, not of dt
    rs = pumped_charge(ModelParams(u=1.0, U=0.5), "ground", F=0.01, n_kx=1, dt=0.01)
    assert (rs.steps, rs.dt) == (62832, 0.009999976615704715)
    assert run(["dynamics", "--u", "1", "--U", "4", "--F", "0.01", "--dt", "0.01", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "trajectory_summary.json").read_text())
    assert (summary["steps"], summary["dt"]) == (rs.steps, rs.dt)
    assert summary["dt"] == 2.0 * math.pi / 0.01 / summary["steps"]


def test_response_rejects_two_component_drive(tmp_path, capsys):
    # the response drive runs along k_y only
    assert run(["response", "--u", "1", "--F", "0.1,-0.2", "--grid", "2", "--out", str(tmp_path)]) == 2
    assert "k_y only" in capsys.readouterr().err
    assert not (tmp_path / "response.json").exists()


def test_response_writes_columns_and_step(tmp_path):
    args = ["response", "--u", "1", "--U", "0.5", "--F", "0.2", "--grid", "4", "--dt", "0.01"]
    assert run([*args, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "response.json").read_text())
    assert payload["dt"] == 2.0 * math.pi / 0.2 / payload["steps"]
    with open(tmp_path / "response_columns.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["kx"]) for r in rows] == pytest.approx([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    assert [float(r["Q"]) for r in rows] == payload["Q"]


def test_bands_at_critical_polar_strength(tmp_path):
    # U = 6 = 2|dz| at k = (0, 0) for u = 1: the cone pair merges into the
    # polarized ground state there, so the corners keep exactly two branches
    assert run(["bands", "--u", "1", "--U", "6", "--grid", "3", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "bands_summary.json").read_text())
    assert summary["branch_count_nodes"] == {"2": 4, "4": 5}


def test_response_starts_at_critical_polar_strength(tmp_path):
    # the column kx = 0 starts at k = (0, 0), where U = 2|dz|
    args = ["response", "--u", "1", "--U", "6", "--F", "1", "--grid", "2", "--dt", "0.01"]
    assert run([*args, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "response.json").read_text())
    assert len(payload["Q"]) == 2 and all(math.isfinite(q) for q in payload["Q"])


def _option_blocks(help_text: str) -> dict:
    """{long option: its help entry on one line} from an argparse help text."""
    blocks, current = {}, None
    for line in help_text.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):  # wrapped lines are indented further
            current = next(word.rstrip(",") for word in line.split() if word.startswith("--"))
            blocks[current] = ""
        blocks[current] += " " + line
    return {key: " ".join(text.split()) for key, text in blocks.items()}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_subcommand_takes_exactly_its_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    blocks = _option_blocks(capsys.readouterr().out)
    assert set(blocks) == {"--help", "--config", *(f"--{key}" for key in OPTIONS[command])}
    for key, default in OPTIONS[command].items():
        if default is not None:
            assert blocks[f"--{key}"].endswith(f"(default: {default})")


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in sorted(OPTIONS) for k in ALL_OPTIONS if k not in OPTIONS[c]]
)
def test_option_of_another_subcommand_rejected(tmp_path, capsys, command, key):
    out = tmp_path / "o"
    assert run([command, f"--{key}", "1", "--out", str(out)]) == 2
    assert f"--{key}" in capsys.readouterr().err
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key}=1\n")
    assert run([command, "--config", str(conf), "--out", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, option",
    [(["bands", "--u", "3", "--g", "5"], "--g"), (["phase-diagram", "--u", "7"], "--u")],
)
def test_abbreviated_flag_rejected(tmp_path, capsys, args, option):
    # config keys are never abbreviated, and flags match them: --g is not --grid
    # and --u is not a prefix of --u-min or --u-max
    assert run([*args, "--out", str(tmp_path / "o")]) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, option",
    [
        (["bands", "--u", "1", "--U", "strong"], "--U"),
        (["degeneracies", "--u", "1", "--grid", "many"], "--grid"),
        (["dynamics", "--u", "1", "--F", "1,2,3"], "--F"),
        (["gap", "--u", "1", "--bracket", "4.0"], "--bracket"),
        (["phase-diagram", "--band", "middle"], "--band"),
    ],
)
def test_bad_flag_value_returns_config_error(tmp_path, capsys, args, option):
    assert run([*args, "--out", str(tmp_path / "o")]) == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, value",
    [
        (["gap", "--U", "4", "--bracket", "-0.5,1.2"], "--bracket=-0.5,1.2"),
        (["dynamics", "--u", "1", "--T", "1", "--F", "-0.02,0.01"], "--F=-0.02,0.01"),
        # a value left out before another option: --bracket=--out would point the wrong way
        (["gap", "--U", "4", "--bracket", "--out"], None),
        (["gap", "--U", "4", "--bracket", "--out=o"], None),
        (["gap", "--U", "4", "--bracket", "--U"], None),
    ],
)
def test_value_read_as_flag_names_the_one_token_form(tmp_path, capsys, args, value):
    # argparse takes a value that starts with "-" and is no plain negative
    # number for a flag; the error names the form that passes it
    assert run([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err
    assert not (tmp_path / "o").exists()
    if value is None:
        assert "one token" not in err
        return
    assert value in err
    # and argparse takes that form's value
    run([*args[:-2], value, "--out", str(tmp_path / "o")])
    assert "expected one argument" not in capsys.readouterr().err


def _outcomes(commands, capsys, fresh):
    """Exit code, stderr and output files of each command, run in turn in this
    process, the i-th into out<i>; with ``fresh``, each parses with a new parser."""
    outcomes = []
    for i, args in enumerate(commands):
        if fresh:
            cli._build_parser.cache_clear()
        code = run([*args, "--out", f"out{i}"])
        files = {f.name: f.read_bytes() for f in Path(f"out{i}").glob("*")}
        outcomes.append((code, capsys.readouterr().err, files))
    return outcomes


@pytest.mark.parametrize(
    "bad",
    [["gap", "--U", "4", "--bracket", "-0.5,1.2"], ["gap", "--config", "bad.conf"]],
    ids=["one-token-hint", "unknown-config-key"],
)
def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys, bad):
    # main parses every call with one parser; a failing command before or after a
    # good one gives what it gives with a new parser for each command
    assert cli._build_parser() is cli._build_parser()
    good = ["gap", "--config", "good.conf"]
    seen = []
    for fresh in (False, True):
        (tmp_path / str(fresh)).mkdir()
        monkeypatch.chdir(tmp_path / str(fresh))
        Path("good.conf").write_text("U=3\nbracket=1.3,1.6\n")
        Path("bad.conf").write_text("U=4\nbracket=-0.5,1.2\nband=ground\n")
        seen.append(_outcomes([good, bad, good], capsys, fresh))
    assert seen[0] == seen[1]
    assert [(code, bool(files)) for code, _, files in seen[0]] == [(0, True), (2, False), (0, True)]


def test_module_entry_point_exits_with_config_error(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "nlchern.cli", "bands", "--format", "xml"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 2
    assert "--format" in proc.stderr


def test_readme_names_every_public_name():
    # every public name of the package has a caller on a CLI path or is
    # library API, and the README's module table names it either way
    import types

    import nlchern

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = [n for n, v in vars(nlchern).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert [n for n in names if f"`{n}`" not in readme] == []
