import csv
import json
import math

import pytest

from nlchern import cli


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


def test_gap_report(tmp_path):
    out = tmp_path / "g"
    assert run(["gap", "--u", "1", "--bracket", "4.0,4.4", "--out", str(out)]) == 0
    payload = json.loads((out / "gap.json").read_text())
    assert payload["fixed_param"] == "u"
    assert payload["varied_param"] == "U"
    assert 4.1993 <= payload["critical_value"] <= 4.1997
    assert len(payload["roots_before"]) == 4


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
    assert report.to_dict() == payload


def test_response_json_round_trip(tmp_path):
    out = tmp_path / "r"
    assert run(
        ["response", "--u", "3", "--U", "0.5", "--F", "0.2", "--grid", "4", "--dt", "0.01",
         "--out", str(out)]
    ) == 0
    payload = json.loads((out / "response.json").read_text())
    from nlchern.response import ResponseSummary

    summary = ResponseSummary(**payload)
    assert summary.to_dict() == payload


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


def test_response_empty_grid_rejected(tmp_path):
    assert run(["response", "--u", "1", "--grid", "0", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "response.json").exists()


def test_bad_config_values_rejected(tmp_path):
    conf = tmp_path / "band.conf"
    conf.write_text("u=1\nU=4\nband=bogus\n")
    assert run(["dynamics", "--config", str(conf), "--T", "1", "--out", str(tmp_path)]) == 2
    conf = tmp_path / "format.conf"
    conf.write_text("u=3\nU=0\ngrid=3\nformat=xml\n")
    assert run(["bands", "--config", str(conf), "--out", str(tmp_path)]) == 2
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
