"""Command-line interface: subcommands, exit codes and document schemas."""

import json
import math
from pathlib import Path

import pytest

from dqpassivity.cli import (
    EXIT_CASE_ERROR,
    EXIT_MISMATCH,
    EXIT_NON_PASSIVE,
    EXIT_OK,
    EXIT_REGULATED,
    _VERDICT_EXIT,
    main,
)

DATA = Path(__file__).parent / "data"

TWO_BUS = """
[system]
base_mva = 100.0
omega0 = 376.99111843077515

[buses]
1  1.0  0.0  0.0
2  1.0  0.0  0.0

[branches]
1  2  0.0  0.1  0.0  1.0

[injections]
1  slack  -     -  1.0
2  pv     -0.5  -  1.0
"""


@pytest.fixture()
def two_bus_file(tmp_path):
    path = tmp_path / "two_bus.case"
    path.write_text(TWO_BUS)
    return str(path)


def test_pf_fixture_deterministic(capsys):
    assert main(["pf", "ieee9"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["pf", "ieee9"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    # header plus nine bus rows
    assert len(first.strip().splitlines()) == 10


def test_pf_two_bus_closed_form(two_bus_file, capsys):
    assert main(["pf", two_bus_file, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    phis = {row["bus"]: row["phi"] for row in doc["buses"]}
    assert phis[1] - phis[2] == pytest.approx(math.asin(0.05), abs=1e-9)
    assert set(doc["buses"][0]) == {"bus", "vm", "phi", "v_d", "v_q", "i_d", "i_q", "p", "q"}


def test_passivity_csv_static_model_notes(tmp_path, capsys):
    csv = tmp_path / "static.csv"
    code = main(["passivity", "ieee9", "--model", "II", "--analysis", "lowfreq", "--csv", str(csv)])
    assert code == EXIT_NON_PASSIVE
    assert not csv.exists()
    assert "frequency-independent" in capsys.readouterr().err


def test_pf_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.case"
    bad.write_text("[buses]\n1  1.0  0.0\n")
    assert main(["pf", str(bad)]) == EXIT_CASE_ERROR
    err = capsys.readouterr().err
    assert "line 2" in err


def test_passivity_exit_codes(capsys):
    assert main(["passivity", "ieee9", "--model", "I", "--analysis", "wideband"]) == EXIT_OK
    assert main(["passivity", "ieee9", "--model", "II", "--analysis", "lowfreq"]) == EXIT_NON_PASSIVE
    args = [
        "passivity", "ieee9", "--model", "II", "--analysis", "lowfreq",
        "--reg", "1:0.65,2:0.65,3:0.65,5:0.65,6:0.65,8:0.65",
    ]
    assert main(args) == EXIT_REGULATED
    capsys.readouterr()


def test_passivity_model_iv_evidence(capsys):
    code = main(["passivity", "ieee9", "--model", "IV", "--analysis", "lowfreq", "--format", "json"])
    assert code == EXIT_NON_PASSIVE
    doc = json.loads(capsys.readouterr().out)
    residues = doc["cond3_residues"]
    assert residues and residues[0]["hermitian_deviation"] > 1e-3
    assert not residues[0]["passed"]


def test_passivity_sweep_csv(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code = main([
        "passivity", "ieee9", "--model", "I", "--analysis", "wideband",
        "--sweep", "0.1:1000:5", "--csv", str(csv),
    ])
    assert code == EXIT_OK
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "omega,min_eig"
    assert len(rows) > 10
    w, lam = rows[1].split(",")
    assert float(w) > 0 and abs(float(lam)) < 1e3
    capsys.readouterr()


def test_passivity_integrator_only_csv_has_two_rows(tmp_path, capsys):
    # Low-frequency III is J_LF behind integrators (A = 0): the grid's two
    # end points give its exact minimum, so they are the only samples.
    csv = tmp_path / "lf3.csv"
    code = main(["passivity", "ieee9", "--model", "III", "--analysis", "lowfreq", "--csv", str(csv)])
    assert code == EXIT_NON_PASSIVE
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "omega,min_eig"
    assert [float(r.split(",")[0]) for r in rows[1:]] == pytest.approx([1e-2, 1e5])
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_passivity_sweep_grid_emptied_by_pole_exclusion_exits_2(fmt, capsys):
    code = main([
        "passivity", "ieee9", "--model", "III", "--analysis", "lowfreq",
        "--variant", "lossless,no-b,decoupled", "--sweep", "1e-8:5e-7:2", "--format", fmt,
    ])
    assert code == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no point left" in captured.err


def test_passivity_uses_case_regulation_section(tmp_path, capsys):
    from dqpassivity import ieee9_text

    path = tmp_path / "with_reg.case"
    path.write_text(
        ieee9_text()
        + "\n[regulation]\n1 0.65\n2 0.65\n3 0.65\n5 0.65\n6 0.65\n8 0.65\n"
    )
    code = main(["passivity", str(path), "--model", "II", "--analysis", "lowfreq"])
    assert code == EXIT_REGULATED
    capsys.readouterr()


def test_verdict_exit_codes_total():
    assert _VERDICT_EXIT == {
        "passive": EXIT_OK,
        "non-passive": EXIT_NON_PASSIVE,
        "passive-after-regulation": EXIT_REGULATED,
    }


def _compare_tree(got, expected, path=""):
    assert type(got) is type(expected), f"type changed at {path}"
    if isinstance(expected, dict):
        assert set(got) == set(expected), f"keys changed at {path}"
        for key in expected:
            _compare_tree(got[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), f"length changed at {path}"
        for i, (g, e) in enumerate(zip(got, expected)):
            _compare_tree(g, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-6), f"value drifted at {path}"
    else:
        assert got == expected, f"value changed at {path}"


def test_verdict_document_golden(capsys):
    code = main([
        "passivity", "ieee9", "--model", "II", "--analysis", "lowfreq",
        "--reg", "1:0.65,2:0.65,3:0.65,5:0.65,6:0.65,8:0.65",
        "--format", "json",
    ])
    assert code == EXIT_REGULATED
    got = json.loads(capsys.readouterr().out)
    expected = json.loads((DATA / "verdict_model2_regulated.json").read_text())
    _compare_tree(got, expected)


def test_tables_default_passes(capsys):
    assert main(["tables"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] eigenvalues base" in out
    assert "[FAIL]" not in out


def test_tables_tight_tolerance_fails(capsys):
    assert main(["tables", "--tolerance", "1e-6"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "expected" in out


def test_dump_model(capsys):
    assert main(["dump-model", "ieee9", "--model", "I"]) == EXIT_OK
    out = capsys.readouterr().out
    for block in ("[A]", "[B]", "[C]", "[D]", "[inputs]", "[states]"):
        assert block in out
    assert "v_D:1" in out


def test_dump_jacobian_blocks(capsys):
    assert main(["dump-model", "ieee9", "--model", "LF", "--variant", "decoupled"]) == EXIT_OK
    out = capsys.readouterr().out
    for block in ("[J11]", "[J12]", "[J21]", "[J22]", "[buses]"):
        assert block in out


@pytest.mark.parametrize("model", ["I", "II", "III", "IV"])
def test_dump_model_rejects_decoupled_state_space(model, capsys):
    # Models I-IV dump the wideband realization, which has no decoupled form.
    code = main(["dump-model", "ieee9", "--model", model, "--variant", "decoupled"])
    assert code == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert "applies to low-frequency models only" in captured.err
    assert captured.out == ""


def test_invalid_combination_exits_2(capsys):
    code = main([
        "passivity", "ieee9", "--model", "II", "--analysis", "wideband",
        "--variant", "decoupled",
    ])
    assert code == EXIT_CASE_ERROR
    assert "low-frequency" in capsys.readouterr().err


def test_tables_csv(tmp_path, capsys):
    csv = tmp_path / "eigs.csv"
    assert main(["tables", "--csv", str(csv)]) == EXIT_OK
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "table,index,eigenvalue"
    assert len(rows) == 1 + 4 * 18
    name, idx, value = rows[1].split(",")
    assert name == "base" and idx == "0"
    assert float(value) == pytest.approx(-0.84, abs=0.05)
    capsys.readouterr()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "op.json"
    assert main(["pf", "ieee9", "--format", "json", "--out", str(target)]) == EXIT_OK
    doc = json.loads(target.read_text())
    assert len(doc["buses"]) == 9
    capsys.readouterr()
