"""Command-line interface: subcommands, exit codes and document schemas."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dqpassivity
from dqpassivity import (
    VariantFlags,
    assemble_ydq,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_jlf_analytic,
    build_polar_model,
    cli,
    decouple,
    derive_variant,
    eval_tf,
    export_matrices,
    hermitian_min_eig,
    ieee9_text,
    load_ieee9,
    passcheck,
    serialize_case,
    solve_powerflow,
)
from dqpassivity.cli import (
    EXIT_CASE_ERROR,
    EXIT_COMPUTE_ERROR,
    EXIT_MISMATCH,
    EXIT_NON_PASSIVE,
    EXIT_OK,
    EXIT_REGULATED,
    _VERDICT_EXIT,
    _jacobian_dump,
    main,
)
from dqpassivity.passcheck import VARIANT_COLUMNS
from dqpassivity.reference import EXPECTED_GRID

DATA = Path(__file__).parent / "data"

REG = "1:0.65,2:0.65,3:0.65,5:0.65,6:0.65,8:0.65"

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


def test_pf_nonpositive_vset_exits_2(tmp_path, capsys):
    path = tmp_path / "neg_vset.case"
    path.write_text(TWO_BUS.replace("1  slack  -     -  1.0", "1  slack  -     -  -1.04"))
    assert main(["pf", str(path)]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bus 1: vset=-1.04 must be > 0" in captured.err


def test_passivity_overflowing_element_exits_2_without_warning(tmp_path, capsys):
    # x = 1e-320 overflows 1/L: the model is rejected by name at assembly, and
    # no RuntimeWarning (an error under this suite) comes first.
    path = tmp_path / "tiny_x.case"
    path.write_text(TWO_BUS.replace("1  2  0.0  0.1  0.0  1.0", "1  2  0.0  1e-320  0.0  1.0"))
    assert main(["passivity", str(path), "--model", "I", "--analysis", "wideband"]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: B must be finite\n"


def test_pf_diverging_case_exits_3(tmp_path, capsys):
    path = tmp_path / "overloaded.case"
    path.write_text(TWO_BUS.replace("2  pv     -0.5  -  1.0", "2  pq     -100  0.0  -"))
    assert main(["pf", str(path)]) == EXIT_COMPUTE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "power flow error" in captured.err


def test_missing_case_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.case"
    assert main(["pf", str(missing)]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err


@pytest.mark.parametrize(
    "args",
    [["pf", "{dir}"], ["pf", "ieee9", "--out", "{dir}"]],
    ids=["case-is-directory", "out-is-directory"],
)
def test_unreadable_path_exits_2(args, tmp_path, capsys):
    assert main([a.format(dir=tmp_path) for a in args]) == EXIT_CASE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path) in err


@pytest.mark.parametrize(
    "args, bad",
    [
        (["--variant", "foo"], "'foo'"),
        (["--reg", "5"], "'5'"),
        (["--reg", "5:x"], "'5:x'"),
        (["--sweep", "1:2"], "'1:2'"),
        (["--sweep", "1:10:2.5"], "'1:10:2.5'"),
        (["--sweep", "1:x:2"], "'1:x:2'"),
    ],
)
def test_passivity_bad_argument_exits_2(args, bad, capsys):
    assert main(["passivity", "ieee9", "--model", "II", *args]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert bad in captured.err


def test_module_entry_point_help():
    src = str(Path(dqpassivity.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "dqpassivity", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert run.returncode == 0
    assert "dump-model" in run.stdout


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


def test_passivity_csv_gives_every_point_its_eigensolve(tmp_path, capsys):
    # The verdict's sweep skips points that cannot hold the minimum; the CSV
    # still has every point's own lambda_min(G + G^H).
    csv = tmp_path / "j2.csv"
    code = main(["passivity", "ieee9", "--model", "II", "--analysis", "wideband", "--csv", str(csv)])
    assert code == EXIT_NON_PASSIVE
    rows = csv.read_text().splitlines()
    assert len(rows) == 142 and rows[0] == "omega,min_eig"
    case = load_ieee9()
    j2 = build_j_of_s(assemble_ydq(case), solve_powerflow(case))
    for row in rows[1:]:
        w, lam = row.split(",")
        g = eval_tf(j2, 1j * float(w))
        assert lam == repr(hermitian_min_eig(g + g.conj().T)), w
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


def test_passivity_decoupled_lowfreq_csv_matches_the_verdict(tmp_path, capsys):
    # The CSV realizes the decoupled J_LF behind integrators outside the
    # verdict; its two samples hold the verdict's minimum and where it lies.
    csv = tmp_path / "lf3d.csv"
    argv = ["passivity", "ieee9", "--model", "III", "--analysis", "lowfreq", "--variant", "decoupled"]
    code = main([*argv, "--csv", str(csv), "--format", "json"])
    assert code == EXIT_NON_PASSIVE
    sweep = json.loads(capsys.readouterr().out)["cond2_sweep"]
    rows = [tuple(map(float, r.split(","))) for r in csv.read_text().strip().splitlines()[1:]]
    assert len(rows) == 2
    assert min(rows, key=lambda r: r[1]) == (sweep["worst_omega"], sweep["min_eig"])


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


@pytest.mark.parametrize(
    "args, field",
    [
        (["--model", "II", "--analysis", "wideband", "--sweep", "1e-2:inf:20"], "omega_max=inf"),
        (["--model", "II", "--analysis", "wideband", "--sweep", "nan:1e5:20"], "omega_min=nan"),
        (["--model", "III", "--tau", "nan"], "tau=nan"),
        (["--model", "III", "--tau", "inf"], "tau=inf"),
        (["--model", "IV", "--analysis", "wideband", "--tau", "inf"], "tau=inf"),
        (["--model", "II", "--reg", "5:nan"], "k_qv=nan"),
        (["--model", "II", "--tau", "-5"], "tau=-5.0"),
        (["--model", "I", "--tau", "nan"], "tau=nan"),
    ],
)
def test_passivity_non_finite_input_exits_2(args, field, capsys):
    assert main(["passivity", "ieee9", *args]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("model, tau", [("LF", "nan"), ("I", "0")])
def test_dump_model_bad_tau_exits_2(model, tau, capsys):
    # Models I and LF build no filter, yet `tau` is checked for every model.
    assert main(["dump-model", "ieee9", "--model", model, "--tau", tau]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tau={float(tau)}" in captured.err


def test_linalg_failure_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvector matrix of A is singular")

    monkeypatch.setattr(cli, "classify_model", fail)
    assert main(["passivity", "ieee9", "--model", "II"]) == EXIT_COMPUTE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "computation error" in captured.err


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


def test_tables_json_reproduces_grid(capsys):
    assert main(["tables", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    grid = {m: {c: v["computed"] for c, v in cells.items()} for m, cells in doc["grid"].items()}
    assert grid == EXPECTED_GRID


def test_tables_solves_one_power_flow_per_variant_column(monkeypatch, capsys):
    # The base rows and the grid's lossy_b column share one power flow.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_powerflow(*args, **kwargs)

    for module in (cli, passcheck):
        monkeypatch.setattr(module, "solve_powerflow", counted)
    assert main(["tables", "--format", "json"]) == EXIT_OK
    assert len(calls) == len(VARIANT_COLUMNS)
    capsys.readouterr()


def test_tables_tight_tolerance_fails(capsys):
    assert main(["tables", "--tolerance", "1e-6"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "expected" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tables_rejects_invalid_tolerance(value, capsys):
    # nan printed [FAIL] rows yet exited 0, inf disabled the gate, -1 failed every row.
    assert main(["tables", "--tolerance", value]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tolerance={float(value)}" in captured.err


def test_dump_model(capsys):
    assert main(["dump-model", "ieee9", "--model", "I"]) == EXIT_OK
    out = capsys.readouterr().out
    for block in ("[A]", "[B]", "[C]", "[D]", "[inputs]", "[states]"):
        assert block in out
    assert "v_D:1" in out


@pytest.mark.parametrize("model", ["II", "III", "IV"])
def test_dump_polar_model_matches_builders(model, ieee9, ieee9_op, capsys):
    j = build_j_of_s(assemble_ydq(ieee9), ieee9_op)
    ss = {"II": j, "III": build_jdp(j, 0.01), "IV": build_jdf(j, 0.01)}[model]
    assert main(["dump-model", "ieee9", "--model", model]) == EXIT_OK
    assert capsys.readouterr().out == export_matrices(ss) + "\n"


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


REPORTS = {
    f"{name}-{fmt}": [*argv, "--format", fmt]
    for name, argv in [
        ("pf", ["pf", "ieee9"]),
        ("passivity", ["passivity", "ieee9", "--model", "II", "--analysis", "lowfreq", "--reg", REG]),
        ("tables", ["tables"]),
    ]
    for fmt in ("human", "json")
}
REPORTS["dump-model"] = ["dump-model", "ieee9", "--model", "LF"]


@pytest.mark.parametrize("name", REPORTS)
def test_out_writes_file(name, tmp_path, capsys):
    # One output path: --out holds exactly the report stdout would carry.
    argv = REPORTS[name]
    code = main(argv)
    report = capsys.readouterr().out
    target = tmp_path / "report.txt"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert target.read_text() + "\n" == report
    if "json" in argv:
        json.loads(report)


def test_dump_model_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump-model", "ieee9", "--model", "I", "--format", "json"])
    assert exc.value.code == 2  # argparse's usage error
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format json" in captured.err


def _network_variant(ieee9, variant):
    names = (variant or "").split(",")
    return derive_variant(ieee9, VariantFlags(lossless="lossless" in names, no_shunt_b="no-b" in names))


@pytest.mark.parametrize("variant", [None, "lossless", "no-b", "lossless,no-b"])
@pytest.mark.parametrize("model", ["I", "II", "III", "IV"])
def test_dump_model_matches_hand_built_realization(model, variant, ieee9, capsys):
    net = _network_variant(ieee9, variant)
    ydq = assemble_ydq(net)
    ss = ydq if model == "I" else build_polar_model(model, build_j_of_s(ydq, solve_powerflow(net)), 0.01)
    argv = ["dump-model", "ieee9", "--model", model] + (["--variant", variant] if variant else [])
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == export_matrices(ss) + "\n"


@pytest.mark.parametrize("decoupled", [False, True])
@pytest.mark.parametrize("variant", [None, "lossless", "no-b", "lossless,no-b"])
def test_dump_jacobian_matches_hand_built_jlf(variant, decoupled, ieee9, capsys):
    net = _network_variant(ieee9, variant)
    jlf = build_jlf_analytic(net, solve_powerflow(net))
    if decoupled:
        jlf = decouple(jlf)
    spec = ",".join(filter(None, [variant, "decoupled" if decoupled else None]))
    assert main(["dump-model", "ieee9", "--model", "LF"] + (["--variant", spec] if spec else [])) == EXIT_OK
    assert capsys.readouterr().out == _jacobian_dump(jlf) + "\n"


@pytest.mark.parametrize("model, variant", [("III", "lossless,decoupled"), ("IV", "lossless")])
def test_passivity_human_report_of_regulated_filtered_model(model, variant, capsys):
    # III and IV re-run the pipeline under regulation, so no structural minimum is printed.
    code = main(["passivity", "ieee9", "--model", model, "--variant", variant, "--reg", REG])
    assert code == EXIT_REGULATED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"model {model} (lowfreq) -> passive-after-regulation"
    assert lines[-1] == "  regulated: flipped=True"


def test_tables_grid_mismatch_exits_1(ieee9, tmp_path, capsys):
    path = tmp_path / "b_line_x3.case"
    tripled = tuple(replace(br, b_line=3 * br.b_line) for br in ieee9.branches)
    path.write_text(serialize_case(replace(ieee9, branches=tripled)))
    assert main(["tables", str(path)]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "[FAIL] grid II lossy_b/coupled: non-passive" in out
    assert "  grid II/lossy_b/coupled: computed non-passive expected passive-after-regulation" in out


def test_pf_singular_newton_matrix_exits_3(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert main(["pf", "ieee9"]) == EXIT_COMPUTE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("power flow error: singular power-flow Jacobian: Singular matrix")


@pytest.mark.parametrize(
    "model, analysis",
    [("I", "wideband"), ("II", "wideband"), ("III", "wideband"), ("IV", "wideband"), ("I", "lowfreq")],
)
def test_case_regulation_section_spares_cells_without_regulation(model, analysis, tmp_path, capsys):
    # The file's set is only the default; these cells take no regulation.
    path = tmp_path / "with_reg.case"
    path.write_text(ieee9_text() + "\n[regulation]\n5 0.65\n6 0.65\n")
    expected = EXPECTED_GRID[model]["wideband" if analysis == "wideband" else "lossy_b"]
    argv = ["passivity", str(path), "--model", model, "--analysis", analysis]
    assert main(argv) == _VERDICT_EXIT[expected]
    assert capsys.readouterr().out.startswith(f"model {model} ({analysis}) -> {expected}\n")
    assert main([*argv, "--reg", "5:0.65"]) == EXIT_CASE_ERROR
    assert "regulation" in capsys.readouterr().err


def test_regulation_naming_unknown_bus_rejected_on_passing_cell(capsys):
    # The regulated J_LF is built with every cell, so a bad set fails even where no flip is needed.
    argv = ["passivity", "ieee9", "--model", "II", "--variant", "lossless,no-b,decoupled"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--reg", "99:1"]) == EXIT_CASE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: regulation references unknown bus 99\n"
