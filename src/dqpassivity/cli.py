"""Command-line front end.

Subcommands: `pf` (power flow), `passivity` (classify one model / variant),
`tables` (the reference eigenvalue lists and verdict grid of the bundled
nine-bus network), `dump-model` (state-space matrices). Exit codes: 0
passive, 10 non-passive, 11 passive-after-regulation; 2 on case or input
errors, 3 on power-flow and computation errors (LinAlgError included).
`main` writes the (exit code, JSON document, text) each `cmd_*` returns: the
document under `--format json`, else the text, to stdout or `--out`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

from . import reference
from .dqstamp import StateSpace, _matrix_blocks, export_matrices
from .netcase import CaseError, NetworkCase, VariantFlags, derive_variant, load_ieee9, parse_case
from .passcheck import MODELS, SweepGrid, _Variant, classify_grid, classify_model, sweep_samples
from .passivate import RegulationSet, apply_qv_contribution
from .powerflow import PowerFlowError, build_jlf_analytic, solve_powerflow, symmetric_part_eigenvalues

EXIT_OK = 0
EXIT_CASE_ERROR = 2
EXIT_COMPUTE_ERROR = 3
EXIT_NON_PASSIVE = 10
EXIT_REGULATED = 11
EXIT_MISMATCH = 1

_VERDICT_EXIT = {
    "passive": EXIT_OK,
    "non-passive": EXIT_NON_PASSIVE,
    "passive-after-regulation": EXIT_REGULATED,
}


def _read_case(path: str) -> NetworkCase:
    return load_ieee9() if path == "ieee9" else parse_case(Path(path).read_text())


def _parse_variant(spec: str | None) -> VariantFlags:
    if not spec:
        return VariantFlags()
    names = {s.strip() for s in spec.split(",") if s.strip()}
    known = {"lossless", "no-b", "decoupled"}
    bad = names - known
    if bad:
        raise ValueError(f"unknown variant flag(s) {sorted(bad)}; choose from {sorted(known)}")
    return VariantFlags(
        lossless="lossless" in names,
        no_shunt_b="no-b" in names,
        decoupled="decoupled" in names,
    )


def _parse_reg(args: argparse.Namespace, case: NetworkCase) -> RegulationSet | None:
    if args.reg:
        entries = []
        for item in args.reg.split(","):
            bus, _, k = item.partition(":")
            try:
                entries.append((int(bus), float(k)))
            except ValueError:
                raise ValueError(f"bad regulation entry {item!r}; expected bus:k_qv") from None
        return RegulationSet(entries=tuple(entries))
    # The case file's set is the default only for the cells that take regulation.
    if case.regulation and args.analysis == "lowfreq" and args.model != "I":
        return RegulationSet(entries=case.regulation)
    return None


def _parse_sweep(spec: str | None) -> SweepGrid | None:
    if not spec:
        return None
    try:
        lo, hi, ppd = spec.split(":")
        numbers = float(lo), float(hi), int(ppd)
    except ValueError:
        raise ValueError(f"sweep grid must be min:max:points_per_decade, got {spec!r}") from None
    return SweepGrid(*numbers)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text)


def cmd_powerflow(args: argparse.Namespace) -> tuple[int, dict, str]:
    op = solve_powerflow(_read_case(args.case))
    names = [f.name for f in fields(op)[1:]]  # the per-bus arrays after bus_ids
    doc = {
        "buses": [
            {"bus": int(b), **{name: float(getattr(op, name)[i]) for name in names}}
            for i, b in enumerate(op.bus_ids)
        ]
    }
    lines = [f"{'bus':>4} {'|V|':>9} {'phi[rad]':>10} {'P':>9} {'Q':>9} {'i_D':>9} {'i_Q':>9}"]
    for i, b in enumerate(op.bus_ids):
        lines.append(
            f"{b:>4} {op.vm[i]:>9.5f} {op.phi[i]:>10.6f} {op.p[i]:>9.5f}"
            f" {op.q[i]:>9.5f} {op.i_d[i]:>9.5f} {op.i_q[i]:>9.5f}"
        )
    return EXIT_OK, doc, "\n".join(lines)


def cmd_passivity(args: argparse.Namespace) -> tuple[int, dict, str]:
    case = _read_case(args.case)
    flags = _parse_variant(args.variant)
    reg = _parse_reg(args, case)
    grid = _parse_sweep(args.sweep)
    # The verdict and the CSV's realization share one variant and its power flow.
    work = _Variant(case, flags)
    verdict = classify_model(
        work,
        flags=flags,
        model=args.model,
        analysis=args.analysis,
        tau=args.tau,
        regulation=reg,
        grid=grid,
    )
    if args.csv:
        if verdict.cond2.worst_omega is None:
            print("note: model is frequency-independent, no sweep CSV written", file=sys.stderr)
        else:
            ss = work.realize(args.model, args.analysis, flags.decoupled, args.tau)
            rows = ["omega,min_eig"] + [f"{w!r},{lam!r}" for w, lam in sweep_samples(ss, grid)]
            Path(args.csv).write_text("\n".join(rows) + "\n")
    lines = [f"model {verdict.model} ({verdict.analysis}) -> {verdict.overall}"]
    if verdict.cond1 is not None:
        lines.append(
            f"  cond1 poles: {'pass' if verdict.cond1.passed else 'FAIL'}"
            f" ({len(verdict.cond1.imaginary_axis)} imaginary-axis pole group(s))"
        )
    where = (
        "static" if verdict.cond2.worst_omega is None
        else f"omega={verdict.cond2.worst_omega:.4g}"
    )
    lines.append(
        f"  cond2 sweep: {'pass' if verdict.cond2.passed else 'FAIL'}"
        f" min_eig={verdict.cond2.min_eig:.6g} at {where}"
    )
    for r in verdict.cond3:
        lines.append(
            f"  cond3 residue @omega={r.omega}: {'pass' if r.passed else 'FAIL'}"
            f" herm_dev={r.hermitian_deviation:.3g} min_eig={r.min_eig:.6g}"
        )
    f = verdict.feedthrough
    lines.append(
        f"  feedthrough: trace={f.trace:.6g} min_eig={f.min_eig:.6g}"
        f" {'PSD' if f.psd else 'indefinite'}"
    )
    if verdict.regulated is not None:
        lines.append(
            f"  regulated: flipped={verdict.regulated.flipped}"
            + (
                f" min_eig(excl. structural)={verdict.regulated.min_eig_excluding_structural:.6g}"
                if verdict.regulated.min_eig_excluding_structural is not None
                else ""
            )
        )
    return _VERDICT_EXIT[verdict.overall], verdict.to_dict(), "\n".join(lines)


def _jacobian_dump(j: StateSpace) -> str:
    n = len(j.bus_ids)
    blocks = (("J11", j.d[:n, :n]), ("J12", j.d[:n, n:]), ("J21", j.d[n:, :n]), ("J22", j.d[n:, n:]))
    return "\n".join([*_matrix_blocks(blocks), "[buses]", "  ".join(map(str, j.bus_ids)), ""])


def cmd_tables(args: argparse.Namespace) -> tuple[int, dict, str]:
    case = _read_case(args.case)
    tol = args.tolerance
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got tolerance={tol}")
    reg = RegulationSet.uniform(reference.REG_BUSES, reference.REG_KQV)

    # The base case's power flow and J_LF are solved once, for its rows and the grid.
    base = _Variant(case, VariantFlags())
    rows: dict[str, np.ndarray] = {}
    rows["base"] = symmetric_part_eigenvalues(base.jlf)
    rows["base_regulated"] = symmetric_part_eigenvalues(apply_qv_contribution(base.jlf, reg))
    # Lossless rows keep the measured base-case operating point.
    lossless = derive_variant(case, VariantFlags(lossless=True))
    j_ll = build_jlf_analytic(lossless, base.op, check_operating_point=False)
    rows["lossless"] = symmetric_part_eigenvalues(j_ll)
    rows["lossless_regulated"] = symmetric_part_eigenvalues(apply_qv_contribution(j_ll, reg))

    failures: list[str] = []
    doc: dict = {"eigenvalues": {}, "grid": {}}
    lines: list[str] = []
    for name, expected in reference.TABLE_EIGS.items():
        got = rows[name]
        errs = np.abs(got - np.array(expected))
        ok = bool(np.max(errs) <= tol)
        doc["eigenvalues"][name] = {
            "computed": [float(v) for v in got],
            "expected": list(expected),
            "max_error": float(np.max(errs)),
            "within_tolerance": ok,
        }
        lines.append(f"[{'PASS' if ok else 'FAIL'}] eigenvalues {name}: max error {np.max(errs):.4f} (tol {tol})")
        if not ok:
            for i, (g, e) in enumerate(zip(got, expected)):
                if abs(g - e) > tol:
                    failures.append(f"{name}[{i}]: computed {g:.4f} expected {e}")

    if args.csv:
        csv_rows = ["table,index,eigenvalue"]
        for name in reference.TABLE_EIGS:
            csv_rows += [f"{name},{i},{float(v)!r}" for i, v in enumerate(rows[name])]
        Path(args.csv).write_text("\n".join(csv_rows) + "\n")

    grid = classify_grid(base, tau=args.tau, regulation=reg)
    for model, cells in reference.EXPECTED_GRID.items():
        doc["grid"][model] = {}
        for cell, expected in cells.items():
            got_v = grid[model][cell]
            ok = got_v == expected
            doc["grid"][model][cell] = {"computed": got_v, "expected": expected, "match": ok}
            lines.append(f"[{'PASS' if ok else 'FAIL'}] grid {model} {cell}: {got_v}")
            if not ok:
                failures.append(f"grid {model}/{cell}: computed {got_v} expected {expected}")

    doc["failures"] = failures
    if failures:
        lines.append("mismatches:")
        lines.extend(f"  {f}" for f in failures)
    return EXIT_MISMATCH if failures else EXIT_OK, doc, "\n".join(lines)


def cmd_dump_model(args: argparse.Namespace) -> tuple[int, None, str]:
    case = _read_case(args.case)
    flags = _parse_variant(args.variant)
    # The wideband realization that `passivity` judges, or low-frequency model II, which is J_LF.
    work = _Variant(case, flags)
    if args.model == "LF":
        return EXIT_OK, None, _jacobian_dump(work.realize("II", "lowfreq", flags.decoupled, args.tau))
    return EXIT_OK, None, export_matrices(work.realize(args.model, "wideband", flags.decoupled, args.tau))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="dqpassivity",
        description="D-Q network models and passivity classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pf", help="solve the power flow and report the operating point")
    p_pf.add_argument("case", help="case file path, or 'ieee9' for the bundled fixture")
    p_pf.set_defaults(func=cmd_powerflow)

    p_pass = sub.add_parser("passivity", help="classify one model/variant combination")
    p_pass.add_argument("case")
    p_pass.add_argument("--model", choices=MODELS, required=True)
    p_pass.add_argument("--analysis", choices=("wideband", "lowfreq"), default="lowfreq")
    p_pass.add_argument("--variant", help="comma list: lossless,no-b,decoupled")
    p_pass.add_argument("--tau", type=float, default=0.01)
    p_pass.add_argument("--reg", help="regulation set bus:k_qv,... (defaults to the case file's)")
    p_pass.add_argument("--sweep", help="sweep grid min:max:points_per_decade")
    p_pass.add_argument("--csv", help="write sweep samples (omega, min_eig) to this CSV path")
    p_pass.set_defaults(func=cmd_passivity)

    p_tab = sub.add_parser("tables", help="reproduce the reference eigenvalue lists and verdict grid")
    p_tab.add_argument("case", nargs="?", default="ieee9")
    p_tab.add_argument("--tolerance", type=float, default=reference.EIG_TOL)
    p_tab.add_argument("--tau", type=float, default=0.01)
    p_tab.add_argument("--csv", help="write the computed lists as (table, index, eigenvalue) CSV")
    p_tab.set_defaults(func=cmd_tables)

    p_dump = sub.add_parser("dump-model", help="dump model matrices as labeled text")
    p_dump.add_argument("case")
    p_dump.add_argument(
        "--model",
        choices=(*MODELS, "LF"),
        default="I",
        help="state-space realization, or LF for the static load-flow Jacobian blocks",
    )
    p_dump.add_argument("--variant", help="comma list: lossless,no-b (LF also accepts decoupled)")
    p_dump.add_argument("--tau", type=float, default=0.01)
    p_dump.set_defaults(func=cmd_dump_model)

    for p in (p_pf, p_pass, p_tab):
        p.add_argument("--format", choices=("human", "json"), default="human")
    for p in (p_pf, p_pass, p_tab, p_dump):
        p.add_argument("--out", help="write the report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, text = args.func(args)
        # dump-model has no document, and so no --format.
        _emit(json.dumps(doc, indent=2) if doc is not None and args.format == "json" else text, args.out)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
    except CaseError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
    except PowerFlowError as exc:
        print(f"power flow error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    # LinAlgError subclasses ValueError, so this clause must come first.
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
