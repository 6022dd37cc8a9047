"""Command-line front end.

Subcommands: `pf` (power flow report), `passivity` (classify one model /
variant combination), `tables` (reproduce the reference eigenvalue lists
and the verdict grid for the bundled nine-bus network), `dump-model`
(state-space matrix dump). Verdict exit codes: 0 passive, 10 non-passive,
11 passive-after-regulation; case/input errors exit 2, computation errors
exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import reference
from .dqstamp import assemble_ydq, export_matrices
from .netcase import CaseError, NetworkCase, VariantFlags, derive_variant, ieee9_text, parse_case
from .passcheck import SweepGrid, classify_grid, classify_model
from .passivate import RegulationSet, apply_qv_contribution
from .polarmodels import build_j_of_s, build_polar_model
from .powerflow import (
    PowerFlowError,
    build_jlf_analytic,
    decouple,
    solve_powerflow,
    symmetric_part_eigenvalues,
)

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
    if path == "ieee9":
        return parse_case(ieee9_text())
    return parse_case(Path(path).read_text())


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


def _parse_reg(spec: str | None, case: NetworkCase) -> RegulationSet | None:
    if spec:
        entries = []
        for item in spec.split(","):
            bus, _, k = item.partition(":")
            try:
                entries.append((int(bus), float(k)))
            except ValueError:
                raise ValueError(f"bad regulation entry {item!r}; expected bus:k_qv") from None
        return RegulationSet(entries=tuple(entries))
    if case.regulation:
        return RegulationSet(entries=case.regulation)
    return None


def _parse_sweep(spec: str | None) -> SweepGrid | None:
    if not spec:
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("sweep grid must be min:max:points_per_decade")
    return SweepGrid(
        omega_min=float(parts[0]),
        omega_max=float(parts[1]),
        points_per_decade=int(parts[2]),
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text)


def cmd_powerflow(args: argparse.Namespace) -> int:
    case = _read_case(args.case)
    op = solve_powerflow(case)
    if args.format == "json":
        doc = {
            "buses": [
                {
                    "bus": int(b),
                    "vm": float(op.vm[i]),
                    "phi": float(op.phi[i]),
                    "v_d": float(op.v_d[i]),
                    "v_q": float(op.v_q[i]),
                    "i_d": float(op.i_d[i]),
                    "i_q": float(op.i_q[i]),
                    "p": float(op.p[i]),
                    "q": float(op.q[i]),
                }
                for i, b in enumerate(op.bus_ids)
            ]
        }
        _emit(json.dumps(doc, indent=2), args.out)
        return EXIT_OK
    lines = [f"{'bus':>4} {'|V|':>9} {'phi[rad]':>10} {'P':>9} {'Q':>9} {'i_D':>9} {'i_Q':>9}"]
    for i, b in enumerate(op.bus_ids):
        lines.append(
            f"{b:>4} {op.vm[i]:>9.5f} {op.phi[i]:>10.6f} {op.p[i]:>9.5f}"
            f" {op.q[i]:>9.5f} {op.i_d[i]:>9.5f} {op.i_q[i]:>9.5f}"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_passivity(args: argparse.Namespace) -> int:
    case = _read_case(args.case)
    flags = _parse_variant(args.variant)
    reg = _parse_reg(args.reg, case)
    grid = _parse_sweep(args.sweep)
    verdict = classify_model(
        case,
        flags=flags,
        model=args.model,
        analysis=args.analysis,
        tau=args.tau,
        regulation=reg,
        grid=grid,
    )
    if args.csv:
        if verdict.cond2 is not None and verdict.cond2.samples:
            rows = ["omega,min_eig"]
            rows += [f"{float(w)!r},{float(lam)!r}" for w, lam in verdict.cond2.samples]
            Path(args.csv).write_text("\n".join(rows) + "\n")
        else:
            print("note: model is frequency-independent, no sweep CSV written", file=sys.stderr)
    doc = verdict.to_dict()
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"model {verdict.model} ({verdict.analysis}) -> {verdict.overall}"]
        if verdict.cond1 is not None:
            lines.append(
                f"  cond1 poles: {'pass' if verdict.cond1.passed else 'FAIL'}"
                f" ({len(verdict.cond1.imaginary_axis)} imaginary-axis pole group(s))"
            )
        if verdict.cond2 is not None:
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
        if verdict.feedthrough is not None:
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
        _emit("\n".join(lines), args.out)
    return _VERDICT_EXIT[verdict.overall]


def _jacobian_dump(j) -> str:
    out = []
    for name, block in (("J11", j.j11), ("J12", j.j12), ("J21", j.j21), ("J22", j.j22)):
        out.append(f"[{name}]  # {block.shape[0]} x {block.shape[1]}")
        for row in block:
            out.append("  ".join(f"{v: .16e}" for v in row))
        out.append("")
    out.append("[buses]")
    out.append("  ".join(str(b) for b in j.bus_ids))
    out.append("")
    return "\n".join(out)


def cmd_tables(args: argparse.Namespace) -> int:
    case = _read_case(args.case)
    tol = args.tolerance
    reg = RegulationSet.uniform(reference.REG_BUSES, reference.REG_KQV)

    op = solve_powerflow(case)
    rows: dict[str, np.ndarray] = {}
    j_base = build_jlf_analytic(case, op)
    rows["base"] = symmetric_part_eigenvalues(j_base)
    rows["base_regulated"] = symmetric_part_eigenvalues(apply_qv_contribution(j_base, reg))
    # Lossless rows keep the measured base-case operating point.
    lossless = derive_variant(case, VariantFlags(lossless=True))
    j_ll = build_jlf_analytic(lossless, op, check_operating_point=False)
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

    grid = classify_grid(case, tau=args.tau, regulation=reg)
    for model, cells in reference.EXPECTED_GRID.items():
        doc["grid"][model] = {}
        for cell, expected in cells.items():
            got_v = grid[model][cell]
            ok = got_v == expected
            doc["grid"][model][cell] = {"computed": got_v, "expected": expected, "match": ok}
            lines.append(f"[{'PASS' if ok else 'FAIL'}] grid {model} {cell}: {got_v}")
            if not ok:
                failures.append(f"grid {model}/{cell}: computed {got_v} expected {expected}")

    if args.format == "json":
        doc["failures"] = failures
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        if failures:
            lines.append("mismatches:")
            lines.extend(f"  {f}" for f in failures)
        _emit("\n".join(lines), args.out)
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_dump_model(args: argparse.Namespace) -> int:
    case = _read_case(args.case)
    flags = _parse_variant(args.variant)
    if flags.decoupled and args.model != "LF":
        raise ValueError("the decoupled simplification applies to low-frequency models only")
    variant = derive_variant(case, flags)
    if args.model == "LF":
        op = solve_powerflow(variant)
        jlf = build_jlf_analytic(variant, op)
        if flags.decoupled:
            jlf = decouple(jlf)
        _emit(_jacobian_dump(jlf), args.out)
        return EXIT_OK
    ydq = assemble_ydq(variant)
    if args.model == "I":
        ss = ydq
    else:
        op = solve_powerflow(variant)
        ss = build_polar_model(args.model, build_j_of_s(ydq, op), args.tau)
    _emit(export_matrices(ss), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqpassivity",
        description="D-Q network models and passivity classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", help="write the report to this path")

    p_pf = sub.add_parser("pf", help="solve the power flow and report the operating point")
    p_pf.add_argument("case", help="case file path, or 'ieee9' for the bundled fixture")
    add_common(p_pf)
    p_pf.set_defaults(func=cmd_powerflow)

    p_pass = sub.add_parser("passivity", help="classify one model/variant combination")
    p_pass.add_argument("case")
    p_pass.add_argument("--model", choices=("I", "II", "III", "IV"), required=True)
    p_pass.add_argument("--analysis", choices=("wideband", "lowfreq"), default="lowfreq")
    p_pass.add_argument("--variant", help="comma list: lossless,no-b,decoupled")
    p_pass.add_argument("--tau", type=float, default=0.01)
    p_pass.add_argument("--reg", help="regulation set bus:k_qv,... (defaults to the case file's)")
    p_pass.add_argument("--sweep", help="sweep grid min:max:points_per_decade")
    p_pass.add_argument("--csv", help="write sweep samples (omega, min_eig) to this CSV path")
    add_common(p_pass)
    p_pass.set_defaults(func=cmd_passivity)

    p_tab = sub.add_parser("tables", help="reproduce the reference eigenvalue lists and verdict grid")
    p_tab.add_argument("case", nargs="?", default="ieee9")
    p_tab.add_argument("--tolerance", type=float, default=reference.EIG_TOL)
    p_tab.add_argument("--tau", type=float, default=0.01)
    p_tab.add_argument("--csv", help="write the computed lists as (table, index, eigenvalue) CSV")
    add_common(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_dump = sub.add_parser("dump-model", help="dump model matrices as labeled text")
    p_dump.add_argument("case")
    p_dump.add_argument(
        "--model",
        choices=("I", "II", "III", "IV", "LF"),
        default="I",
        help="state-space realization, or LF for the static load-flow Jacobian blocks",
    )
    p_dump.add_argument("--variant", help="comma list: lossless,no-b (LF also accepts decoupled)")
    p_dump.add_argument("--tau", type=float, default=0.01)
    add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
    except CaseError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_ERROR
    except PowerFlowError as exc:
        print(f"power flow error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
