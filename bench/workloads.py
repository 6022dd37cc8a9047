"""The three benchmark workloads.

Each workload object is built by its constructor (the set-up: case parse or
generation, model stamping and one warm-up item), then driven in a closed
loop by `run(i)` for item i, whose result `check(i, result)` gates. Calls
into the program go through module attributes at call time, so the
tracer's wrappers see them.

`tail_percentile` is the highest of p99, p95, p90, p75 and p50 that leaves
at least ten items above it in a 35-second run on the reference machine;
it is fixed per workload so that runs with a few more or fewer items stay
comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from dqpassivity import cli, dqstamp, netcase, passcheck, passivate, polarmodels, powerflow, reference

from synthcase import mesh_case


class Ieee9Tables:
    """`tables` CLI in process, then the minimal uniform Q-V regulation."""

    name = "ieee9-tables"
    cycle = 1
    tail_percentile = 75
    expect_nonzero = (
        "passcheck.hermitian_min_eig.calls",
        "polarmodels.RationalLF.tf.calls",
        "powerflow.solve_powerflow.calls",
        "powerflow.build_jlf_analytic.calls",
        "dqstamp.eval_tf.calls",
        "dqstamp.assemble_ydq.calls",
        "passcheck.sweep_psd.calls",
        "passcheck.classify_model.calls",
        "passivate.min_eig_excluding_uniform_angle.calls",
        "passivate.min_uniform_kqv.calls",
        "passivate.apply_qv_contribution.calls",
        "netcase.parse_case.s",
        "netcase.derive_variant.calls",
        "cli.main.self_s",
    )
    expect_zero = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        # Deterministic: the seed is unused.
        self.case = netcase.parse_case(netcase.ieee9_text())
        self.out = workdir / "tables.json"
        self.warmup = self.check(0, self.run(0))

    def run(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["tables", "--format", "json", "--out", str(self.out)])
        jlf = powerflow.build_jlf_analytic(self.case, powerflow.solve_powerflow(self.case))
        return code, passivate.min_uniform_kqv(jlf, reference.REG_BUSES)

    def check(self, i: int, result) -> list[str]:
        code, kqv = result
        problems = []
        if code != 0:
            problems.append(f"tables exited {code}")
        elif json.loads(self.out.read_text())["failures"]:
            problems.append("tables reported mismatches")
        if not kqv <= reference.REG_KQV:
            problems.append(f"min_uniform_kqv {kqv} exceeds {reference.REG_KQV}")
        return problems


class MeshWideband:
    """Wideband verdicts on a seeded synthetic meshed case, models I-IV in turn."""

    name = "mesh-wideband"
    n_bus = 40
    tau = 0.01
    models = passcheck.MODELS
    cycle = len(models)
    tail_percentile = 75
    # Agreement of the independently recomputed cond2 minimum eigenvalue,
    # relative to the spectral norm of G + G^H at worst_omega.
    rtol = 1e-9
    expect_nonzero = (
        "passcheck.hermitian_min_eig.calls",
        "powerflow.solve_powerflow.calls",
        "dqstamp.eval_tf.calls",
        "dqstamp.assemble_ydq.calls",
        "polarmodels.build.calls",
        "passcheck.check_poles.calls",
        "passcheck.check_residue_psd_hermitian.calls",
        "passcheck.sweep_psd.calls",
        "passcheck.classify_model.calls",
    )
    expect_zero = ("polarmodels.RationalLF.tf.calls",)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.case = mesh_case(self.n_bus, seed)
        op = powerflow.solve_powerflow(self.case)
        ydq = dqstamp.assemble_ydq(self.case)
        j = polarmodels.build_j_of_s(ydq, op)
        # Realizations for the independent cond2 recomputation.
        self.realizations = {
            "I": ydq,
            "II": j,
            "III": polarmodels.build_jdp(j, self.tau),
            "IV": polarmodels.build_jdf(j, self.tau),
        }
        self.warmup = self.check(0, self.run(0))

    def run(self, i: int):
        model = self.models[i % self.cycle]
        return passcheck.classify_model(self.case, model=model, analysis="wideband", tau=self.tau)

    def check(self, i: int, verdict) -> list[str]:
        model = self.models[i % self.cycle]
        problems = []
        want = "passive" if model == "I" else "non-passive"
        if verdict.overall != want:
            problems.append(f"model {model}: {verdict.overall}, expected {want}")
        if model in ("II", "IV"):
            feed = verdict.feedthrough
            if abs(feed.trace) > 1e-9 * max(1.0, float(np.sum(np.abs(feed.diagonal)))):
                problems.append(f"model {model}: feedthrough trace {feed.trace} is not zero")
        ss = self.realizations[model]
        w = verdict.cond2.worst_omega
        g = ss.c @ np.linalg.solve(1j * w * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
        lam = np.linalg.eigvalsh(g + g.conj().T)
        scale = max(1.0, float(np.max(np.abs(lam))))
        if abs(lam[0] - verdict.cond2.min_eig) > self.rtol * scale:
            problems.append(
                f"model {model}: cond2 min_eig {verdict.cond2.min_eig} vs recomputed {lam[0]} "
                f"at omega={w}"
            )
        return problems


class Ieee9Dissipation:
    """RK4 dissipation run on the nine-bus admittance with a fresh multisine."""

    name = "ieee9-dissipation"
    cycle = 1
    tail_percentile = 50
    t_end = 0.5
    dt = 2e-5
    expect_nonzero = ("passcheck.simulate_dissipation.calls",)
    expect_zero = (
        "polarmodels.RationalLF.tf.calls",
        "dqstamp.eval_tf.calls",
        "passcheck.hermitian_min_eig.calls",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        case = netcase.parse_case(netcase.ieee9_text())
        self.ss = dqstamp.assemble_ydq(case, dqstamp.ParasiticConfig(r_series_cap=0.05))
        self.rng = np.random.default_rng(seed)
        self.warmup = self.check(0, self.run(0))

    def run(self, i: int):
        u = passcheck.random_multisine(self.rng, self.ss.n_inputs)
        return passcheck.simulate_dissipation(self.ss, u, t_end=self.t_end, dt=self.dt)

    def check(self, i: int, report) -> list[str]:
        if report.min_margin < -1e-6:
            return [f"dissipation margin {report.min_margin} below -1e-6"]
        return []


WORKLOADS = {w.name: w for w in (Ieee9Tables, MeshWideband, Ieee9Dissipation)}
