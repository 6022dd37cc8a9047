"""Benchmark of the dqpassivity passivity checks, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload ieee9-tables --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

One process runs one workload as a closed loop: the next item starts when
the previous one has returned and passed its correctness gate. `--trace 0`
reports the end-to-end metrics; `--trace 1` spends half the time untraced
and half with timing wrappers installed on the program's public functions,
and reports the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give every metric by name and unit, the item count, the tail
percentile and the machine facts. `--workload all` runs each workload in its
own process and exits nonzero if any gate failed.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: a fixed count, never above nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3

# Per-layer metrics are the `per_layer` entries of BENCHMARK.json, each named
# <traced function or group>.<field> and given per traced item. A group sums
# several traced functions.
GROUPS = {
    "polarmodels.build": (
        "polarmodels.build_j_of_s",
        "polarmodels.build_jdp",
        "polarmodels.build_jdf",
    ),
}


def import_program():
    """Import dqpassivity from this checkout's src/; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import dqpassivity
    except ImportError as exc:
        print(f"error: cannot import dqpassivity from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(dqpassivity.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: dqpassivity was imported from {dqpassivity.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def measure(workload, seconds: float, probe, tracer=None) -> dict:
    """Closed loop for `seconds` of wall time, ending on a whole item cycle.

    The speed probe runs before the first item and after every item, outside
    the item's timed region.
    """
    latencies: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    samples = [probe.sample()]
    while True:
        if tracer is not None:
            tracer.begin_item()
        t0 = time.perf_counter()
        try:
            result = workload.run(i)
            latencies.append(time.perf_counter() - t0)
            item_problems = workload.check(i, result)
        except Exception:  # an item that raises is a failed item; keep going
            latencies.append(time.perf_counter() - t0)
            item_problems = [traceback.format_exc(limit=3)]
        samples.append(probe.sample())
        attempted += 1
        if item_problems:
            failed += 1
            problems.extend(item_problems)
        i += 1
        if time.perf_counter() - start >= seconds and i % workload.cycle == 0:
            break
    return {
        "latencies": latencies,
        "normalized": probe.normalize(latencies, samples),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def tail(latencies: list[float], p: int) -> tuple[float, int]:
    """p-th percentile, interpolated so that p50 is the median, and the items above it."""
    if len(latencies) < 2:
        value = latencies[0]
    else:
        value = statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    return value, sum(x > value for x in latencies)


def rate(latencies: list[float], cycle: int) -> float:
    """Items per second over the interquartile mean of whole-cycle durations."""
    cycles = sorted(sum(latencies[i : i + cycle]) for i in range(0, len(latencies), cycle))
    cut = len(cycles) // 4
    middle = cycles[cut : len(cycles) - cut]
    return cycle * len(middle) / sum(middle)


def traced_functions(metric: str) -> tuple[str, ...]:
    prefix = metric.rsplit(".", 1)[0]
    return GROUPS.get(prefix, (prefix,))


def layer_value(tracer, metric: str, n_items: int) -> float:
    field = metric.rsplit(".", 1)[1]
    stats = [tracer.stat(name) for name in traced_functions(metric)]
    calls = sum(s.calls for s in stats)
    if field == "unique_ratio":
        return sum(s.distinct for s in stats) / calls if calls else 0.0
    if field == "steps_per_s":
        busy = sum(s.s for s in stats)
        return sum(s.extra.get("steps", 0.0) for s in stats) / busy if busy else 0.0
    if field == "calls":
        total = calls
    elif field in ("s", "self_s"):
        total = sum(getattr(s, field) for s in stats)
    else:
        total = sum(s.extra.get(field, 0.0) for s in stats)
    return total / n_items


def run_workload(args) -> int:
    t0 = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t0

    from layertrace import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    probe = SpeedProbe()
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        samples = [probe.sample()]
        warmups: list[list[str]] = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = cls(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
            samples.append(probe.sample())
            warmups.append(workload.warmup)
        # The import ran just before the first probe sample.
        import_norm = probe.normalize([import_s], [samples[0], samples[0]])[0]
        setup_s = import_norm + statistics.median(probe.normalize(setups, samples))

        if args.trace:
            plain = measure(workload, args.seconds / 2, probe)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, probe, tracer)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        else:
            runs = [measure(workload, args.seconds, probe)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = SETUP_REPEATS + sum(r["attempted"] for r in runs)
    failed = sum(bool(w) for w in warmups) + sum(r["failed"] for r in runs)
    problems = [p for w in warmups for p in w] + [p for r in runs for p in r["problems"]]
    latencies = runs[0]["normalized"]
    items_per_s = rate(latencies, cls.cycle)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(latencies),
        "fail_ratio": failed / attempted,
        "raw_latencies_s": [round(x, 6) for x in runs[0]["latencies"]],
        "probe_s": [round(x, 7) for x in runs[0]["samples"]],
        "facts": machine_facts(),
    }

    if args.trace:
        n_traced = len(traced["latencies"])
        traced_rate = rate(traced["normalized"], cls.cycle)
        metrics = {}
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        for name, unit in ((m["name"], m["unit"]) for m in per_layer):
            value = (
                traced_rate / items_per_s
                if name == "trace.overhead_ratio"
                else layer_value(tracer, name, n_traced)
            )
            metrics[name] = {"value": value, "unit": unit}
        # A predicted-nonzero layer whose functions the program no longer has is
        # reported as absent rather than failed.
        absent = [m for m in cls.expect_nonzero
                  if not any(name in tracer.stats for name in traced_functions(m))]
        wiring = [f"{m} is 0, predicted nonzero" for m in cls.expect_nonzero
                  if m not in absent and metrics[m]["value"] == 0]
        wiring += [f"{m} is {metrics[m]['value']}, predicted 0" for m in cls.expect_zero
                   if metrics[m]["value"] != 0]
        problems += wiring
        detail["traced_items"] = n_traced
        detail["absent"] = absent
        detail["wiring_failures"] = wiring
    else:
        tail_s, beyond = tail(latencies, cls.tail_percentile)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "item_s.tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        detail["tail_percentile"] = cls.tail_percentile
        detail["items_beyond_tail"] = beyond
        detail["raw_setup_s"] = [import_s, *setups]

    for problem in problems[:20]:
        print(f"gate failure: {problem}", file=sys.stderr)
    correct = not problems
    print(f"{args.workload}: {len(latencies)} items, fail_ratio {detail['fail_ratio']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if proc.returncode != 0:
            status = 1
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ieee9-tables", "mesh-wideband", "ieee9-dissipation", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_program()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
