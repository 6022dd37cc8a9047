"""The benchmark's correctness gates and layer wiring hold on short traced runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ieee9-tables", "mesh-wideband", "ieee9-dissipation"])
def test_traced_bench_run_is_correct_and_wired(workload):
    # Moving a traced call behind a private helper can leave a layer counter at
    # zero that the workload predicts nonzero; the unit tests would not notice.
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    *_, detail, summary = run.stdout.strip().splitlines()
    assert json.loads(summary)["correct"] is True
    assert json.loads(detail)["wiring_failures"] == []
