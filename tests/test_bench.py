"""The benchmark's own checks: one short run of each workload of bench/run.py.

Each run is one round, checked against bench/reference.py, and writes its
record under the git-ignored .bench_out/. The label counts are the paper's
metric on the fixed inputs, so they must not move.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, labels_p50, labels_max", [
    ("fit-tall", 2102, 2192),
    ("accept-trials", 1589.5, 2209),
    ("certify", 967, 2200),
], ids=["fit-tall", "accept-trials", "certify"])
def test_bench_run_is_correct(workload, labels_p50, labels_max):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["label_queries_p50"] == labels_p50
    assert metrics["label_queries_max"] == labels_max
