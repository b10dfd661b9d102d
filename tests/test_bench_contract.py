"""The benchmark's traced smoke pass runs clean on every workload.

Each workload runs once through ``benchmarks/worker.py`` in a fresh
process, as the benchmark itself runs it.  A traced pass exits non-zero
when an expected layer that the program still defines recorded no calls,
so a refactor that moves work out from under the tracer fails here
instead of only in a benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_pass(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
         "--mode", "pass", "--trace", "1", "--smoke", "--spawned-at", str(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    ops = json.loads(res.stdout)["ops"]
    assert ops
    assert [op["name"] for op in ops if not op["ok"]] == []
