"""Self-test of the benchmark harness, at the smallest size of each workload.

    python3 benchmarks/selftest.py

For every workload it checks that
  * the result line names exactly the metrics of BENCHMARK.json, each with
    its unit (``--trace 0``: end-to-end, ``--trace 1``: per-layer);
  * every metric and workload name matches ``[A-Za-z0-9_.-]+``;
  * an injected wrong expectation makes ops fail (fail_frac > 0).
It also checks that run.py refuses to run, with no result line, in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(workload, *extra) -> dict:
    res = run("--workload", workload, "--seed", "1", "--seconds", "1", "--smoke", *extra)
    if res.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {res.returncode}\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{workload} {extra}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise AssertionError(f"{workload} {extra}: attempted = {result['attempted']}")
    return result


def check_metrics(label, result, declared) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise AssertionError(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not NAME.fullmatch(name):
            raise AssertionError(f"{label}: bad metric name {name!r}")
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number: {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        if not NAME.fullmatch(w["name"]):
            raise AssertionError(f"bad workload name {w['name']!r}")
    for w in (w["name"] for w in spec["workloads"]):
        plain = result_of(w, "--trace", "0")
        check_metrics(f"{w} --trace 0", plain, spec["end_to_end"])
        if not plain["correct"] or plain["failed"]:
            raise AssertionError(f"{w}: smoke pass failed {plain['failed']} ops")
        check_metrics(f"{w} --trace 1", result_of(w, "--trace", "1"), spec["per_layer"])
        faulty = result_of(w, "--trace", "0", "--inject-fault")
        if faulty["correct"] or faulty["failed"] / faulty["attempted"] <= 0:
            raise AssertionError(f"{w}: an injected wrong expectation was not caught")
        print(f"ok  {w}: metrics, names, injected fault "
              f"({faulty['failed']}/{faulty['attempted']} ops failed)")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = run("--workload", spec["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp)
        if res.returncode == 0 or res.stdout.strip():
            raise AssertionError("run.py ran without the program's sources")
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
