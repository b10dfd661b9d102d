"""covqec benchmark: time four correctness-gated workloads end to end.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; covqec is imported from ``src/`` of that
checkout, never from anywhere else.  The workloads are described in
``workloads.py``.  This script uses the standard library only; each pass
runs in a fresh worker process (``worker.py``) with BLAS pinned to one
thread, so passes start cold and do not fight over the two cores.

A run first starts SETUP_SAMPLES workers that only set up, then repeats
whole passes while the next one is expected to end no later than half a
pass after --seconds (at least one pass).  End-to-end timings are given
at a reference host speed, measured by the gauge kernel of ``gauge.py``.
With ``--trace 1`` the passes alternate untraced and traced, and the
per-layer numbers come from the traced ones.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the environment, every pass and every failed op; the same record
is written to ``benchmarks/out/``.  Exit status is non-zero, with no
result line, when the harness itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0  # a run must end well within 180 s

# pinned in every worker's environment; 1 <= nproc always holds
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class HarnessError(RuntimeError):
    pass


# metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "covqec").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


class Runner:
    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)

    def worker(self, mode, trace=0, spans=None) -> dict:
        a = self.args
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("time limit reached before the run finished")
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--mode", mode, "--trace", str(trace),
               "--spawned-at", repr(spawned)]
        cmd += ["--smoke"] if a.smoke else []
        cmd += ["--inject-fault"] if a.inject_fault else []
        cmd += ["--spans", str(spans)] if spans else []
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                 text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{mode} worker exceeded the time limit") from None
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise HarnessError(f"{mode} worker exited with status {res.returncode}")
        return json.loads(res.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _fastest(passes) -> list:
    """Each op's fastest raw time over the passes (every pass runs the same
    ops in the same order)."""
    return [min(times) for times in zip(*[[op["s"] for op in p["ops"]] for p in passes])]


def _scaled_wall(passes) -> float:
    """One pass's wall time at reference host speed: over its ops, the sum
    of each op's median scaled time across the passes.  The host runs this
    VM up to ~1.5x slower in spells from seconds to minutes, longer than a
    run, so raw times of the same code differ by more than any useful bound
    between two sets of runs; scaling each op by the gauge readings taken
    around it (see gauge.py) cancels the host's speed."""
    per_op = zip(*[[op["scaled_s"] for op in p["ops"]] for p in passes])
    return sum(statistics.median(times) for times in per_op)


def _untraced_op_metrics(passes) -> dict:
    """Per-op timings of the untraced passes, tracing off."""
    ops = passes[0]["ops"]
    best = _fastest(passes)
    shots = sum(op["shots"] for op in ops if op["kind"] == "mc")
    mc_s = sum(t for op, t in zip(ops, best) if op["kind"] == "mc")
    return {
        "mc_shot_us": 1e6 * mc_s / shots if shots else 0.0,
        "fwc_solve_s": _median([t for op, t in zip(ops, best) if op["kind"] == "fwc"]),
        "diamond_solve_ms": 1e3 * _median([t for op, t in zip(ops, best) if op["kind"] == "diamond"]),
    }


def run(args) -> tuple[dict, dict]:
    start = time.monotonic()
    runner = Runner(args, start + TIME_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES)]

    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        trace = 1 if args.trace and len(traced) < len(plain) else 0
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{len(traced)}.json" if trace else None
        p = runner.worker("pass", trace=trace, spans=spans)
        (traced if trace else plain).append(p)
        elapsed = time.monotonic() - t0
        per_pass = elapsed / (len(plain) + len(traced))
        if args.trace and not traced:
            continue
        # start another pass only if it is expected to end no later than
        # half a pass after --seconds
        if elapsed + per_pass / 2 > args.seconds:
            break

    # every op of every pass is an attempt; digests of deterministic
    # results must agree across the passes of one seed
    attempted = failed = 0
    failures = []
    digests: dict = {}
    for k, p in enumerate(plain + traced):
        for op in p["ops"]:
            attempted += 1
            d = op["info"].get("digest")
            first = digests.setdefault(op["name"], d)
            if d != first:
                op["ok"] = False
                op["info"]["digest_mismatch"] = first
            if not op["ok"]:
                failed += 1
                failures.append({"pass": k, "op": op["name"], "info": op["info"]})

    if args.trace:
        metrics = {}
        layers = [p["layers"] for p in traced]
        for name in layers[0]:
            metrics[name] = statistics.median_low([lay[name] for lay in layers])
        metrics.update(_untraced_op_metrics(plain))
        metrics["trace.overhead_s"] = sum(_fastest(traced)) - sum(_fastest(plain))
    else:
        metrics = {
            "scaled_wall_s": _scaled_wall(plain),
            "setup_s": _median([w["scaled_setup_s"] for w in setups + plain]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise HarnessError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "env": dict(plain[0]["env"], **{k: v for k, v in CHILD_ENV.items() if "THREADS" in k}),
        "setup_s": [w["setup_s"] for w in setups + plain + traced],
        "setup_gauge_s": [w["gauge_s"] for w in setups + plain + traced],
        "wall_s": sum(_fastest(plain)),
        "passes": [{"traced": bool(i >= len(plain)), "wall_s": p["wall_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "ops": [{k: op[k] for k in ("name", "s", "gauge_s", "scaled_s", "ok", "warnings")}
                            for op in p["ops"]]}
                   for i, p in enumerate(plain + traced)],
        "digests": digests,
        "failures": failures,
        "fail_frac": failed / attempted,
        "run_s": time.monotonic() - start,
    }
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs of each workload, for the self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="check every op against a wrong expectation, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "covqec" / "__init__.py").is_file():
        print(f"run.py: no covqec sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        details, result = run(args)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = json.dumps(details)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
