"""One benchmark process: set a workload up, run one pass of it, report.

Started by run.py, once per pass, so that every pass starts cold the way a
CLI invocation does (young's lru_caches, numpy's lazy state).  Prints one
JSON object on stdout and exits 0; a non-zero exit means the harness
itself failed (bad arguments, the wrong covqec on the path, a traced
layer that recorded no calls).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_ops(workload, tracer, offset) -> list:
    """Run the workload's ops back to back, each checked by its oracle.

    The gauge kernel runs before the first op and after every op, outside
    the timed region and with tracing off; each record's ``gauge_s`` is
    the mean of the readings just before and just after its op."""
    from gauge import REF_S, gauge

    records = []
    state: dict = {}
    before = gauge()
    for i, op in enumerate(workload.ops):
        rec = {"name": op.name, "kind": op.kind, "shots": op.shots}
        # RuntimeWarnings raised by the op, and the layers on the traced
        # call stack when each was raised
        raised: list = []

        def on_warning(message, category, *rest):
            if issubclass(category, RuntimeWarning):
                raised.append(tracer.stack_layers() if tracer is not None else set())

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = on_warning
            if tracer is not None:
                tracer.op, tracer.enabled = i, True
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raising op is a failed op, not a harness error
                result, error = None, f"{type(exc).__name__}: {exc}"
            rec["s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        after = gauge()
        rec["gauge_s"] = (before + after) / 2
        rec["scaled_s"] = rec["s"] * REF_S / rec["gauge_s"]
        before = after
        rec["warnings"] = len(raised)
        rec["sdp_warnings"] = sum(1 for layers in raised if "sdp" in layers)
        if error is None:
            try:
                ok, info = op.check(result, state, offset)
            except Exception as exc:
                ok, info = False, {"check_error": f"{type(exc).__name__}: {exc}"}
        else:
            ok, info = False, {"error": error}
        rec["ok"], rec["info"] = bool(ok), info
        records.append(rec)
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", help="file to write the traced pass's spans to")
    args = ap.parse_args()

    import covqec

    if Path(covqec.__file__).resolve().parent != ROOT / "src" / "covqec":
        print(f"worker: covqec imported from {covqec.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.REGISTRY:
        print(f"worker: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.REGISTRY)}", file=sys.stderr)
        return 2
    workload = workloads.REGISTRY[args.workload](args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    from gauge import REF_S, gauge

    # the host's speed just after set-up
    gauge_s = gauge()
    out = {"setup_s": setup_s, "gauge_s": gauge_s, "scaled_setup_s": setup_s * REF_S / gauge_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    offset = workloads.FAULT_OFFSET if args.inject_fault else 0.0
    ops = _run_ops(workload, tracer, offset)
    out.update(
        wall_s=sum(r["s"] for r in ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=ops,
        env=_env(),
    )
    if tracer is not None:
        from tracer import aggregate, layer_metrics

        calls = aggregate(tracer.spans)
        # a layer the program no longer defines is not installed, so not expected
        missing = [name for name in workload.expected_layers
                   if name in tracer.installed and name not in calls]
        if missing:
            print(f"worker: traced layers recorded no calls on {args.workload}: "
                  f"{', '.join(missing)} (wrapper not installed where the caller looks it up?)",
                  file=sys.stderr)
            return 3
        out["layers"] = layer_metrics(tracer.spans, ops)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
