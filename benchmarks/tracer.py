"""Span tracing of covqec's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each covqec module (the
names in ``__all__``, or the public functions of a module without one),
plus two private entry points that the per-layer metrics need:
``refframe._density_su2`` (traced as ``refframe.density``) and the
``KrausChannel.choi`` method (traced as ``channels.choi``).

A wrapper replaces the function wherever a caller looks the name up, not
only in the defining module: ``protocol`` binds ``haar_quadrature_su2``
and ``twirl_to_covariant`` by name at import, and ``refframe`` binds
``haar_su2``.  Missing one of those would silently report 0 s, which the
worker's expected-layer check catches.

Each wrapped call records one span ``[name, start, end, parent, op,
extra]``.  Spans stay in memory and are written out once the pass ends.
A span's self time is its duration minus that of its direct children;
calls are strictly nested in this single-threaded process, so the
children cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("young", "channels", "sdp", "refframe", "codes", "protocol", "bounds", "verify", "cli")

# (module, attribute, span name) for the private entry points traced too
PRIVATE_TARGETS = (("refframe", "_density_su2", "refframe.density"),)
METHOD_TARGETS = (("channels", "KrausChannel", "choi", "channels.choi"),)


def _inner_channel(args, kwargs, result):
    diag = result[1]
    return {"order": diag["quad_order"], "drift": abs(diag["normalization"] - 1.0)}


def _solve(args, kwargs, result):
    inst = args[0] if args else kwargs["instance"]
    return {"iterations": result.iterations, "status": result.status,
            "constraints": len(inst._constraints)}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# per-span extras, computed from the call's arguments and result
EXTRAS = {
    "protocol.inner_channel": _inner_channel,
    "refframe.density": lambda a, k, r: {"points": int(getattr(_arg(a, k, 1, "theta"), "size", 1))},
    "channels.haar_su2": lambda a, k, r: {"n": int(_arg(a, k, 1, "size"))},
    "refframe.sample_relative_rotations": lambda a, k, r: {"n": int(_arg(a, k, 1, "n_samples"))},
    "protocol.monte_carlo_epsilon": lambda a, k, r: {
        "shots": _arg(a, k, 0, "config").mc_samples, "sigma": r[1]},
    "sdp.solve": _solve,
    "channels.compose": lambda a, k, r: {"kraus_out": len(r.kraus)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.op = -1
        self._stack: list = []
        self._depth: dict = {}
        self.installed: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"covqec.{name}") for name in LAYERS}
        homes = list(mods.values()) + [importlib.import_module("covqec")]
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if not n.startswith("_") and callable(v) and getattr(v, "__module__", "") == mod.__name__
            ]
            for attr in names:
                obj = getattr(mod, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                self._replace(homes, obj, self.wrap(f"{short}.{attr}", obj))
        for short, attr, span_name in PRIVATE_TARGETS:
            obj = getattr(mods[short], attr, None)
            if obj is not None:
                self._replace(homes, obj, self.wrap(span_name, obj))
        for short, cls_name, meth, span_name in METHOD_TARGETS:
            cls = getattr(mods[short], cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))

    @staticmethod
    def _replace(homes, obj, wrapper) -> None:
        for mod in homes:
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    setattr(mod, attr, wrapper)

    def wrap(self, name, fn):
        self.installed.add(name)
        extra = EXTRAS.get(name)
        spans, stack, depths = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            depth = depths.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            depths[name] = depth + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"error": True}
                raise
            finally:
                span[2] = clock()
                stack.pop()
                depths[name] = depth
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def stack_layers(self) -> set:
        """Modules of the spans open right now."""
        return {self.spans[i][0].split(".")[0] for i in self._stack}

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra", "outermost"],
                       "spans": self.spans}, fh)


def aggregate(spans) -> dict:
    """Per-name calls, inclusive seconds (outermost calls only) and self seconds."""
    agg: dict = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    for i, s in enumerate(spans):
        a = agg.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s[2] - s[1]
        a["calls"] += 1
        a["self_s"] += dur - child_time[i]
        if s[6]:
            a["s"] += dur
    return agg


def layer_metrics(spans, ops) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def extras(name):
        return [s[5] for s in spans if s[0] == name and s[5] and "error" not in s[5]]

    inner = extras("protocol.inner_channel")
    nodes = sum(4 * e["order"] ** 3 for e in inner)
    inner_self = get("protocol.inner_channel", "self_s")
    mc = extras("protocol.monte_carlo_epsilon")
    shots = sum(e["shots"] for e in mc)
    samplers = {i for i, s in enumerate(spans) if s[0] == "refframe.sample_relative_rotations"}
    proposals = sum(s[5]["n"] for s in spans if s[0] == "channels.haar_su2" and s[3] in samplers)
    accepted = sum(e["n"] for e in extras("refframe.sample_relative_rotations"))
    solves = extras("sdp.solve")
    iterations = sum(e["iterations"] for e in solves)
    fwc = {i for i, s in enumerate(spans) if s[0] == "sdp.sqrt_fwc" and not s[5]}
    fwc_solves = [s for s in spans if s[0] == "sdp.solve" and s[3] in fwc]
    rescued = sum(1 for s in fwc_solves if s[5] and s[5]["status"] != "optimal")
    cert_s = sum(spans[i][2] - spans[i][1] for i in fwc) - sum(s[2] - s[1] for s in fwc_solves)
    fwc_errs = [o["info"]["fwc_err"] for o in ops if "fwc_err" in o.get("info", {})]

    return {
        "protocol.inner_channel.calls": get("protocol.inner_channel", "calls"),
        "protocol.inner_channel.self_s": inner_self,
        "protocol.quad_nodes": nodes,
        "protocol.inner_channel.ns_per_node": 1e9 * inner_self / nodes if nodes else 0.0,
        "protocol.quad_order_max": max((e["order"] for e in inner), default=0),
        "protocol.norm_drift_max": max((e["drift"] for e in inner), default=0.0),
        "refframe.density.calls": get("refframe.density", "calls"),
        "refframe.density.points": sum(e["points"] for e in extras("refframe.density")),
        "refframe.density.s": get("refframe.density", "s"),
        "channels.haar_quadrature_su2.s": get("channels.haar_quadrature_su2", "s"),
        "protocol.effective_channel.calls": get("protocol.effective_channel", "calls"),
        "protocol.effective_channel.s": get("protocol.effective_channel", "s"),
        "protocol.monte_carlo_epsilon.self_s": get("protocol.monte_carlo_epsilon", "self_s"),
        "protocol.mc_shots": shots,
        "protocol.mc_us_per_shot": 1e6 * get("protocol.monte_carlo_epsilon", "s") / shots if shots else 0.0,
        "protocol.mc_sigma_max": max((e["sigma"] for e in mc), default=0.0),
        "refframe.sample_relative_rotations.calls": get("refframe.sample_relative_rotations", "calls"),
        "refframe.sample_relative_rotations.s": get("refframe.sample_relative_rotations", "s"),
        "refframe.proposals": proposals,
        "refframe.accept_ratio": accepted / proposals if proposals else 0.0,
        "refframe.strong_combined_spec.calls": get("refframe.strong_combined_spec", "calls"),
        "refframe.strong_combined_spec.s": get("refframe.strong_combined_spec", "s"),
        "young.schur_weyl_prob.calls": get("young.schur_weyl_prob", "calls"),
        "young.schur_weyl_prob.s": get("young.schur_weyl_prob", "s"),
        "sdp.solve.calls": get("sdp.solve", "calls"),
        "sdp.solve.s": get("sdp.solve", "s"),
        "sdp.solve.iterations": iterations,
        "sdp.solve.s_per_iter": get("sdp.solve", "s") / iterations if iterations else 0.0,
        "sdp.solve.non_optimal": sum(1 for e in solves if e["status"] != "optimal"),
        "sdp.solve.constraints_max": max((e["constraints"] for e in solves), default=0),
        "sdp.sqrt_fwc.calls": get("sdp.sqrt_fwc", "calls"),
        "sdp.sqrt_fwc.rescued": rescued,
        "sdp.sqrt_fwc.cert_s": cert_s,
        "sdp.fwc_err_max": max(fwc_errs, default=0.0),
        "sdp.numeric_warnings": sum(o["sdp_warnings"] for o in ops),
        "sdp.diamond_error.calls": get("sdp.diamond_error", "calls"),
        "sdp.diamond_error.s": get("sdp.diamond_error", "s"),
        "codes.code_error.calls": get("codes.code_error", "calls"),
        "codes.code_error.self_s": get("codes.code_error", "self_s"),
        "codes.erase.s": get("codes.erase", "s"),
        "codes.erasure_recovery.s": get("codes.erasure_recovery", "s"),
        "codes.recovery_parts.calls": get("codes.recovery_parts", "calls"),
        "codes.recovery_parts.s": get("codes.recovery_parts", "s"),
        "channels.compose.calls": get("channels.compose", "calls"),
        "channels.compose.kraus_out": sum(e["kraus_out"] for e in extras("channels.compose")),
        "channels.compose.s": get("channels.compose", "s"),
        "channels.choi.s": get("channels.choi", "s"),
        "channels.entanglement_error.s": get("channels.entanglement_error", "s"),
        "trace.spans": len(spans),
    }
