"""Command line interface: bounds, sweep, simulate, verify, sdp-check.

Outputs are plain CSV (UTF-8, comma separated, LF line endings) with a
fixed header and `#`-prefixed footer comments, plus optional minimal SVG
log-log plots.  All randomness flows from an explicit seed, and by default
the runtime column is zeroed so that reruns with the same seed produce
byte-identical files; pass --timing to record wall-clock times instead.

Precedence for options: command-line flags beat the key=value config file
(--config), which beats built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod

CSV_COLUMNS = [
    "n",
    "n_P",
    "n_R",
    "model",
    "noise",
    "eps_cov",
    "upper_bound",
    "lower_bound",
    "one_minus_Fwc",
    "runtime_ms",
    "seed",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def rows_to_csv(rows, slope: float | None = None, eps_cov_slope: float | None = None) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in dataclasses.astuple(r)))
    if eps_cov_slope is not None:
        lines.append(f"# eps_cov_slope={eps_cov_slope:.12g}")
    if slope is not None:
        lines.append(f"# slope={slope:.12g}")
    return "\n".join(lines) + "\n"


def svg_loglog(xs, ys, title: str) -> str:
    """Minimal standalone log-log polyline plot."""
    w, h, pad = 480, 320, 45
    lx, ly = np.log10(np.asarray(xs, float)), np.log10(np.asarray(ys, float))
    x0, x1 = float(lx.min()), float(lx.max())
    y0, y1 = float(ly.min()), float(ly.max())
    sx = lambda v: pad + (v - x0) / max(x1 - x0, 1e-12) * (w - 2 * pad)
    sy = lambda v: h - pad - (v - y0) / max(y1 - y0, 1e-12) * (h - 2 * pad)
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="black"/>')
    parts.append(
        f'<text x="{w/2:.0f}" y="{h-8}" text-anchor="middle" font-size="11">log10 n</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            out["np_" if key == "np" else key] = _coerce(val.strip())
    return out


def _coerce(raw: str):
    """A boolean word as a bool (for switches such as simulate=true); any
    other value stays a string, which argparse converts or rejects by the
    option's type, as it does a command-line value."""
    low = raw.lower()
    if low in ("true", "false", "yes", "no"):
        return low in ("true", "yes")
    return raw


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# the destinations of the flags that only one --model reads, per subcommand
_MODEL_ONLY = {
    "bounds": {"weak": ("ne", "np_", "nr"), "strong": ("pe", "n", "alpha")},
    "sweep": {"weak": ("ne",), "strong": ("pe",)},
    "simulate": {"weak": ("ne", "m", "pattern_dist"), "strong": ("pe", "sr")},
}


def cmd_bounds(args) -> int:
    d = args.d
    if args.model == "weak" and None in (args.ne, args.np_, args.nr):
        return _usage_error("the weak model needs --ne, --np and --nr")
    if args.model == "strong" and None in (args.pe, args.n):
        return _usage_error("the strong model needs --pe and --n")
    try:
        if args.model == "weak":
            n = args.np_ + args.nr
            h = bounds_mod.Hamiltonian.balanced_qubit()
            lines = [
                ("theorem1_upper", bounds_mod.theorem1_bound(d, args.ne, args.np_, args.nr)),
                ("prop1_lower", bounds_mod.prop1_lower(n, args.ne)),
                ("fisher_upper_weak", bounds_mod.fisher_upper_weak(n, args.ne, h)),
            ]
        else:
            lines = [
                ("theorem2_upper", bounds_mod.theorem2_bound(
                    d, args.pe, args.n, 0.1 if args.alpha is None else args.alpha)),
                ("prop2_lower", bounds_mod.prop2_lower(args.n, args.pe)),
                ("fisher_upper_strong", bounds_mod.fisher_upper_strong(args.n, 2.0, args.pe)),
            ]
    except ValueError as exc:
        return _usage_error(str(exc))
    out = []
    for name, rep in lines:
        flags = []
        if rep.asymptotic_terms_dropped:
            flags.append("asymptotic-terms-dropped")
        flags.append("preconditions-met" if rep.preconditions_met else "preconditions-UNCERTIFIED")
        out.append(f"{name} = {rep.value:.12g}  [{'; '.join(flags)}]" + (f"  ({rep.note})" if rep.note else ""))
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0


def cmd_sweep(args) -> int:
    from . import protocol as pr

    try:
        grid = [int(x) for x in args.n_grid.split(",")]
    except ValueError:
        return _usage_error("--n-grid must be a comma-separated list of integers")
    if len(set(grid)) < 2:
        return _usage_error("--n-grid needs at least two distinct points to fit a slope")
    if args.format == "csv+svg" and not args.out:
        return _usage_error("--format csv+svg needs --out, which names the SVG too")
    try:
        rows = pr.scaling_sweep(
            args.model,
            grid,
            n_p=args.np_,
            n_e=args.ne if args.ne is not None else 1,
            p_e=args.pe if args.pe is not None else 0.2,
            d=args.d,
            seed=args.seed,
            simulate=args.simulate,
            timing=args.timing,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    ns = [r.n for r in rows]
    slope = pr.loglog_slope(ns, [r.one_minus_fwc for r in rows])
    eps_slope = pr.loglog_slope(ns, [r.eps_cov for r in rows]) if args.simulate else None
    csv_text = rows_to_csv(rows, slope=slope, eps_cov_slope=eps_slope)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}  (slope={slope:.4f})")
        if args.format == "csv+svg":
            svg_path = os.path.splitext(args.out)[0] + ".svg"
            with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(
                    svg_loglog(
                        [r.n for r in rows],
                        [r.one_minus_fwc for r in rows],
                        f"{args.model} reference error, slope {slope:.3f}",
                    )
                )
            print(f"wrote {svg_path}")
    else:
        print(csv_text, end="")
    return 0


def cmd_simulate(args) -> int:
    from . import protocol as pr

    if args.model == "weak":
        if args.ne is None or args.m is None:
            return _usage_error("simulate weak needs --ne and --m")
        model_args = dict(n_e=args.ne, m=args.m, pattern_dist=args.pattern_dist or "uniform_le")
    else:
        if args.pe is None or args.sr is None:
            return _usage_error("simulate strong needs --pe and --sr")
        model_args = dict(p_e=args.pe, s_r=args.sr)
    try:
        cfg = pr.ProtocolConfig(
            2, args.model, pr._code_for_np(args.np_), mc_samples=args.mc_samples,
            seed=args.seed, **model_args,
        )
        rep = pr.effective_channel(cfg)
        mc = pr.monte_carlo_epsilon(cfg) if args.mc else None
    except ValueError as exc:
        return _usage_error(str(exc))
    print(f"n = {cfg.n}")
    print(f"mixture a = {rep.mixture.a:.10g}")
    print(f"F_ent     = {1.0 - rep.mixture.a:.10g}")
    print(f"eps_cov   = {rep.eps_cov:.10g}  (diamond-sdp)")
    if mc is not None:
        est, err = mc
        # the error is floored at 1e-12, as in verify: round-off is no signal
        sig = abs(est - rep.mixture.a) / max(err, 1e-12)
        print(f"monte carlo 1-F_ent = {est:.6g} +- {err:.2g}  ({sig:.2f} sigma from the exact channel)")
        if sig > 5:
            print("WARNING: Monte Carlo diverges from the exact channel by more than 5 sigma", file=sys.stderr)
            return 1
    return 0


def _report(results) -> int:
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.module}: {r.name}"
        if not r.passed:
            line += f"  (witness: {r.witness})"
        print(line)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_verify(args) -> int:
    try:
        results = verify_mod.run(only=args.only)
    except ValueError as exc:
        return _usage_error(str(exc))
    return _report(results)


def cmd_sdp_check(args) -> int:
    if args.pairs < 0:
        return _usage_error("--pairs must be non-negative")
    return _report(verify_mod.sdp_checks(args.pairs, args.seed))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covqec",
        description="Covariant erasure codes from quantum reference frames: bounds, sweeps and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.set_defaults(subparser=p)

    # --d and --seed only on the subcommands that read them
    p_bounds = sub.add_parser("bounds", help="print every applicable analytic bound")
    common(p_bounds)
    p_bounds.add_argument("--d", type=int, default=2)
    p_bounds.add_argument("--model", choices=["weak", "strong"], required=True)
    p_bounds.add_argument("--ne", type=int, default=None)
    p_bounds.add_argument("--np", dest="np_", type=int, default=None)
    p_bounds.add_argument("--nr", type=int, default=None)
    p_bounds.add_argument("--pe", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--alpha", type=float, default=None, help="theorem 2's alpha (default 0.1)")
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="bounds and reference-error proxy over a grid of n")
    common(p_sweep)
    p_sweep.add_argument("--d", type=int, default=2)
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument("--model", choices=["weak", "strong"], required=True)
    p_sweep.add_argument("--n-grid", dest="n_grid", type=str, required=True)
    p_sweep.add_argument("--ne", type=int, default=None)
    p_sweep.add_argument("--pe", type=float, default=None)
    p_sweep.add_argument("--np", dest="np_", type=int, default=5)
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.add_argument("--format", choices=["csv", "csv+svg"], default="csv")
    p_sweep.add_argument("--simulate", action="store_true")
    p_sweep.add_argument("--timing", action="store_true",
                         help="record wall-clock runtimes (breaks byte determinism)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="effective channel of one configuration (d = 2)")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--model", choices=["weak", "strong"], required=True)
    p_sim.add_argument("--ne", type=int, default=None, help="erasures; 0 is the erasure-free channel")
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--pe", type=float, default=None)
    p_sim.add_argument("--sr", type=int, default=None)
    p_sim.add_argument("--np", dest="np_", type=int, default=5)
    p_sim.add_argument("--pattern-dist", dest="pattern_dist", default=None,
                       choices=["uniform_le", "exact_ne"], help="weak erasure law (default uniform_le)")
    p_sim.add_argument("--mc", action="store_true", help="run the Monte Carlo cross-check")
    p_sim.add_argument("--mc-samples", dest="mc_samples", type=int, default=20000)
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the module invariant suites at CI scale")
    common(p_verify)
    p_verify.add_argument("--only", type=str, default=None,
                          help="restrict to one module (rep, refframe, channels, sdp, codes, protocol, bounds)")
    p_verify.set_defaults(func=cmd_verify)

    p_sdp = sub.add_parser("sdp-check", help="the verify SDP battery, on --pairs random pairs from --seed")
    common(p_sdp)
    p_sdp.add_argument("--seed", type=int, default=7)
    p_sdp.add_argument("--pairs", type=int, default=20)
    p_sdp.set_defaults(func=cmd_sdp_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # checked before --config is read: one file may hold both models' keys
    for model, dests in _MODEL_ONLY.get(args.command, {}).items():
        given = [dest for dest in dests if model != args.model and getattr(args, dest) is not None]
        if given:
            flag = "--" + given[0].rstrip("_").replace("_", "-")
            return _usage_error(f"{flag} is not read by --model {args.model}")
    if args.config:
        # the file becomes the subcommand's defaults, so every flag given on
        # the command line still wins; keys the subcommand lacks are ignored
        try:
            cfg = _load_config(args.config)
        except OSError as exc:
            return _usage_error(f"cannot read --config: {exc}")
        args.subparser.set_defaults(**{k: v for k, v in cfg.items() if k in vars(args)})
        args = parser.parse_args(argv)
    # checked before the work, so that a sweep does not run only to fail on its write
    folder = os.path.dirname(getattr(args, "out", None) or "")
    if folder and not os.path.isdir(folder):
        return _usage_error(f"--out: directory {folder} does not exist")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`covqec ... | head -1`); point stdout at
        # devnull so that the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
