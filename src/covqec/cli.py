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


def rows_to_csv(rows, slope: float | None = None) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.n,
                    r.n_p,
                    r.n_r,
                    r.model,
                    r.noise,
                    r.eps_cov,
                    r.upper_bound,
                    r.lower_bound,
                    r.one_minus_fwc,
                    r.runtime_ms,
                    r.seed,
                )
            )
        )
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
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _coerce(raw: str):
    low = raw.lower()
    if low in ("true", "false", "yes", "no"):
        return low in ("true", "yes")
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _apply_config(args: argparse.Namespace, parser_defaults: dict) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    cfg = _load_config(args.config)
    for key, raw in cfg.items():
        if key == "np":
            key = "np_"
        if not hasattr(args, key):
            continue
        # flags given on the command line win over the config file
        if getattr(args, key) != parser_defaults.get(key):
            continue
        setattr(args, key, _coerce(raw))
    return args


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    d = args.d
    lines = []
    if args.model == "weak":
        if args.ne is None or args.np_ is None or args.nr is None:
            print("error: the weak model needs --ne, --np and --nr", file=sys.stderr)
            return 2
        n = args.np_ + args.nr
        t1 = bounds_mod.theorem1_bound(d, args.ne, args.np_, args.nr)
        p1 = bounds_mod.prop1_lower(n, args.ne)
        h = bounds_mod.Hamiltonian.balanced_qubit()
        fisher = bounds_mod.fisher_upper_weak(n, args.ne, h)
        lines.append(("theorem1_upper", t1))
        lines.append(("prop1_lower", p1))
        lines.append(("fisher_upper_weak", fisher))
    elif args.model == "strong":
        if args.pe is None or args.n is None:
            print("error: the strong model needs --pe and --n", file=sys.stderr)
            return 2
        t2 = bounds_mod.theorem2_bound(d, args.pe, args.n, args.alpha)
        p2 = bounds_mod.prop2_lower(args.n, args.pe)
        fisher = bounds_mod.fisher_upper_strong(args.n, 2.0, args.pe)
        lines.append(("theorem2_upper", t2))
        lines.append(("prop2_lower", p2))
        lines.append(("fisher_upper_strong", fisher))
    else:
        print("error: --model must be weak or strong", file=sys.stderr)
        return 2
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
        print("error: --n-grid must be a comma-separated list of integers", file=sys.stderr)
        return 2
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    slope = pr.loglog_slope([r.n for r in rows], [r.one_minus_fwc for r in rows])
    csv_text = rows_to_csv(rows, slope=slope)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}  (slope={slope:.4f})")
        if args.format == "csv+svg":
            svg_path = args.out.rsplit(".", 1)[0] + ".svg"
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
    from .codes import five_qubit_code, trivial_code

    if args.model == "weak":
        if args.ne is None or args.m is None:
            print("error: simulate weak needs --ne and --m", file=sys.stderr)
            return 2
        code = five_qubit_code() if args.np_ == 5 else trivial_code(args.d)
        cfg = pr.ProtocolConfig(
            args.d, "weak", code, n_e=args.ne, m=args.m,
            pattern_dist=args.pattern_dist, mc_samples=args.mc_samples, seed=args.seed,
            quad_order=args.quad_order,
        )
    else:
        if args.pe is None or args.sr is None:
            print("error: simulate strong needs --pe and --sr", file=sys.stderr)
            return 2
        cfg = pr.ProtocolConfig(
            args.d, "strong", trivial_code(args.d), p_e=args.pe, s_r=args.sr,
            mc_samples=args.mc_samples, seed=args.seed, quad_order=args.quad_order,
        )
    rep = pr.effective_channel(cfg)
    print(f"n = {cfg.n}")
    print(f"mixture a = {rep.mixture.a:.10g}")
    print(f"F_ent     = {rep.f_ent:.10g}")
    print(f"eps_cov   = {rep.eps_cov:.10g}  ({rep.eps_cov_method})")
    if args.mc:
        est, err = pr.monte_carlo_epsilon(cfg)
        sig = abs(est - rep.mixture.a) / err if err > 0 else 0.0
        print(f"monte carlo 1-F_ent = {est:.6g} +- {err:.2g}  ({sig:.2f} sigma from quadrature)")
        if sig > 5:
            print("WARNING: Monte Carlo diverges from quadrature by more than 5 sigma", file=sys.stderr)
            return 1
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run(only=args.only, inject_fault=args.inject_fault)
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.module}: {r.name}"
        if not r.passed:
            line += f"  (witness: {r.witness})"
        print(line)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_sdp_check(args) -> int:
    from . import sdp
    from .channels import depolarizing_channel, identity_channel

    rng = np.random.default_rng(args.seed)
    worst_gap = 0.0
    for p in (0.1, 0.4, 0.8):
        f = sdp.sqrt_fwc(identity_channel(2).choi(), depolarizing_channel(p).choi())
        print(f"sqrt_fwc(identity, depolarizing {p}) = {f:.10f}  (closed form {np.sqrt(1-3*p/4):.10f})")
        worst_gap = max(worst_gap, abs(f - np.sqrt(1 - 3 * p / 4)))
    if worst_gap > 1e-6:
        print(f"FIDELITY GAP {worst_gap:.2e} exceeds 1e-6")
        return 1
    from .verify import _random_channel

    for _ in range(args.pairs):
        a, b = _random_channel(rng, 2), _random_channel(rng, 2)
        eps = sdp.diamond_error(a.choi(), b.choi())
        from .channels import entanglement_error

        lo = entanglement_error(a, b)
        if not (lo - 1e-6 <= eps <= 2 * lo + 1e-6):
            print(f"BRACKET VIOLATION: eps={eps} eps_ent={lo}")
            return 1
    print(f"diamond brackets verified on {args.pairs} random pairs; worst fidelity gap {worst_gap:.2e}")
    return 0


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
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--config", type=str, default=None, help="key=value config file")

    p_bounds = sub.add_parser("bounds", help="print every applicable analytic bound")
    common(p_bounds)
    p_bounds.add_argument("--model", choices=["weak", "strong"], required=True)
    p_bounds.add_argument("--ne", type=int, default=None)
    p_bounds.add_argument("--np", dest="np_", type=int, default=None)
    p_bounds.add_argument("--nr", type=int, default=None)
    p_bounds.add_argument("--pe", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--alpha", type=float, default=0.1)
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="bounds and reference-error proxy over a grid of n")
    common(p_sweep)
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

    p_sim = sub.add_parser("simulate", help="effective channel of one configuration")
    common(p_sim)
    p_sim.add_argument("--model", choices=["weak", "strong"], required=True)
    p_sim.add_argument("--ne", type=int, default=None)
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--pe", type=float, default=None)
    p_sim.add_argument("--sr", type=int, default=None)
    p_sim.add_argument("--np", dest="np_", type=int, default=5)
    p_sim.add_argument("--pattern-dist", dest="pattern_dist", default="uniform_le",
                       choices=["uniform_le", "exact_ne", "none"])
    p_sim.add_argument("--quad-order", dest="quad_order", type=int, default=None)
    p_sim.add_argument("--mc", action="store_true", help="run the Monte Carlo cross-check")
    p_sim.add_argument("--mc-samples", dest="mc_samples", type=int, default=20000)
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the module invariant suites at CI scale")
    common(p_verify)
    p_verify.add_argument("--only", type=str, default=None,
                          help="restrict to one module (rep, refframe, channels, sdp, codes, protocol, bounds)")
    p_verify.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                          help=argparse.SUPPRESS)  # test hook
    p_verify.set_defaults(func=cmd_verify)

    p_sdp = sub.add_parser("sdp-check", help="quick SDP cross-validation battery")
    common(p_sdp)
    p_sdp.add_argument("--pairs", type=int, default=20)
    p_sdp.set_defaults(func=cmd_sdp_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = {
        a.dest: a.default
        for sp in parser._subparsers._group_actions
        for a in sp.choices[args.command]._actions
    }
    args = _apply_config(args, defaults)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
