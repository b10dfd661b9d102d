"""The four benchmark workloads: seeded inputs, ops and per-op oracles.

Every workload is one closed loop with one client: the worker issues its
ops back to back, each only after the previous one has returned.  A
workload's inputs come from its seed alone; the program under test sees
only the generated inputs (configs, Choi matrices, erasure patterns).

Each op's result is checked against an oracle that does not share the
code path it checks, so a faster wrong answer counts as a failed op.

Why these four (each stresses a different layer):

* weak-channel - the m^3 quadrature path of ``simulate`` / ``sweep
  --simulate``: ``protocol.inner_channel`` takes nearly all of it.  Both
  pattern distributions share every inner channel, so a cross-config
  cache would show here.
* monte-carlo - the per-shot Python loop of ``monte_carlo_epsilon``, the
  rejection sampler and the per-shot ``strong_combined_spec`` rebuild,
  each checked against its exact channel.  The strong exact channel calls
  ``inner_channel`` many times at low order instead of a few times at
  high order.
* fidelity-sdp - the unattained worst-case-fidelity program of criterion
  9 (every solve ends on the certificate path) and the attained diamond
  program.  ``protocol`` is not touched.
* code-error - ``codes.code_error`` on every 1-, 2- and 3-erasure pattern
  of the five-qubit code: the only path through the flagged
  ``erase``/``erasure_recovery``/``compose`` algebra.

Sizes: a pass takes 3-6 s and no op more than ~2 s, so that every op
repeats at least three times in a 25 s run (see ``run._scaled_wall``).  That
is why weak-channel stops at m = 8 (m = 12 and 16 take 1.7 s and 3.6 s
per call) and fidelity-sdp has no blocks-[1, 3] instance (513 Schur rows,
12-16 s per solve).

Left out on purpose:

* the tier-1 test suite (~390 s per run) cannot be repeated 22 times per
  check;
* ``sweep`` without ``--simulate`` and ``bounds`` are milliseconds of
  closed forms;
* ``verify`` runs the same layers at CI scale;
* Young's LR and tensor decomposition: the strong proxy sweep up to
  n = 125 costs 0.38 s cold, and the documented weak ``--simulate`` grid
  (m = 49..289) is infeasible on the quadrature path.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from covqec import bounds, channels, codes, protocol, sdp, young

# With --inject-fault every check compares the program's output plus this
# offset against its reference, an error every oracle must catch.
FAULT_OFFSET = 1.0


@dataclass
class Op:
    """One request of the closed loop.

    ``run`` is the timed call into the program.  ``check(result, state,
    offset)`` is the untimed oracle; it returns ``(ok, info)`` and may
    leave values in ``state`` for the checks of later ops of the pass.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict, float], tuple[bool, dict]]
    shots: int = 0


@dataclass
class Workload:
    ops: list
    # wrappers that must record calls in a traced pass (see tracer.py)
    expected_layers: tuple = ()


def _digest(values) -> str:
    return hashlib.sha256(repr([float(v) for v in values]).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# weak-channel
# ---------------------------------------------------------------------------

def _check_weak_report(rep, offset):
    """eps_cov = a in closed form, and the weak-model bound sandwich."""
    cfg = rep.config
    eps = rep.eps_cov + offset
    lower = bounds.prop1_lower(cfg.n, cfg.n_e).value
    upper = bounds.theorem1_bound(cfg.d, cfg.n_e, cfg.code.n_p, cfg.n - cfg.code.n_p).value
    ok = abs(eps - rep.mixture.a) <= 1e-6 and lower <= eps and (upper >= 1 or eps <= upper)
    info = {
        "a": rep.mixture.a,
        "eps_cov": rep.eps_cov,
        "digest": _digest([rep.mixture.a] + [t.params.a for t in rep.terms]),
    }
    return ok, info


def weak_channel(seed: int, smoke: bool) -> Workload:
    code = codes.five_qubit_code()
    grid = [(8, "exact_ne")] if smoke else list(
        itertools.product((4, 8), ("exact_ne", "uniform_le"))
    )
    order = np.random.default_rng(seed).permutation(len(grid))
    ops = []
    for i in order:
        m, dist = grid[i]
        cfg = protocol.ProtocolConfig(2, "weak", code, n_e=1, m=m, pattern_dist=dist, seed=seed)
        ops.append(Op(
            f"effective_channel:m={m}:{dist}", "channel",
            run=lambda cfg=cfg: protocol.effective_channel(cfg),
            check=lambda rep, state, offset: _check_weak_report(rep, offset),
        ))
    return Workload(ops, expected_layers=(
        "protocol.effective_channel", "protocol.inner_channel", "refframe.density",
        "channels.haar_quadrature_su2", "channels.twirl_to_covariant",
        "codes.recovery_parts", "sdp.solve", "sdp.diamond_error",
    ))


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

def _check_exact(label):
    def check(rep, state, offset):
        cfg = rep.config
        eps = rep.eps_cov + offset
        if cfg.model == "weak":
            ok, info = _check_weak_report(rep, offset)
        else:
            lower = bounds.prop2_lower(cfg.n, cfg.p_e).value
            ok = abs(eps - rep.mixture.a) <= 1e-6 and lower <= eps
            info = {"a": rep.mixture.a, "eps_cov": rep.eps_cov}
        state[label] = rep.mixture.a
        return ok, info
    return check


def _check_mc(label):
    def check(result, state, offset):
        est, sigma = result
        a = state.get(label)
        ok = a is not None and sigma > 0 and abs(est + offset - a) <= 5 * sigma
        return ok, {"estimate": est, "sigma": sigma, "a": a}
    return check


def monte_carlo(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    weak_seed, strong_seed = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    shots_weak, shots_strong = (40, 160) if smoke else (300, 2000)
    weak = protocol.ProtocolConfig(
        2, "weak", codes.five_qubit_code(), n_e=1, m=8, pattern_dist="exact_ne",
        mc_samples=shots_weak, seed=weak_seed,
    )
    strong = protocol.ProtocolConfig(
        2, "strong", codes.trivial_code(2), p_e=0.2, s_r=6,
        mc_samples=shots_strong, seed=strong_seed,
    )
    ops = []
    for label, cfg in (("weak", weak), ("strong", strong)):
        ops.append(Op(f"effective_channel:{label}", "channel",
                      run=lambda cfg=cfg: protocol.effective_channel(cfg),
                      check=_check_exact(label)))
        ops.append(Op(f"monte_carlo_epsilon:{label}", "mc",
                      run=lambda cfg=cfg: protocol.monte_carlo_epsilon(cfg),
                      check=_check_mc(label), shots=cfg.mc_samples))
    return Workload(ops, expected_layers=(
        "protocol.effective_channel", "protocol.inner_channel", "protocol.monte_carlo_epsilon",
        "refframe.sample_relative_rotations", "refframe.strong_combined_spec",
        "young.schur_weyl_prob", "channels.haar_su2", "refframe.density",
    ))


# ---------------------------------------------------------------------------
# fidelity-sdp
# ---------------------------------------------------------------------------

def _block_unitary(u):
    """The SU(2) representation 1 (+) u on C^3 (blocks [1, 2])."""
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = 1.0
    out[1:, 1:] = u
    return out


def _block_covariant_choi(w0, order=8):
    """Choi of int du p(u) V(u) . V(u)^dag with V = 1 (+) u and the class
    density p = |sqrt(w0) chi_0 + sqrt(1 - w0) chi_1|^2; exact at this
    quadrature order."""
    quad = channels.haar_quadrature_su2(order)
    us = quad.matrices()
    theta = channels.su2_eigenphase(us)
    amp = np.sqrt(w0) * young.su2_character(0, theta) + np.sqrt(1 - w0) * young.su2_character(1, theta)
    vecs = np.stack([_block_unitary(u).reshape(-1) for u in us])
    j = np.einsum("n,na,nb->ab", quad.weights * np.abs(amp) ** 2, vecs, vecs.conj())
    return channels.ChoiMatrix(3, 3, j / 3)


def _random_channel(rng, d=2, n_kraus=3):
    a = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(a)
    return channels.KrausChannel(d, d, [q[i * d:(i + 1) * d, :] for i in range(n_kraus)])


def fidelity_sdp(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    # blocks [1, 2] (163 Schur rows) at a fixed grid of weights w_0 on the
    # trivial block: the solver's iteration count jumps erratically with
    # w_0 (62..200 over [0.05, 0.95]), so random weights would make every
    # run's cost a lottery.  The seed draws the diamond pairs, the symmetry
    # samples of the oracle and nothing else.
    ident = channels.identity_channel(3).choi()
    ops = []
    for w0 in (0.5,) if smoke else (1 / 3, 2 / 3):
        choi = _block_covariant_choi(w0)
        syms = [_block_unitary(v) for v in channels.haar_su2(rng, 2)]

        def check(value, state, offset, choi=choi, syms=syms):
            ref = sdp.restricted_fwc([1, 2], choi, symmetry_samples=syms, n_restarts=25)
            err = abs((value + offset) ** 2 - ref)
            return err < 1e-5, {"sqrt_fwc": value, "restricted": ref, "fwc_err": err}

        ops.append(Op(f"sqrt_fwc:w0={w0:.4f}", "fwc",
                      run=lambda choi=choi: sdp.sqrt_fwc(ident, choi), check=check))
    n_pairs = 2 if smoke else 10
    for k in range(n_pairs):
        a, b = _random_channel(rng), _random_channel(rng)
        ca, cb = a.choi(), b.choi()

        def check(value, state, offset, a=a, b=b):
            lo = channels.entanglement_error(a, b)
            v = value + offset
            return lo - 1e-6 <= v <= 2 * lo + 1e-6, {"diamond": value, "eps_ent": lo}

        ops.append(Op(f"diamond_error:pair{k}", "diamond",
                      run=lambda ca=ca, cb=cb: sdp.diamond_error(ca, cb), check=check))
    return Workload(ops, expected_layers=(
        "sdp.sqrt_fwc", "sdp.solve", "sdp.diamond_error",
    ))


# ---------------------------------------------------------------------------
# code-error
# ---------------------------------------------------------------------------

def code_error(seed: int, smoke: bool) -> Workload:
    code = codes.five_qubit_code()
    patterns = [p for k in (1, 2, 3) for p in itertools.combinations(range(code.n_p), k)]
    if smoke:
        patterns = [(0,), (0, 1), (0, 1, 2)]
    order = np.random.default_rng(seed).permutation(len(patterns))
    ident = channels.identity_channel(code.d).choi()
    ops = []
    for i in order:
        pattern = patterns[i]

        def check(value, state, offset, pattern=pattern):
            # eps_ent of the same composite through the survivor-space maps,
            # which share no code with the flagged erase/compose algebra
            perfect = protocol.inner_channel_perfect(code, pattern)
            lo = channels.entanglement_error(perfect, ident)
            v = value + offset
            ok = (v <= 1e-8) if len(pattern) < code.distance else (v > 0.1)
            ok = ok and lo - 1e-6 <= v <= code.d * lo + 1e-6
            return ok, {"code_error": value, "eps_ent": lo}

        ops.append(Op(f"code_error:{','.join(map(str, pattern))}", "code",
                      run=lambda pattern=pattern: codes.code_error(code, set(pattern)),
                      check=check))
    return Workload(ops, expected_layers=(
        "codes.code_error", "codes.erase", "codes.erasure_recovery", "codes.recovery_parts",
        "channels.compose", "channels.choi", "channels.entanglement_error",
        "sdp.solve", "sdp.diamond_error",
    ))


REGISTRY = {
    "weak-channel": weak_channel,
    "monte-carlo": monte_carlo,
    "fidelity-sdp": fidelity_sdp,
    "code-error": code_error,
}
