"""End-to-end simulation of the covariant code at d = 2.

For a fixed erasure pattern j, averaging the protocol over the encoding
rotation U reduces the logical channel to the twirl of the inner channel

    M_j = int dU' p_j(U'|I) U'_L^{-1} . D . U'_P . C_{j,P} . E ,

where p_j is the covariant-measurement outcome density of the surviving
reference copies and U'_P acts on the surviving physical qudits (a
transversal unitary on the erased qudits is traced out with them).  The
twirl of M_j is the covariant channel with a_j = 1 - F_ent(M_j, I), so a
pattern is carried as its CovariantParams and nothing else.  The full
logical channel is the pattern mixture of those twirls, a covariant
channel whose parameter adds linearly over patterns, and eps_cov is its
diamond distance from the identity.

F_ent(M_j, I) is the p_j-weighted Haar integral of the Phi+ weight
F(U') = sum_K |Tr K|^2 / d^2 of the per-node channel, so each node needs
only traces.  The integral uses the exact SU(2) Euler product quadrature,
vectorized over nodes; erasure and recovery act on the surviving qudits
only, so dense spaces never exceed the surviving physical register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import refframe as rf
from . import sdp as sdp_mod
from .channels import (
    ChoiMatrix,
    CovariantParams,
    covariant_choi,
    haar_quadrature_su2,
    haar_su2,
    identity_channel,
    su2_eigenphase,
)
from .codes import (
    CodeSpec,
    corrected_channel,
    erased_restriction_kraus,
    five_qubit_code,
    recovery_on_survivors,
    recovery_parts,
    trivial_code,
)

__all__ = [
    "ProtocolConfig",
    "PatternTerm",
    "EffectiveChannelReport",
    "QuadratureResolutionError",
    "inner_channel",
    "inner_channel_perfect",
    "haar_guess_channel",
    "effective_channel",
    "monte_carlo_epsilon",
    "reference_fidelity_hand_sum",
    "SweepRow",
    "scaling_sweep",
    "loglog_slope",
]


class QuadratureResolutionError(RuntimeError):
    """The quadrature failed to reproduce the density normalization."""


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    model: str  # "weak" | "strong"
    code: CodeSpec
    n_e: int | None = None            # weak model
    p_e: float | None = None          # strong model
    m: int | None = None              # weak-model pairs per copy
    s_r: int | None = None            # strong-model copies
    pattern_dist: str = "uniform_le"  # weak: "uniform_le" | "exact_ne" | "none"
    quad_order: int | None = None
    mc_samples: int = 20000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.d != 2:
            raise ValueError("the simulation path is wired up for d = 2")
        if self.model == "weak":
            if self.n_e is None or self.m is None:
                raise ValueError("the weak model needs n_e and m")
            if self.code.distance > 1 and self.n_e > self.code.distance - 1:
                raise ValueError(
                    f"n_e={self.n_e} exceeds what the {self.code.name} code corrects exactly"
                )
            if self.pattern_dist not in ("uniform_le", "exact_ne", "none"):
                raise ValueError("unknown weak pattern distribution")
        elif self.model == "strong":
            if self.p_e is None or self.s_r is None:
                raise ValueError("the strong model needs p_e and s_r")
            if not 0 < self.p_e < 0.5:
                raise ValueError("p_e must lie in (0, 1/2)")
        else:
            raise ValueError("model must be 'weak' or 'strong'")

    @property
    def n(self) -> int:
        if self.model == "weak":
            return self.code.n_p + 2 * self.m * (self.n_e + 1)
        return self.code.n_p + 2 * self.s_r


@dataclass
class PatternTerm:
    label: str
    probability: float
    params: CovariantParams
    multiplicity: int = 1


@dataclass
class EffectiveChannelReport:
    config: ProtocolConfig
    terms: list
    mixture: CovariantParams
    eps_cov: float
    diagnostics: dict


# ---------------------------------------------------------------------------
# inner channel by quadrature
# ---------------------------------------------------------------------------

def _quad_order_for(spec: rf.RefFrameSpec, n_survivors: int) -> int:
    # highest per-axis Euler frequency of p(U') x F(U'):
    # max support gap from the density plus n_survivors + 1 channel legs
    max_gap = int(spec.gaps().max())
    return max_gap + n_survivors + 3


def _phi_weight(code, erased, us):
    """Phi+ weight F(U') = F_ent(M_{U'}, I) of the inner channel at each node.

    With W_b = U'_surv M_b, the Kraus operators of M_{U'} are
    U'^dag R_r W_b plus the off-support completion (junk -> maximally
    mixed), and F_ent = sum_K |Tr K|^2 / d^2.  The completion enters in
    closed form, (d - <W, P W>) / d, because sum_b ||W_b||^2 = d; its
    rank-one Kraus are never materialized.
    """
    d = code.d
    m_ops = erased_restriction_kraus(code, erased)
    data_kraus, support = recovery_parts(code, erased)
    n_surv = code.n_p - len(erased)
    dim_s = support.shape[0]
    m_cat = np.stack(m_ops, axis=1).reshape(dim_s, -1)          # (dim_s, n_b*d)
    r_cat = np.stack(data_kraus, axis=0).reshape(-1, dim_s)     # (n_r*d, dim_s)
    out = np.empty(len(us))
    chunk = 2048
    for start in range(0, len(us), chunk):
        ub = us[start:start + chunk]
        nb = ub.shape[0]
        w_all = np.matmul(_kron_power_batch(ub, n_surv), m_cat)  # (n, dim_s, n_b*d)
        x = np.matmul(r_cat, w_all).reshape(nb, len(data_kraus), d, len(m_ops), d)
        traces = np.einsum("nxy,nrxby->nrb", ub.conj(), x, optimize=True)
        kept = np.real(np.einsum("nsc,nsc->n", w_all.conj(), np.matmul(support, w_all)))
        data = np.sum(np.abs(traces) ** 2, axis=(1, 2))
        out[start:start + nb] = (data + (d - kept) / d) / d**2
    return out


def _kron_power_batch(us: np.ndarray, k: int) -> np.ndarray:
    out = np.ones((us.shape[0], 1, 1), dtype=complex)
    dim = 1
    for _ in range(k):
        out = np.einsum("nab,ncd->nacbd", out, us).reshape(us.shape[0], dim * 2, dim * 2)
        dim *= 2
    return out


def inner_channel(
    code: CodeSpec,
    spec: rf.RefFrameSpec,
    pattern_p,
    quad_order: int | None = None,
) -> tuple[CovariantParams, dict]:
    """Twirled inner channel of pattern j plus quadrature diagnostics.

    The twirl of M_j is the covariant channel with a = 1 - F_ent(M_j, I),
    and F_ent(M_j, I) = int dU' p(U') F(U') integrates the Phi+ weight of
    the per-node channel (see _phi_weight).
    """
    erased = sorted(set(int(i) for i in pattern_p))
    n_surv = code.n_p - len(erased)
    order = quad_order or _quad_order_for(spec, n_surv)
    quad = haar_quadrature_su2(order)
    us = quad.matrices()
    dens = rf._density_su2(spec, su2_eigenphase(us))
    total = float(np.sum(quad.weights * dens))
    if abs(total - 1.0) > 1e-4:
        raise QuadratureResolutionError(
            f"density normalization drifted to {total}; raise quad_order above {order}"
        )

    f_ent = float(np.sum(quad.weights * dens * _phi_weight(code, erased, us))) / total
    diag = {"quad_order": order, "normalization": total, "n_survivors": n_surv}
    return CovariantParams(code.d, min(1.0, max(0.0, 1.0 - f_ent))), diag


def haar_guess_channel(code: CodeSpec, pattern_p, quad_order: int = 6) -> CovariantParams:
    """Twirled inner channel when no reference information survives: the
    decoder's estimate is a Haar guess, i.e. the density is identically one."""
    flat = rf.RefFrameSpec(2, 0, {(): 1.0})
    params, _ = inner_channel(code, flat, pattern_p, quad_order=quad_order)
    return params


def inner_channel_perfect(code: CodeSpec, pattern_p) -> ChoiMatrix:
    """Perfect-reference limit of the inner channel: the outcome density
    concentrates on U' = I and M_j collapses to D . C . E exactly."""
    return corrected_channel(code, pattern_p).choi()


# ---------------------------------------------------------------------------
# pattern enumeration and the effective channel
# ---------------------------------------------------------------------------

def _weak_terms(config: ProtocolConfig):
    """Collapsed weak-model pattern classes: (label, probability, pattern_P).

    With s_R = n_e + 1 copies and at most n_e erasures, at least one copy
    always survives intact and the measured spec is the per-copy spec, so
    classes are labelled by the physical sub-pattern only.
    """
    n_p = config.code.n_p
    n = config.n
    n_ref = n - n_p
    if config.pattern_dist == "none":
        yield "none", 1.0, frozenset()
        return
    sizes = range(0, config.n_e + 1) if config.pattern_dist == "uniform_le" else [config.n_e]
    n_patterns = sum(comb(n, k) for k in sizes)
    weights: dict = {}
    for k in sizes:
        for phys_k in range(0, min(k, n_p) + 1):
            count = comb(n_p, phys_k) * comb(n_ref, k - phys_k)
            if count == 0:
                continue
            for phys in itertools.combinations(range(n_p), phys_k):
                mult = comb(n_ref, k - phys_k)
                if mult:
                    key = frozenset(phys)
                    weights[key] = weights.get(key, 0.0) + mult / n_patterns
    for key in sorted(weights, key=sorted):
        label = "phys:" + ",".join(map(str, sorted(key))) if key else "no-phys-erasure"
        yield label, weights[key], key


def effective_channel(config: ProtocolConfig) -> EffectiveChannelReport:
    """Exact effective logical channel of the protocol and its eps_cov."""
    if config.model == "weak":
        return _effective_weak(config)
    return _effective_strong(config)


def _finish_report(config, terms, diagnostics) -> EffectiveChannelReport:
    a_mix = sum(t.probability * t.params.a for t in terms)
    total_p = sum(t.probability for t in terms)
    if abs(total_p - 1.0) > 1e-10:
        raise RuntimeError(f"pattern probabilities sum to {total_p}")
    mixture = CovariantParams(config.d, min(1.0, max(0.0, a_mix)))
    eps = sdp_mod.diamond_error(covariant_choi(mixture), identity_channel(config.d).choi())
    return EffectiveChannelReport(
        config=config,
        terms=terms,
        mixture=mixture,
        eps_cov=eps,
        diagnostics=diagnostics,
    )


def _effective_weak(config: ProtocolConfig) -> EffectiveChannelReport:
    _, spec = rf.weak_spec(config.d, config.m, config.code.n_p, config.n_e)
    terms = []
    diagnostics = {"inner": {}}
    inner_cache: dict = {}
    for label, prob, phys in _weak_terms(config):
        if phys not in inner_cache:
            inner_cache[phys], diagnostics["inner"][label] = inner_channel(
                config.code, spec, phys, config.quad_order
            )
        terms.append(PatternTerm(label, prob, inner_cache[phys]))
    return _finish_report(config, terms, diagnostics)


def _effective_strong(config: ProtocolConfig) -> EffectiveChannelReport:
    """Exhaustive enumeration over per-copy reference losses and physical
    erasures, collapsed by sufficient statistics (inner channels depend on
    the pattern only through the survivor count and the physical part)."""
    p_e = config.p_e
    s_r = config.s_r
    if 2**s_r > 2**14:
        raise ValueError("strong-model exhaustive enumeration capped at 2^14 copy patterns")
    code = config.code
    n_p = code.n_p
    # a copy survives iff neither of its two qudits is erased
    p_copy = (1 - p_e) ** 2
    terms = []
    diagnostics = {"inner": {}}
    phys_patterns = [
        (frozenset(s), p_e ** len(s) * (1 - p_e) ** (n_p - len(s)))
        for k in range(n_p + 1)
        for s in itertools.combinations(range(n_p), k)
    ]
    for k in range(s_r + 1):
        p_k = comb(s_r, k) * p_copy**k * (1 - p_copy) ** (s_r - k)
        if k >= 1:
            spec = rf.strong_combined_spec(config.d, k)
        for phys, p_phys in phys_patterns:
            label = f"survivors:{k};phys:{','.join(map(str, sorted(phys))) or '-'}"
            if k >= 1:
                params, diag = inner_channel(code, spec, phys, config.quad_order)
            else:
                params = haar_guess_channel(code, phys)
                diag = {"haar_guess": True}
            diagnostics["inner"][label] = diag
            terms.append(PatternTerm(label, p_k * p_phys, params))
    return _finish_report(config, terms, diagnostics)


# ---------------------------------------------------------------------------
# operational Monte Carlo
# ---------------------------------------------------------------------------

def _sample_pattern(config: ProtocolConfig, rng) -> tuple[frozenset, int]:
    """Sample (physical pattern, surviving copy count) for one shot."""
    n_p = config.code.n_p
    if config.model == "weak":
        n = config.n
        if config.pattern_dist == "none":
            return frozenset(), config.n_e + 1
        sizes = list(range(config.n_e + 1)) if config.pattern_dist == "uniform_le" else [config.n_e]
        counts = np.array([comb(n, k) for k in sizes], dtype=float)
        k = sizes[rng.choice(len(sizes), p=counts / counts.sum())]
        qudits = rng.choice(n, size=k, replace=False) if k else np.array([], dtype=int)
        phys = frozenset(int(q) for q in qudits if q < n_p)
        # copy i owns reference qudits [2m i, 2m(i+1)); any hit ruins it
        hit = set((int(q) - n_p) // (2 * config.m) for q in qudits if q >= n_p)
        return phys, config.n_e + 1 - len(hit)
    # strong model: independent erasure per qudit
    phys = frozenset(i for i in range(n_p) if rng.random() < config.p_e)
    survivors = sum(
        1 for _ in range(config.s_r) if rng.random() >= config.p_e and rng.random() >= config.p_e
    )
    return phys, survivors


def monte_carlo_epsilon(
    config: ProtocolConfig,
    logical_gate: np.ndarray | None = None,
    force_total_loss: bool = False,
    force_perfect_reference: bool = False,
) -> tuple[float, float]:
    """Operational estimate of 1 - F_ent of the effective channel.

    Each shot draws the encoding rotation U, an erasure pattern and a
    measurement outcome U^; the recovered logical channel has the explicit
    Kraus operators K = U^ R U'_surv M U^dag, and the shot scores
    F_ent = sum_K |Tr(V^dag K)|^2 / d^2 against the target gate V.  With
    `logical_gate` V the shot implements the covariant version of V (V
    applied transversally, V_L as the target); by covariance the estimate
    must match the V-free run.
    """
    rng = np.random.default_rng(config.seed)
    code = config.code
    d = config.d
    v = np.eye(d, dtype=complex) if logical_gate is None else np.asarray(logical_gate, complex)
    fidelities = np.empty(config.mc_samples)
    spec_cache: dict = {}
    if config.model == "weak":
        _, per_copy_spec = rf.weak_spec(d, config.m, code.n_p, config.n_e)
        # every weak-model survivor count measures the per-copy spec
        spec_cache = {s: per_copy_spec for s in range(1, config.n_e + 2)}

    kraus_cache: dict = {}
    for shot in range(config.mc_samples):
        u = haar_su2(rng, 1)[0]
        phys, survivors = _sample_pattern(config, rng)
        if force_total_loss:
            survivors = 0
        if force_perfect_reference:
            u_rel = np.eye(2, dtype=complex)
        elif survivors == 0:
            # Haar guess: U^ Haar-random, so the leftover U'^dag = U^dag V U
            # is Haar as well
            u_rel = haar_su2(rng, 1)[0]
        else:
            if survivors not in spec_cache:
                spec_cache[survivors] = rf.strong_combined_spec(d, survivors)
            u_rel = rf.sample_relative_rotations(spec_cache[survivors], 1, rng, batch=256)[0]
        u_hat = (v @ u) @ u_rel.conj().T
        if phys not in kraus_cache:
            kraus_cache[phys] = (
                np.stack(recovery_on_survivors(code, phys)),
                np.stack(erased_restriction_kraus(code, phys)),
            )
        r_ops, m_ops = kraus_cache[phys]
        mid = _kron_power_batch(u_rel[None], code.n_p - len(phys))[0]
        kraus = np.einsum("rxs,bsy->rbxy", u_hat @ r_ops @ mid, m_ops) @ u.conj().T
        traces = np.einsum("xy,rbxy->rb", v.conj(), kraus)
        fidelities[shot] = np.sum(np.abs(traces) ** 2) / d**2

    est = float(1.0 - fidelities.mean())
    stderr = float(fidelities.std(ddof=1) / np.sqrt(config.mc_samples))
    return est, stderr


def reference_fidelity_hand_sum(spec: rf.RefFrameSpec, n_p: int) -> float:
    """Exact-character oracle for F_ent(int dU' p(U') U'_P (x) U'*_L, I).

    Expands the entanglement fidelity into Haar integrals of character
    products and counts them with Littlewood-Richardson combinatorics,
    fully independently of the quadrature path:

        F = 4^-(n_p+1) sum_{lam lam'} sqrt(q q') Int chi_lam chi_lam'
                                                     |chi_fund|^{2(n_p+1)}.
    """
    from . import young

    d = spec.d
    if d != 2:
        raise ValueError("hand sum wired for d = 2")

    def fund_power_decomp(k):
        dec = {(): 1}
        for _ in range(k):
            nxt: dict = {}
            for lam, mult in dec.items():
                for nu, c in young.tensor_decompose(lam, (1,), d).items():
                    nxt[nu] = nxt.get(nu, 0) + mult * c
            dec = nxt
        return dec

    # chi of U'_P (x) U'*_L = chi_fund^{n_p} chi_fund* ; |.|^2 gives
    # fund^{n_p+1} against its dual, and for SU(2) dual = fund
    dec = fund_power_decomp(n_p + 1)
    total = 0.0
    dim = 2 ** (n_p + 1)
    for lam, q in spec.weights.items():
        for lam2, q2 in spec.weights.items():
            # Int chi_lam chi_lam2* |chi_fund|^{2(n_p+1)}
            #   = sum_nu mult_nu(lam (x) fund^{n_p+1}) mult_nu(lam2 (x) fund^{n_p+1})
            acc = 0
            left: dict = {}
            for mu, m1 in dec.items():
                for nu, c in young.tensor_decompose(lam, mu, d).items():
                    left[nu] = left.get(nu, 0) + m1 * c
            for mu, m2 in dec.items():
                for nu, c in young.tensor_decompose(lam2, mu, d).items():
                    if nu in left:
                        acc += left[nu] * m2 * c
            total += np.sqrt(q * q2) * acc
    return float(total / dim**2)


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    n: int
    n_p: int
    n_r: int
    model: str
    noise: float  # n_e (weak) or p_e (strong)
    eps_cov: float  # nan unless simulate=True
    upper_bound: float
    lower_bound: float
    one_minus_fwc: float
    runtime_ms: int
    seed: int


def scaling_sweep(
    model: str,
    n_grid,
    n_p: int = 5,
    n_e: int = 1,
    p_e: float = 0.2,
    d: int = 2,
    seed: int = 7,
    simulate: bool = False,
    code: CodeSpec | None = None,
    timing: bool = False,
) -> list[SweepRow]:
    """Rows of (n, bounds, reference-frame error proxy) over a grid of n.

    The proxy column is 1 - min_overlap of the weak spec (weak model) or
    1 - F_{s'} at the no-loss survivor count (strong model); eps_cov is
    simulated only on request (it needs full effective-channel runs).
    """
    import time

    from . import bounds as bounds_mod

    if simulate and code is None:
        code = _code_for_np(n_p)
    if code is not None and code.n_p != n_p:
        raise ValueError(f"code {code.name} has n_p={code.n_p}, but the sweep has n_p={n_p}")
    rows = []
    for n in n_grid:
        t0 = time.monotonic()
        if model == "weak":
            n_r = n - n_p
            if n_r <= 0 or n_r % (2 * (n_e + 1)):
                raise ValueError(
                    f"n={n} incompatible with n_p={n_p}, n_e={n_e}: need n_r divisible by {2*(n_e+1)}"
                )
            m = n_r // (2 * (n_e + 1))
            layout, spec = rf.weak_spec(d, m, n_p, n_e)
            proxy = 1.0 - rf.min_overlap(spec, layout.n_prime)
            upper = bounds_mod.theorem1_bound(d, n_e, n_p, n_r).value
            lower = bounds_mod.prop1_lower(n, n_e).value
            noise = float(n_e)
        elif model == "strong":
            n_r = n - n_p
            if n_r <= 0 or n_r % 2:
                raise ValueError(f"n={n} incompatible with n_p={n_p}: need even n_r")
            s_r = n_r // 2
            proxy = 1.0 - rf.f_strong(d, s_r, n_p + d - 1)
            upper = bounds_mod.theorem2_bound(d, p_e, n, 0.1).value
            lower = bounds_mod.prop2_lower(n, p_e).value
            noise = p_e
        else:
            raise ValueError("model must be 'weak' or 'strong'")
        eps = float("nan")
        if simulate:
            cfg = ProtocolConfig(
                d=d,
                model=model,
                code=code,
                n_e=n_e if model == "weak" else None,
                p_e=p_e if model == "strong" else None,
                m=m if model == "weak" else None,
                s_r=s_r if model == "strong" else None,
                pattern_dist="exact_ne" if model == "weak" else "uniform_le",
                seed=seed,
            )
            eps = effective_channel(cfg).eps_cov
        ms = int(round(1000 * (time.monotonic() - t0))) if timing else 0
        rows.append(SweepRow(n, n_p, n - n_p, model, noise, eps, upper, lower, proxy, ms, seed))
    return rows


def _code_for_np(n_p: int) -> CodeSpec:
    """The simulated code with n_p physical qudits: trivial (1) or five-qubit (5)."""
    if n_p == 1:
        return trivial_code(2)
    if n_p == 5:
        return five_qubit_code()
    raise ValueError(f"no code with n_p={n_p} to simulate; choose n_p = 1 (trivial) or 5 (five-qubit)")


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    sx, sy = lx.sum(), ly.sum()
    return float((n * (lx * ly).sum() - sx * sy) / (n * (lx * lx).sum() - sx * sx))
