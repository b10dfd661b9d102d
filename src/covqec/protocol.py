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
F(U') = sum_K |Tr K|^2 / d^2.  As p_j is a class function, F_ent =
sum_g c_g int p_j chi_g: the character spectrum c_g = int F chi_g of an
erasure pattern is integrated by the exact SU(2) Euler quadrature on the
surviving qudits, once per effective_channel call, and each reference
frame adds an exact 1-D integral over the rotation angle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import refframe as rf
from .refframe import reference_fidelity_hand_sum  # noqa: F401 - re-exported, see __all__
from . import sdp as sdp_mod
from . import young
from .channels import (
    ChoiMatrix,
    CovariantParams,
    covariant_choi,
    haar_quadrature_su2,
    haar_su2,
    identity_channel,
    su2_eigenphase,
    su2_from_euler,
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
    mc_samples: int = 20000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.d != 2:
            raise ValueError("the simulation path is wired up for d = 2")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be at least 2 for a standard error")
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
# inner channel: character spectrum x class integral
# ---------------------------------------------------------------------------

def _phi_weight(code, erased, us):
    """Phi+ weight F(U') = F_ent(M_{U'}, I) of the inner channel at each node.

    With W_b = U'_surv M_b, the Kraus operators of M_{U'} are
    U'^dag R_r W_b plus the off-support completion (junk -> maximally
    mixed), and F_ent = sum_K |Tr K|^2 / d^2.  The completion enters in
    closed form, (d - <W, P W>) / d, because sum_b ||W_b||^2 = d; its
    rank-one Kraus are never materialized, and <W, P W> = sum_r ||R_r W||^2
    because sum_r R_r^dag R_r = P.  U'_surv acts one qudit at a time, so
    U'^{(x) n_surv} is never formed either.
    """
    d = code.d
    m_ops = erased_restriction_kraus(code, erased)
    data_kraus, support = recovery_parts(code, erased)
    dim_s = support.shape[0]
    m_cat = np.stack(m_ops, axis=1).reshape(dim_s, -1)          # (dim_s, n_b*d)
    r_cat = np.stack(data_kraus, axis=0).reshape(-1, dim_s)     # (n_r*d, dim_s)
    out = np.empty(len(us))
    chunk = 2048
    for start in range(0, len(us), chunk):
        ub = us[start:start + chunk]
        nb = ub.shape[0]
        w_all = np.broadcast_to(m_cat, (nb,) + m_cat.shape)
        u = ub[:, None, :, :, None]
        for left in d ** np.arange(code.n_p - len(erased)):
            # U' on one qudit: w[n, left, a, rest] = sum_b u[n, a, b] w[n, left, b, rest]
            w_all = w_all.reshape(nb, left, 1, d, -1)
            w_all = sum(u[:, :, :, b] * w_all[:, :, :, b] for b in range(d))
        x = np.matmul(r_cat, w_all.reshape(nb, dim_s, -1))     # (n, n_r*d, n_b*d)
        traces = np.einsum("nxy,nrxby->nrb", ub.conj(),
                           x.reshape(nb, len(data_kraus), d, len(m_ops), d), optimize=True)
        kept = np.sum(np.abs(x) ** 2, axis=(1, 2))
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


# the outcome density of a Haar guess: identically one
_HAAR_GUESS = rf.RefFrameSpec(2, 0, {(): 1.0})


def _spectrum_order(n_surv: int) -> int:
    # F has degree n_surv + 1 in U' and in U'^*, so F chi_g with
    # g <= 2 (n_surv + 1) has per-axis frequency below this order
    return 2 * n_surv + 4


def _phi_spectrum(code: CodeSpec, erased) -> np.ndarray:
    """Character spectrum c_g = int dU' F(U') chi_g(U') of the Phi+ weight.

    Only even g <= 2 (n_surv + 1) occur; entry k holds c_{2k}.  The shift
    gamma -> gamma + 2 pi of the Euler quadrature maps U' to -U', which
    leaves F and every even character unchanged, so the half gamma < 2 pi
    is integrated at double weight.
    """
    n_surv = code.n_p - len(set(erased))
    quad = haar_quadrature_su2(_spectrum_order(n_surv))
    half = quad.euler[:, 2] < 2 * np.pi - 1e-9
    us = su2_from_euler(*quad.euler[half].T)
    theta = su2_eigenphase(us)
    wf = 2 * quad.weights[half] * _phi_weight(code, sorted(set(erased)), us)
    return np.array([wf @ young.su2_character(g, theta) for g in range(0, 2 * n_surv + 3, 2)])


def _class_integrals(spec: rf.RefFrameSpec, n_terms: int, n_theta: int):
    """int dU p(U) chi_{2k}(U) for k < n_terms, and the mass int p.

    A class function's Haar measure is (2/pi) sin^2(theta) dtheta on [0, pi];
    p chi_g sin^2 is a cosine polynomial of degree 2 (max_gap + 1) + g, which
    the midpoint rule integrates exactly while it stays below 2 n_theta.
    """
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    wp = (2.0 / n_theta) * np.sin(theta) ** 2 * rf._density_su2(spec, theta)
    total = float(np.sum(wp))
    if abs(total - 1.0) > 1e-4:
        raise QuadratureResolutionError(
            f"density normalization drifted to {total} on {n_theta} angle nodes"
        )
    return np.array([wp @ young.su2_character(2 * k, theta) for k in range(n_terms)]), total


def inner_channel(
    code: CodeSpec,
    spec: rf.RefFrameSpec,
    pattern_p,
    spectrum: np.ndarray | None = None,
) -> tuple[CovariantParams, dict]:
    """Twirled inner channel of pattern j plus quadrature diagnostics.

    The twirl of M_j is the covariant channel with a = 1 - F_ent(M_j, I),
    and F_ent(M_j, I) = sum_g c_g int p chi_g combines the pattern's
    character spectrum with class integrals of the outcome density.  A
    caller that needs one pattern under several reference frames passes
    its `_phi_spectrum` as `spectrum`.
    """
    if spectrum is None:
        spectrum = _phi_spectrum(code, pattern_p)
    n_surv = len(spectrum) - 2  # entries c_0, c_2, ..., c_{2 (n_surv + 1)}
    n_theta = int(spec.gaps().max()) + n_surv + 3
    overlaps, total = _class_integrals(spec, len(spectrum), n_theta)
    f_ent = float(spectrum @ overlaps) / total
    diag = {"quad_order": _spectrum_order(n_surv), "theta_nodes": n_theta,
            "normalization": total, "n_survivors": n_surv}
    return CovariantParams(code.d, min(1.0, max(0.0, 1.0 - f_ent))), diag


def haar_guess_channel(code: CodeSpec, pattern_p) -> CovariantParams:
    """Twirled inner channel when no reference information survives: the
    decoder's estimate is a Haar guess, i.e. the density is identically one
    and F_ent is the spectrum's trivial-character entry."""
    return inner_channel(code, _HAAR_GUESS, pattern_p)[0]


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
            inner_cache[phys], diagnostics["inner"][label] = inner_channel(config.code, spec, phys)
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
    # every survivor count shares the physical pattern's spectrum
    spectra = {phys: _phi_spectrum(code, phys) for phys, _ in phys_patterns}
    for k in range(s_r + 1):
        p_k = comb(s_r, k) * p_copy**k * (1 - p_copy) ** (s_r - k)
        # with no surviving copy the decoder makes a Haar guess
        spec = rf.strong_combined_spec(config.d, k) if k else _HAAR_GUESS
        for phys, p_phys in phys_patterns:
            label = f"survivors:{k};phys:{','.join(map(str, sorted(phys))) or '-'}"
            params, diagnostics["inner"][label] = inner_channel(code, spec, phys, spectra[phys])
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
