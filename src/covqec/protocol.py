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
sum_g c_g C_g: a character spectrum c_g = int F chi_g for each erasure
pattern, exact on the SU(2) Euler quadrature of the surviving qudits,
times the frame's exact class coefficients C_g = int p_j chi_g
(`refframe.class_coefficients`).  At U' = Rz(alpha) Ry(beta) Rz(gamma),
Rz is diagonal in the z-weights and chi_g is a sum of phases
e^{-i m (alpha + gamma)} times the Wigner diagonals d^j_mm(beta), so the
alpha and gamma integrals are done in closed form by the selection rule
on z-weight lags, and only the Gauss-Legendre beta nodes are formed.  An
effective channel is one product of its patterns' spectra with its
frames' class coefficients: the strong model's s_r + 1 surviving-copy
counts cost s_r + 1 coefficient vectors against 2^n_p spectra, with no
cap on s_r.  Both erasure models are a surviving-copy law times a
physical-pattern law, so a report carries one term per physical pattern,
its a mixed over the frames.

monte_carlo_epsilon runs the operational protocol instead, as an oracle
that shares neither the spectrum nor the recovery's closed-form
completion: it draws every shot's erasure pattern and relative rotation
U' in bulk, then scores the shots of each erased-set size together on
their explicit Kraus operators, with the recoveries that
`codes.recovery_parts` memoized for the exact channel.  The encoding
rotation U and a transversal gate V drop out of that score, as
(V U)^dag U^ = U'^dag for the outcome U^ = V U U'^dag (`_score_shots`),
so neither is drawn.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, lgamma, log, log1p

import numpy as np

from . import bounds as bounds_mod
from . import refframe as rf
from . import sdp as sdp_mod
from .channels import (
    ChoiMatrix,
    CovariantParams,
    _kron_power_apply,
    _small_matmul,
    covariant_choi,
    haar_quadrature_su2,
    identity_channel,
    su2_from_euler,
)
from .codes import (
    CodeSpec,
    _code_key,
    _memo_put,
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
    "inner_channel",
    "inner_channel_perfect",
    "effective_channel",
    "monte_carlo_epsilon",
    "SweepRow",
    "scaling_sweep",
    "loglog_slope",
]


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    model: str  # "weak" | "strong"
    code: CodeSpec
    n_e: int | None = None            # weak model; 0 is erasure-free
    p_e: float | None = None          # strong model
    m: int | None = None              # weak-model pairs per copy
    s_r: int | None = None            # strong-model copies
    pattern_dist: str = "uniform_le"  # weak: "uniform_le" | "exact_ne"
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
            if self.n_e < 0:
                raise ValueError("n_e must be non-negative")
            if self.code.distance > 1 and self.n_e > self.code.distance - 1:
                raise ValueError(
                    f"n_e={self.n_e} exceeds what the {self.code.name} code corrects exactly"
                )
            if self.pattern_dist not in ("uniform_le", "exact_ne"):
                raise ValueError("unknown weak pattern distribution")
        elif self.model == "strong":
            if self.p_e is None or self.s_r is None:
                raise ValueError("the strong model needs p_e and s_r")
            if not 0 < self.p_e < 0.5:
                raise ValueError("p_e must lie in (0, 1/2)")
            if self.s_r < 0:
                raise ValueError("s_r must be non-negative")
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


@dataclass
class EffectiveChannelReport:
    config: ProtocolConfig
    terms: list
    mixture: CovariantParams
    eps_cov: float


# ---------------------------------------------------------------------------
# inner channel: character spectrum x class coefficients
# ---------------------------------------------------------------------------

def _kron_power_batch(us: np.ndarray, k: int) -> np.ndarray:
    """U^{(x) k} for each U of a batch, by broadcast products.

    Each step writes U^{(x) j} (x) U one column of the new factor at a time,
    so numpy's inner loop runs along U^{(x) j}'s long contiguous axis, not
    over the d entries of U; the products are np.kron's left fold, bit for
    bit.
    """
    n, d = us.shape[:2]
    out = np.ones((n, 1, 1), dtype=complex)
    for _ in range(k):
        dim = out.shape[1]
        nxt = np.empty((n, dim, d, dim, d), dtype=complex)
        for e in range(d):
            np.multiply(out[:, :, None, :], us[:, None, :, None, e], out=nxt[..., e])
        out = nxt.reshape(n, dim * d, dim * d)
    return out


# the outcome density of a Haar guess: identically one
_HAAR_GUESS = rf.RefFrameSpec(2, 0, {(): 1.0})


def _frame(config: ProtocolConfig, k: int) -> rf.RefFrameSpec:
    """The frame measured with k surviving copies: a Haar guess at k = 0,
    else the weak model's per-copy spec or the Schur-Weyl spec of k pairs."""
    if k == 0:
        return _HAAR_GUESS
    if config.model == "weak":
        return rf.weak_spec(config.d, config.m)
    return rf.strong_combined_spec(config.d, k)


def _spectrum_order(n_surv: int) -> int:
    # F has degree n_surv + 1 in U' and in U'^*, so F chi_g with
    # g <= 2 (n_surv + 1) has per-axis frequency below this order
    return 2 * n_surv + 4


def _wigner_diagonals(betas: np.ndarray, j_max: int) -> np.ndarray:
    """Diagonal Wigner d-matrix entries d^j_mm(beta) = <j m| e^{-i beta J_y} |j m>
    for 0 <= m <= j <= j_max, as table[node, j, m] (zero where m > j).

    d^j_mm = cos^{2m}(beta/2) P_{j-m}^{(0, 2m)}(cos beta), the Jacobi
    polynomials from their three-term recurrence in the degree, for every m
    at once; d^j_{-m,-m} = d^j_mm gives the negative m.
    """
    x = np.cos(betas)[:, None]
    b = 2.0 * np.arange(j_max + 1)
    # 2n (n + b)(s - 2) P_n = (s - 1)(s (s - 2) x - b^2) P_{n-1}
    #                         - 2 (n - 1)(n + b - 1) s P_{n-2},  s = 2n + b,
    # with the integer factors of n = 2..j_max in rows n - 2
    n = np.arange(2, j_max + 1)[:, None]
    s = 2 * n + b
    lead, cross, den = s * (s - 2), 2 * (n - 1) * (n + b - 1) * s, 2 * n * (n + b) * (s - 2)
    p = [np.ones_like(x * b), ((b + 2) * x - b) / 2]
    for i in range(j_max - 1):
        p.append(((s[i] - 1) * (lead[i] * x - b * b) * p[-1] - cross[i] * p[-2]) / den[i])
    j, m = np.ogrid[:j_max + 1, :j_max + 1]
    table = np.stack(p)[np.clip(j - m, 0, None), :, m] * np.cos(betas / 2) ** (2 * m[..., None])
    return np.where((m <= j)[..., None], table, 0.0).transpose(2, 0, 1)


def _phi_spectrum(code: CodeSpec, erased_sets, quad) -> np.ndarray:
    """Character spectra c_g = int dU' F(U') chi_g(U') of the Phi+ weight
    F(U') = F_ent(M_{U'}, I), one row per erased set of `erased_sets` (all
    of one size), exact on the Euler quadrature `quad` of order
    `_spectrum_order(n_surv)`, of which only the `order` Gauss-Legendre beta
    nodes are used: alpha and gamma are integrated in closed form.

    Only even g <= 2 (n_surv + 1) occur; entry j of a row holds c_{2j}.  The
    sets share the beta nodes, Ry^{(x) n_surv}, the z-weights and the Wigner
    table, and the pattern axis runs through the GEMMs (one pair per
    pattern) and the lag einsums, so a row is its set's one-pattern call.

    With W_b = U'_surv M_b, the Kraus operators of M_{U'} are U'^dag R_r W_b
    plus the off-support completion (junk -> maximally mixed), and F =
    sum_K |Tr K|^2 / d^2 = [data + 1 - kept / d] / d^2 with data =
    sum_{r,b} |Tr(U'^dag R_r W_b)|^2 and kept = sum_{r,b} ||R_r W_b||^2: the
    completion enters in closed form, as sum_b ||W_b||^2 = d and
    sum_r R_r^dag R_r is the support projector.

    At U' = Rz(alpha) Ry(beta) Rz(gamma), Rz is diagonal in the z-weights
    (+1 for level 0, -1 for level 1).  Split R_r by f = sigma_x - S_i (the
    entries R_r[x, i] kept in R^(f)) and M's rows by their z-weight k (P_k):
    X_{f,k} = R^(f) Ry(beta)^{(x) n_surv} P_k M enters with the phase
    e^{i (alpha f - gamma k) / 2}, and Tr(U'^dag X_f) = sum_kappa
    e^{-i gamma kappa / 2} tau_{f,kappa}(beta) with kappa = k - sigma_y.  As
    chi_{2j}(U') = sum_m e^{-i m (alpha + gamma)} d^j_mm(beta), the alpha and
    gamma integrals keep the pairs at lag m only:

        c_{2j} = sum_beta w_beta sum_{m=-j..j} d^j_mm(beta) G_m(beta),
        G_m = [sum tau_{f,kappa} conj tau_{f-2m,kappa+2m}
               - (1/d) sum <X_{f-2m,k+2m}, X_{f,k}> + delta_{m0}] / d^2,

    and G_{-m} = conj G_m.  Nothing is formed on the alpha or gamma axes.
    A weak five-qubit m = 8 effective channel (six patterns, two calls)
    takes ~4.9 ms cold on one core of a 2-core x86-64 VM (best of 100; the
    host's speed drifts by up to ~1.5x), about 5% of it in the diamond SDP,
    which starts at its certified optimum (1 iteration, ~0.26 ms); with its
    spectra memoized, as for every `sweep --simulate` row after the first,
    ~0.42 ms, ~60% the SDP.
    """
    d = code.d
    n_surv = code.n_p - len(set(erased_sets[0]))
    m_ops = np.stack([erased_restriction_kraus(code, e) for e in erased_sets])
    data_kraus = np.stack([recovery_parts(code, e)[0] for e in erased_sets])
    n_pat, n_b, dim_s = m_ops.shape[:3]
    # the beta nodes of the grid (axes alpha, beta, gamma), and their weights
    # summed over the (alpha, gamma) plane
    w_grid = quad.weights.reshape(2 * quad.order, quad.order, 2 * quad.order)
    betas = quad.euler[:, 1].reshape(w_grid.shape)[0, :, 0]
    ry = su2_from_euler(0.0, betas, 0.0).real
    sigma = np.array([1, -1])
    s_z = sigma[np.indices((d,) * n_surv).reshape(n_surv, dim_s)].sum(axis=0)  # S_i of basis state i
    fs = np.arange(-n_surv - 1, n_surv + 2, 2)
    ks = np.arange(-n_surv, n_surv + 1, 2)
    r_f = data_kraus[:, None] * (sigma[:, None] - s_z == fs[:, None, None, None])
    m_k = m_ops.transpose(0, 2, 1, 3).reshape(n_pat, 1, dim_s, -1) * (s_z == ks[:, None])[:, :, None]
    # X_{f,k} by two GEMMs per pattern, on axes (pattern, f, r, x, beta, k, b, y)
    ry_s = _kron_power_batch(ry, n_surv).transpose(1, 0, 2).reshape(dim_s, -1)
    x = ((r_f.reshape(n_pat, -1, dim_s) @ ry_s).reshape(n_pat, -1, dim_s)
         @ m_k.transpose(0, 2, 1, 3).reshape(n_pat, dim_s, -1))
    x = x.reshape(n_pat, len(fs), n_b, d, len(betas), len(ks), n_b, d)
    # Ry^dag[y, x] X[x, y] on axes (pattern, f, r, beta, k, b, y); kappa = k - sigma_y
    t = sum(x[:, :, :, i] * ry[:, i, None, None, :] for i in range(d))
    tau = np.zeros(t.shape[:4] + (len(ks) + 1, n_b), dtype=complex)
    tau[..., :-1, :] += t[..., 0]
    tau[..., 1:, :] += t[..., 1]
    # G_m d^2 - delta_{m0}: Re sum v[f, k] conj v[f - 2m, k + 2m] over every axis
    # but pattern and beta, by the real views (Re z conj w = re.re + im.im)
    g = np.zeros((n_pat, len(betas), len(fs)))
    for m in range(len(fs)):
        g[..., m] = (np.einsum("pfrnkb,pfrnkb->pn", tau[:, m:, ..., :len(ks) + 1 - m, :].view(float),
                               tau[:, :len(fs) - m, ..., m:, :].view(float))
                     - np.einsum("pfrxnkby,pfrxnkby->pn", x[:, m:, ..., :len(ks) - m, :, :].view(float),
                                 x[:, :len(fs) - m, ..., m:, :, :].view(float)) / d)
    g[..., 0] += 1.0
    g[..., 1:] *= 2.0  # G_m + G_{-m}
    table = _wigner_diagonals(betas, n_surv + 1)
    return np.einsum("n,njm,pnm->pj", w_grid.sum(axis=(0, 2)), table, g) / d**2


# Phi+ spectra by code key (`codes._code_key`) and erased set, oldest
# first; a spectrum depends on nothing else
_SPECTRA: dict = {}
_SPECTRA_CAP = 256


def inner_channel(code: CodeSpec, specs, patterns) -> tuple[np.ndarray, dict]:
    """a[i, j] = 1 - F_ent(M_j, I) of erasure pattern j under reference
    frame i, plus diagnostics.

    F_ent = sum_g c_g int p chi_g is the product S_j . C_i / C_i0 of the
    pattern's character spectrum S_j (`_phi_spectrum`, zero-padded to the
    n_p + 2 entries of the erasure-free pattern) and the frame's even
    class coefficients C_i = (C_0, C_2, ..., C_{2 n_p + 2}), exact for every
    pattern.  The patterns of one survivor count share one
    `haar_quadrature_su2` of their spectrum order, whose Gauss-Legendre beta
    nodes and weights carry the spectra, and one `_phi_spectrum` call.  The
    diagnostics are the largest spectrum order ("quad_order"), the frame
    mass C_0 = sum q farthest from one ("normalization") and the number of
    spectra this call integrated ("spectra_computed").

    A spectrum depends on the code and the erased set only, never on the
    frame, so spectra are memoized across calls: keyed on the encoder's
    bytes (`codes._code_key`), in a module memo of at most `_SPECTRA_CAP`
    read-only rows that drops its oldest entry first.  Quadratures are
    built only for the orders of the patterns the memo lacks, and a reused
    row is the same numbers, so results do not depend on what ran before.
    The rows of a `sweep --simulate` after its first reuse every spectrum;
    a single call pays the full cost.
    """
    n_p = code.n_p
    code_key = _code_key(code)
    keys = [code_key + (frozenset(p),) for p in patterns]
    orders = {key: _spectrum_order(n_p - len(key[-1])) for key in keys}
    found = {key: _SPECTRA.get(key) for key in keys}
    missing = [key for key, c in found.items() if c is None]
    for order in sorted({orders[key] for key in missing}):
        group = [key for key in missing if orders[key] == order]
        batch = _phi_spectrum(code, [key[-1] for key in group], haar_quadrature_su2(order))
        batch.setflags(write=False)
        for key, c in zip(group, batch):
            found[key] = _memo_put(_SPECTRA, _SPECTRA_CAP, key, c)
    spectra = np.zeros((len(patterns), n_p + 2))
    for j, key in enumerate(keys):
        spectra[j, :len(found[key])] = found[key]
    coeffs = np.array([rf.class_coefficients(spec, 2 * n_p + 2)[::2] for spec in specs])
    a = np.clip(1.0 - coeffs @ spectra.T / coeffs[:, :1], 0.0, 1.0)
    diag = {"quad_order": max(orders.values()),
            "normalization": float(max(coeffs[:, 0], key=lambda c0: abs(c0 - 1.0))),
            "spectra_computed": len(missing)}
    return a, diag


def inner_channel_perfect(code: CodeSpec, pattern_p) -> ChoiMatrix:
    """Perfect-reference limit of the inner channel: the outcome density
    concentrates on U' = I and M_j collapses to D . C . E exactly."""
    return corrected_channel(code, pattern_p).choi()


# ---------------------------------------------------------------------------
# pattern enumeration and the effective channel
# ---------------------------------------------------------------------------

def _label(phys) -> str:
    return "phys:" + ",".join(map(str, sorted(phys))) if phys else "no-phys-erasure"


def _weak_terms(config: ProtocolConfig):
    """Collapsed weak-model pattern classes: (label, probability, pattern_P).

    With s_R = n_e + 1 copies and at most n_e erasures, at least one copy
    always survives intact and the measured spec is the per-copy spec, so
    classes are labelled by the physical sub-pattern only.
    """
    n_p = config.code.n_p
    n = config.n
    n_ref = n - n_p
    sizes = range(0, config.n_e + 1) if config.pattern_dist == "uniform_le" else [config.n_e]
    n_patterns = sum(comb(n, k) for k in sizes)
    weights: dict = {}
    for k in sizes:
        for phys_k in range(0, min(k, n_p) + 1):
            mult = comb(n_ref, k - phys_k)
            if mult == 0:
                continue
            for phys in itertools.combinations(range(n_p), phys_k):
                key = frozenset(phys)
                weights[key] = weights.get(key, 0.0) + mult / n_patterns
    for key in sorted(weights, key=sorted):
        yield _label(key), weights[key], key


def _strong_terms(config: ProtocolConfig):
    """Strong-model physical patterns: (label, probability, pattern_P), each
    physical qudit erased independently with probability p_e."""
    n_p, p_e = config.code.n_p, config.p_e
    for k in range(n_p + 1):
        for phys in itertools.combinations(range(n_p), k):
            yield _label(phys), p_e ** k * (1 - p_e) ** (n_p - k), frozenset(phys)


def _survivor_law(s_r: int, p_copy: float) -> list[float]:
    """Binomial law of the surviving-copy count k = 0..s_r, formed in log
    space (comb(s_r, k) alone overflows a float past s_r ~ 1030) and
    normalized there, which also drops the common factor s_r!."""
    k = np.arange(s_r + 1)
    log_w = (k * log(p_copy) + (s_r - k) * log1p(-p_copy)
             - np.array([lgamma(i + 1) + lgamma(s_r - i + 1) for i in range(s_r + 1)]))
    w = np.exp(log_w - log_w.max())
    return (w / w.sum()).tolist()


def effective_channel(config: ProtocolConfig) -> EffectiveChannelReport:
    """Exact effective logical channel of the protocol and its eps_cov.

    Both erasure models are a law over the surviving-copy count k, which
    fixes the reference frame (`_frame`), times a law over the erased
    physical qudits P, which fixes the recovery: weak has k = 1 surely and
    the pattern classes of `_weak_terms`; strong has the binomial
    `_survivor_law` (a copy survives iff neither of its two qudits is
    erased) and the independent erasures of `_strong_terms`.  One
    `inner_channel` call gives a[k, P] for every frame against every
    pattern, and each pattern is one term whose a is its column mixed over
    k, so a report has one term per physical pattern.  Any s_r runs:
    five-qubit s_r = 256 (n = 517) takes ~0.3 s on one core, ~80% of it
    building the frames' exact Schur-Weyl specs.
    """
    if config.model == "weak":
        p_k, ks, classes = [1.0], [1], list(_weak_terms(config))
    else:
        p_k = _survivor_law(config.s_r, (1 - config.p_e) ** 2)
        ks, classes = range(config.s_r + 1), list(_strong_terms(config))
    a, _ = inner_channel(config.code, [_frame(config, k) for k in ks], [phys for _, _, phys in classes])
    terms = [PatternTerm(label, prob, CovariantParams(config.d, float(a_j)))
             for (label, prob, _), a_j in zip(classes, np.array(p_k) @ a)]
    a_mix = sum(t.probability * t.params.a for t in terms)
    total_p = sum(t.probability for t in terms)
    if abs(total_p - 1.0) > 1e-10:
        raise RuntimeError(f"pattern probabilities sum to {total_p}")
    mixture = CovariantParams(config.d, min(1.0, max(0.0, a_mix)))
    eps = sdp_mod.diamond_error(covariant_choi(mixture), identity_channel(config.d).choi())
    return EffectiveChannelReport(config=config, terms=terms, mixture=mixture, eps_cov=eps)


# ---------------------------------------------------------------------------
# operational Monte Carlo
# ---------------------------------------------------------------------------

def _sample_patterns(config: ProtocolConfig, rng, n_shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Physical-pattern bitmask (bit i: physical qudit i erased) and
    surviving reference-copy count of each of n_shots shots."""
    n_p = config.code.n_p
    if config.model == "strong":
        # independent erasure per qudit; a copy survives iff neither of its
        # two qudits is erased.  Rows are drawn in blocks of ~64k uniforms
        width = n_p + 2 * config.s_r
        phys = np.empty(n_shots, dtype=np.int64)
        survivors = np.empty(n_shots, dtype=np.int64)
        rows = max(1, 2**16 // width)
        for start in range(0, n_shots, rows):
            erased = rng.random((min(rows, n_shots - start), width)) < config.p_e
            phys[start:start + rows] = erased[:, :n_p] @ (1 << np.arange(n_p))
            intact = ~(erased[:, n_p::2] | erased[:, n_p + 1::2])
            survivors[start:start + rows] = intact.sum(axis=1)
        return phys, survivors
    n_copies = config.n_e + 1
    n = config.n
    sizes = np.arange(n_copies) if config.pattern_dist == "uniform_le" else np.array([config.n_e])
    counts = np.array([comb(n, int(k)) for k in sizes], dtype=float)
    k = sizes[rng.choice(len(sizes), size=n_shots, p=counts / counts.sum())]
    # k distinct qudits per shot: the j-th is the t-th of the n - j not yet
    # taken, found by stepping t over the taken ones in increasing order;
    # n marks an unused slot
    taken = np.full((n_shots, int(sizes.max())), n)
    for j in range(taken.shape[1]):
        t = rng.integers(0, n - j, size=n_shots)
        for c in np.sort(taken[:, :j], axis=1).T:
            t += t >= c
        taken[:, j] = np.where(j < k, t, n)
    phys = sum((taken == i).any(axis=1).astype(np.int64) << i for i in range(n_p))
    # copy i owns reference qudits [n_p + 2m i, n_p + 2m(i+1)); any hit ruins it
    hit = np.zeros((n_shots, n_copies), dtype=bool)
    shot, slot = np.nonzero((taken >= n_p) & (taken < n))
    hit[shot, (taken[shot, slot] - n_p) // (2 * config.m)] = True
    return phys, n_copies - hit.sum(axis=1)


# complex entries per chunk of shots that `_score_shots` holds (~1 MB; at 4 MB
# the allocator returns and refaults each chunk's temporaries, ~20% slower)
_SCORE_CHUNK_ENTRIES = 2**16


def _score_shots(code: CodeSpec, phys, u_rels) -> np.ndarray:
    """F_ent = sum_{r,b} |Tr(U'^dag R_r U'^{(x) s} M_b)|^2 / d^2 of each shot.

    A shot erases the physical qudits in bitmask `phys` and measures U'.
    Its explicit Kraus operators K = U^ R_r U'^{(x) s} M_b U^dag, with
    U^ = V U U'^dag, score Tr(V^dag K) against V, which is the trace above
    for any encoding rotation U and gate V, as (V U)^dag U^ = U'^dag.

    Per-shot operands are held with the shot axis last (`_small_matmul`),
    C-contiguous.  The patterns of one erased-set size share the operand
    shapes, so their shots are scored together, in chunks ordered by
    pattern: each shot's U' and its pattern's M columns [s, (y, b)] are
    gathered into stacks, W_b = U'^{(x) s} M_b is applied one tensor leg at
    a time for the whole chunk (`_kron_power_apply`), G_b = W_b U'^dag, and
    Tr(U'^dag R_r W_b) = sum_{s,x} R_r[x,s] G_b[s,x] by one matmul of each
    pattern's flattened R stack against its shots' G.  The recoveries come
    from `recovery_on_survivors`, whose parts `recovery_parts` memoizes.
    """
    d = code.d
    rels_t = np.ascontiguousarray(u_rels.transpose(1, 2, 0))  # np.take copies a strided source whole
    out = np.empty(len(u_rels))
    # np.bincount, not np.unique: np.unique's first call imports modules
    # that add ~1.3 MB to the process's peak RSS
    counts = np.bincount(phys)
    groups: dict = {}
    for mask in np.flatnonzero(counts):
        groups.setdefault(int(mask).bit_count(), []).append(mask)
    for size, group in sorted(groups.items()):
        erased_sets = [[i for i in range(code.n_p) if mask >> i & 1] for mask in group]
        m_ops = np.stack([erased_restriction_kraus(code, e) for e in erased_sets], axis=-1)
        n_b, dim_s = m_ops.shape[:2]
        m_cat = m_ops.transpose(1, 2, 0, 3).reshape(dim_s, d * n_b, len(group))  # [s, (y, b), pattern]
        r_flats = [r.transpose(0, 2, 1).reshape(len(r), dim_s * d)           # [r, (s, x)]
                   for r in (recovery_on_survivors(code, e) for e in erased_sets)]
        idx = np.concatenate([np.flatnonzero(phys == mask) for mask in group])
        pattern = np.repeat(np.arange(len(group)), counts[group])
        n_r = max(len(r) for r in r_flats)
        chunk = max(1, _SCORE_CHUNK_ENTRIES // (3 * dim_s * d * n_b + n_b * n_r))
        for start in range(0, len(idx), chunk):
            sel, pat = idx[start:start + chunk], pattern[start:start + chunk]
            u_sel = np.take(rels_t, sel, axis=2)
            w = _kron_power_apply(u_sel, code.n_p - size, np.take(m_cat, pat, axis=2))
            # U'^dag transposed is U'^*
            g = _small_matmul(u_sel.conj(), w.reshape(dim_s, d, n_b, len(sel)))
            g = g.reshape(dim_s * d, n_b, len(sel))
            edges = np.searchsorted(pat, np.arange(pat[0], pat[-1] + 2))
            for j, lo, hi in zip(range(pat[0], pat[-1] + 1), edges[:-1], edges[1:]):
                traces = r_flats[j] @ g[..., lo:hi].reshape(dim_s * d, -1)  # [r, (b, shot)]
                out[sel[lo:hi]] = np.sum(np.abs(traces.reshape(-1, hi - lo)) ** 2, axis=0) / d**2
    return out


def monte_carlo_epsilon(config: ProtocolConfig) -> tuple[float, float]:
    """Operational estimate of 1 - F_ent of the effective channel.

    Each shot draws an erasure pattern from the configured erasure model
    and the relative rotation U' measured by its surviving copies
    (`_frame`; strong s_r = 0 makes every shot a Haar guess), and scores
    its recovered channel on explicit Kraus operators (`_score_shots`),
    which read U' alone: no encoding rotation or gate is drawn.  Shots are
    drawn in bulk, U' by one inverse-CDF sampling call per surviving-copy
    count, and scored per erased-set size.  The default 20,000 shots of
    `covqec simulate --mc` (five-qubit code, one BLAS thread, after the
    exact channel) take ~0.07 s (strong, s_r = 6, p_e = 0.2) and ~0.085 s
    (weak, m = 12) on one core of a 2-core x86-64 VM (best of 15; the
    host's speed drifts by up to ~1.5x), about 2/3 of it scoring.
    """
    rng = np.random.default_rng(config.seed)
    n_shots = config.mc_samples
    phys, survivors = _sample_patterns(config, rng, n_shots)
    u_rels = np.empty((n_shots, config.d, config.d), dtype=complex)
    for k in np.flatnonzero(np.bincount(survivors)):
        idx = np.flatnonzero(survivors == k)
        u_rels[idx] = rf.sample_relative_rotations(_frame(config, int(k)), len(idx), rng)
    fidelities = _score_shots(config.code, phys, u_rels)
    est = float(1.0 - fidelities.mean())
    stderr = float(fidelities.std(ddof=1) / np.sqrt(n_shots))
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
    timing: bool = False,
) -> list[SweepRow]:
    """Rows of (n, bounds, reference-frame error proxy) over a grid of n.

    The proxy column is 1 - min_overlap of the weak spec (weak model) or
    1 - F_{s'} at the no-loss survivor count (strong model); eps_cov is
    simulated only on request (it needs full effective-channel runs), on
    the code with n_p physical qudits (`_code_for_np`: 1 or 5).
    """
    code = _code_for_np(n_p) if simulate else None
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
            proxy = 1.0 - rf.min_overlap(rf.weak_spec(d, m), n_p + d - 1)
            upper = bounds_mod.theorem1_bound(d, n_e, n_p, n_r).value
            lower = bounds_mod.prop1_lower(n, n_e).value
            noise = float(n_e)
            model_kw = dict(n_e=n_e, m=m, pattern_dist="exact_ne")
        elif model == "strong":
            n_r = n - n_p
            if n_r <= 0 or n_r % 2:
                raise ValueError(f"n={n} incompatible with n_p={n_p}: need even n_r")
            s_r = n_r // 2
            proxy = 1.0 - rf.f_strong(d, s_r, n_p + d - 1)
            upper = bounds_mod.theorem2_bound(d, p_e, n, 0.1).value
            lower = bounds_mod.prop2_lower(n, p_e).value
            noise = p_e
            model_kw = dict(p_e=p_e, s_r=s_r)
        else:
            raise ValueError("model must be 'weak' or 'strong'")
        eps = float("nan")
        if simulate:
            cfg = ProtocolConfig(d=d, model=model, code=code, seed=seed, **model_kw)
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
    """Least-squares slope of log y against log x; needs two distinct x."""
    if len(set(xs)) < 2:
        raise ValueError("a log-log slope needs at least two distinct x")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    sx, sy = lx.sum(), ly.sum()
    return float((n * (lx * ly).sum() - sx * sy) / (n * (lx * lx).sum() - sx * sx))
