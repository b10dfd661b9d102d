"""Closed-form evaluators for the analytic error bounds.

Every bound is reported through a BoundReport carrying its validity flags:
whether asymptotically vanishing terms were dropped, and whether the
stated preconditions were certified.  Dropped terms are flagged, never
estimated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import ceil, comb, factorial, log, pi

import numpy as np

from . import young

__all__ = [
    "Hamiltonian",
    "BoundReport",
    "lemma1_assemble",
    "theorem1_bound",
    "theorem2_bound",
    "prop1_lower",
    "prop2_lower",
    "lemma4_lower",
    "fisher_upper_weak",
    "fisher_upper_strong",
    "kraus_zero_check",
    "erasure_kraus_family",
    "compression_dims",
    "tdesign_gate_count",
    "local_circuit_sampler",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal generator with eigenvalues h_1..h_d (flag level gets 0)."""

    eigenvalues: tuple[float, ...]

    @classmethod
    def balanced_qubit(cls) -> "Hamiltonian":
        return cls((1.0, -1.0))

    @property
    def delta(self) -> float:
        return max(self.eigenvalues) - min(self.eigenvalues)

    @property
    def sup_norm(self) -> float:
        return max(abs(x) for x in self.eigenvalues)


@dataclass(frozen=True)
class BoundReport:
    value: float
    asymptotic_terms_dropped: bool
    preconditions_met: bool
    note: str = ""

    def __post_init__(self) -> None:
        if not self.value >= 0:  # NaN fails too
            raise ValueError(f"a bound must be non-negative, not {self.value}")


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------

def lemma1_assemble(d: int, terms) -> BoundReport:
    """eps_cov <= 9 d sum_j p_j eps_j with
    eps_j = max(eps_code_j, 1 - F_wc_j) if F_wc_j >= 3/4 else 1."""
    total_p = acc = 0.0
    for p, eps_code, f_wc in terms:
        total_p += p
        acc += p * (max(eps_code, 1.0 - f_wc) if f_wc >= 0.75 else 1.0)
    if not abs(total_p - 1.0) <= 1e-12:
        raise ValueError(f"pattern probabilities sum to {total_p}")
    return BoundReport(
        value=9 * d * acc,
        asymptotic_terms_dropped=False,
        preconditions_met=True,
    )


def theorem1_bound(d: int, n_e: int, n_p: int, n_r: int) -> BoundReport:
    """Leading term of the weak-model (Heisenberg-limited) upper bound:

        81 pi^2 d^4 (d-1)^2 (n_e+1)^2 (n_p+d-1)^2 / (2 n_r^2),

    with the O(n_r^-3) remainder dropped and flagged.
    """
    if n_e < 0 or n_r <= 0 or n_r % 2:
        raise ValueError("n_r must be a positive even integer, and n_e non-negative")
    val = 81 * pi**2 * d**4 * (d - 1) ** 2 * (n_e + 1) ** 2 * (n_p + d - 1) ** 2 / (2 * n_r**2)
    return BoundReport(
        value=val,
        asymptotic_terms_dropped=True,
        preconditions_met=True,
        note="O(n_r^-3) remainder dropped",
    )


def theorem2_bound(d: int, p_e: float, n: int, alpha: float) -> BoundReport:
    """Strong-model upper bound

        9 (d^2 - d + 32) d^{(d^2-d+2)/2} / ((2 - 4 p_e) prod_j (j-1)!) * (1/n)^{1-alpha},

    valid for n beyond an uncertified threshold n_alpha.
    """
    if not 0 < p_e < 0.5:
        raise ValueError("p_e must lie in (0, 1/2)")
    if n < 1:
        raise ValueError("n must be positive")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    denom = (2 - 4 * p_e) * np.prod([factorial(j - 1) for j in range(1, d + 1)])
    coeff = 9 * (d * d - d + 32) * d ** ((d * d - d + 2) / 2) / denom
    return BoundReport(
        value=float(coeff * (1.0 / n) ** (1 - alpha)),
        asymptotic_terms_dropped=True,
        preconditions_met=False,
        note="requires n >= n_alpha with n_alpha existential (not certified)",
    )


def prop1_lower(n: int, n_e: int) -> BoundReport:
    """Weak-model converse: eps_cov >= 1 / (16 n^2 (1 + 1/n_e))."""
    if n < 1 or n_e < 1:
        raise ValueError("n and n_e must be positive")
    return BoundReport(
        value=1.0 / (16 * n * n * (1 + 1 / n_e)),
        asymptotic_terms_dropped=False,
        preconditions_met=True,
        note="uniform erasure of exactly n_e qudits, p_0 = 0",
    )


def prop2_lower(n: int, p_e: float) -> BoundReport:
    """Strong-model converse: eps_cov >= p_e / (64 n (1 - p_e))."""
    if not 0 < p_e < 1:
        raise ValueError("p_e must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return BoundReport(
        value=p_e / (64 * n * (1 - p_e)),
        asymptotic_terms_dropped=False,
        preconditions_met=True,
    )


def lemma4_lower(delta_h: float, i_fisher_upper: float) -> BoundReport:
    """Metrological converse: eps_cov >= (Delta H)^2 / (16 I_Fisher)."""
    if delta_h < 0:
        raise ValueError("Delta H must be non-negative")
    if np.isinf(i_fisher_upper):
        return BoundReport(0.0, False, True, note="trivial: I = inf")
    if i_fisher_upper <= 0:
        raise ValueError("the Fisher information upper bound must be positive")
    return BoundReport(
        value=delta_h**2 / (16 * i_fisher_upper),
        asymptotic_terms_dropped=False,
        preconditions_met=True,
    )


def fisher_upper_weak(n: int, n_e: int, h: Hamiltonian) -> BoundReport:
    """I_Fisher <= 4 n^2 (1 + 1/n_e) ||H||_inf^2 for the uniform weak model."""
    if n < 1 or n_e < 1:
        raise ValueError("n and n_e must be positive")
    val = 4 * n * n * (1 + 1 / n_e) * h.sup_norm**2
    return BoundReport(
        value=val,
        asymptotic_terms_dropped=False,
        preconditions_met=True,
        note="uniform p_s over size-n_e subsets, p_0 = 0",
    )


def fisher_upper_strong(n: int, delta_h: float, p_e: float) -> BoundReport:
    """I_Fisher = 4 n (Delta H)^2 (1 - p_e)/p_e for the independent model."""
    if not 0 < p_e < 1:
        raise ValueError("p_e must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return BoundReport(
        value=4 * n * delta_h**2 * (1 - p_e) / p_e,
        asymptotic_terms_dropped=False,
        preconditions_met=True,
    )


# ---------------------------------------------------------------------------
# Kraus-family Fisher machinery
# ---------------------------------------------------------------------------

def erasure_kraus_family(n: int, n_e: int, h: Hamiltonian, theta: float, p_0: float = 0.0) -> np.ndarray:
    """Kraus stack of C . U_theta^(x)n on the flagged space (C^{d+1})^n.

    C erases each exactly-n_e subset s with the uniform probability
    p_s = (1 - p_0) / binom(n, n_e), plus an identity branch of weight
    p_0 in [0, 1]; phases exp(i theta h / (binom(n-1, n_e-1) p_s)) on the
    flag transitions make the family theta-covariant in the sense that
    sum dK/dtheta^dag K = 0.
    """
    if not 0 <= p_0 <= 1:
        raise ValueError("p_0 must lie in [0, 1]")
    d = len(h.eigenvalues)
    dd = d + 1
    subsets = [frozenset(s) for s in itertools.combinations(range(n), n_e)]
    ps = (1 - p_0) / len(subsets)

    h_ext = np.array(list(h.eigenvalues) + [0.0])
    u_slot = np.diag(np.exp(-1j * theta * h_ext))

    u_all = reduce(np.kron, [u_slot] * n)
    kraus = [np.sqrt(p_0) * u_all] if p_0 > 0 else []
    if ps == 0:
        return np.array(kraus)  # p_0 = 1: the identity branch alone
    binom = comb(n - 1, n_e - 1)
    for s in subsets:
        slots = sorted(s)
        for levels in itertools.product(range(dd), repeat=n_e):
            ops = [np.eye(dd, dtype=complex)] * n
            for slot, lvl in zip(slots, levels):
                e = np.zeros((dd, dd), dtype=complex)
                e[d, lvl] = np.exp(1j * theta * h_ext[lvl] / (binom * ps))
                ops[slot] = e
            kraus.append(np.sqrt(ps) * reduce(np.kron, ops) @ u_all)
    return np.array(kraus)


def kraus_zero_check(n: int, n_e: int, h: Hamiltonian, theta: float,
                     p_0: float = 0.0) -> tuple[float, float]:
    """Residuals of the two Kraus-family identities at the given theta.

    Derivatives are central finite differences (step 1e-5) with one
    Richardson extrapolation step.  Returns (||sum dK^dag K||_inf,
    ||sum dK^dag dK - closed form||_inf) with the closed form

        sum_s (sum_j H_{s_j})^2 / (binom(n-1, n_e-1)^2 p_s) - (sum_l H_l)^2,

    which for single erasures reduces to sum_s (H^2)_s / (binom^2 p_s)
    - (sum_l H_l)^2; for n_e >= 2 the subset sum must be squared as a
    whole (the cross terms H_{s_j} H_{s_j'} do not cancel).
    """
    if n > 4 or n_e > 2:
        raise ValueError("dense check limited to n <= 4, n_e <= 2")
    d = len(h.eigenvalues)
    dd = d + 1

    def family(t):
        return erasure_kraus_family(n, n_e, h, t, p_0=p_0)

    k0 = family(theta).reshape(-1, dd**n)  # the stack, operators row-stacked
    if not np.max(np.abs(k0.conj().T @ k0 - np.eye(dd**n))) < 1e-10:
        raise RuntimeError("erasure Kraus family is not trace preserving")

    def deriv(eps):
        return (family(theta + eps) - family(theta - eps)).reshape(k0.shape) / (2 * eps)

    step = 1e-5
    dk = (4 * deriv(step / 2) - deriv(step)) / 3  # Richardson: O(step^4)

    res_zero = float(np.linalg.norm(dk.conj().T @ k0, 2))  # sum dK^dag K
    dd_op = dk.conj().T @ dk
    h_ext = np.array(list(h.eigenvalues) + [0.0])
    h_slot = np.diag(h_ext).astype(complex)

    def embed_at(op, slot):
        ops = [np.eye(dd, dtype=complex)] * n
        ops[slot] = op
        return reduce(np.kron, ops)

    h_total = sum(embed_at(h_slot, l) for l in range(n))
    subsets = [frozenset(s) for s in itertools.combinations(range(n), n_e)]
    p_s = (1 - p_0) / len(subsets)
    binom = comb(n - 1, n_e - 1)
    closed = -h_total @ h_total
    for s in subsets:
        subset_sum = sum(embed_at(h_slot, j) for j in sorted(s))
        closed = closed + subset_sum @ subset_sum / (binom**2 * p_s)
    res_closed = float(np.linalg.norm(dd_op - closed, 2))
    return res_zero, res_closed


# ---------------------------------------------------------------------------
# compression and t-design counts
# ---------------------------------------------------------------------------

def compression_dims(d: int, n_r: int) -> tuple[int, int]:
    """Effective reference dimension: exact sum of squared irrep dimensions
    over diagrams of n_r/2 boxes, and the polynomial bound (n_r/2+1)^(d^2-1)."""
    if n_r % 2 or n_r <= 0:
        raise ValueError("n_r must be a positive even integer")
    half = n_r // 2
    exact = sum(young.weyl_dimension(lam, d) ** 2 for lam in young.enumerate_diagrams(half, d))
    bound = (half + 1) ** (d * d - 1)
    return exact, bound


def tdesign_gate_count(n_qubits_per_qudit: int, n_p: int, n_r: int, eps: float) -> int:
    """Two-qubit gate count for the random-circuit t-design construction:

        k = 170000 N ceil(log(4 t))^2 t^8.1 (2 N t + 1 + log(1/eps)),

    with t = n_p + n_r/2 + 1 and natural logarithms; the result is rounded
    up to an integer gate count.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if n_r % 2:
        raise ValueError("n_r must be even")
    t = n_p + n_r // 2 + 1
    val = (
        170000
        * n_qubits_per_qudit
        * ceil(log(4 * t)) ** 2
        * t**8.1
        * (2 * n_qubits_per_qudit * t + 1 + log(1 / eps))
    )
    return int(ceil(val))


def _haar_su4_batch(rng: np.random.Generator, k: int) -> np.ndarray:
    """k Haar-random SU(4) matrices: QR of a stacked Ginibre batch with the
    phases of diag(R) moved into Q (Mezzadri, math-ph/0609050), then
    det^(-1/4) to land in SU(4)."""
    z = (rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q * np.linalg.det(q)[:, None, None] ** (-1 / 4)


def local_circuit_sampler(n_qubits: int, k: int, seed: int) -> list[tuple[int, np.ndarray]]:
    """k layers of the local random circuit: a uniformly random site
    l in {1..N-1} and a Haar-random SU(4) gate on qubits (l, l+1)."""
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    rng = np.random.default_rng(seed)
    sites = rng.integers(1, n_qubits, size=k)
    return list(zip(sites.tolist(), _haar_su4_batch(rng, k)))
