"""Exact SU(d) representation combinatorics.

Young diagrams are plain tuples of non-increasing non-negative integers;
trailing zeros are allowed on input and stripped by :func:`normalize`
(the empty diagram is ``()``).  Everything combinatorial is computed in
exact integer / rational arithmetic; floats only enter through the SU(2)
character at explicit eigenphases.

Conventions
-----------
* A diagram labels an SU(d) irrep once it has at most ``d`` rows.  Two
  diagrams differing by full columns of height ``d`` label the same irrep;
  box counts are nevertheless kept everywhere, because the Schur-Weyl
  bookkeeping of the reference-frame constructions is by box count.
* The SU(2) character ``su2_character(gap, t)`` is evaluated on the
  eigenphases (t, -t) of a special-unitary matrix, i.e. at
  diag(exp(i t), exp(-i t)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "normalize",
    "pad",
    "boxes",
    "is_diagram",
    "enumerate_diagrams",
    "weyl_dimension",
    "su2_character",
    "lr_coefficient",
    "tensor_decompose",
    "dualize",
    "correlation_count",
    "schur_weyl_prob",
]


def normalize(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a diagram: tuple with trailing zeros stripped."""
    t = tuple(int(r) for r in rows)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def pad(rows: Iterable[int], d: int) -> tuple[int, ...]:
    """Diagram as a length-d tuple (trailing zeros restored)."""
    t = normalize(rows)
    if len(t) > d:
        raise ValueError(f"diagram {t} has more than {d} rows")
    return t + (0,) * (d - len(t))


def boxes(rows: Iterable[int]) -> int:
    return sum(normalize(rows))


def is_diagram(rows: Iterable[int], d: int) -> bool:
    t = tuple(int(r) for r in rows)
    if any(r < 0 for r in t):
        return False
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        return False
    return len(normalize(t)) <= d


def enumerate_diagrams(n_boxes: int, d: int) -> list[tuple[int, ...]]:
    """All partitions of ``n_boxes`` into at most ``d`` parts.

    Returned in lexicographically decreasing order, e.g.
    enumerate_diagrams(4, 2) == [(4,), (3, 1), (2, 2)].
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if n_boxes < 0:
        raise ValueError("n_boxes must be non-negative")
    out: list[tuple[int, ...]] = []

    def rec(rem: int, cap: int, prefix: list[int]) -> None:
        if rem == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == d - 1:
            if rem <= cap:
                out.append(tuple(prefix) + (rem,))
            return
        for part in range(min(rem, cap), 0, -1):
            prefix.append(part)
            rec(rem - part, part, prefix)
            prefix.pop()

    rec(n_boxes, n_boxes, [])
    return out


@lru_cache(maxsize=None)
def _weyl_dimension(lam: tuple[int, ...], d: int) -> int:
    lam = pad(lam, d)
    val = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            val *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert val.denominator == 1
    return int(val)


def weyl_dimension(lam: Sequence[int], d: int) -> int:
    """Dimension of the SU(d) irrep labelled by ``lam``.

    Weyl dimension formula: prod_{i<j} (lam_i - lam_j + j - i) / (j - i).
    Diagrams differing by full columns of height d have equal dimension.
    """
    return _weyl_dimension(normalize(lam), d)


def su2_character(gap: int, theta: float | np.ndarray) -> float | np.ndarray:
    """SU(2) character of the spin-(gap/2) irrep at eigenphases (t, -t).

    Equals sin((gap+1) t) / sin(t), evaluated stably through the monomial
    sum near the degenerate points t = 0, pi.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    safe = np.abs(s) > 1e-7
    out = np.empty_like(theta)
    out[safe] = np.sin((gap + 1) * theta[safe]) / s[safe]
    if not safe.all():
        t = theta[~safe]
        ks = gap - 2 * np.arange(gap + 1)
        out[~safe] = np.cos(np.outer(t, ks)).sum(axis=1)
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=None)
def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam, mu}.

    Counts LR skew tableaux of shape nu/lam and content mu: semistandard
    fillings whose reverse reading word is a lattice word.  Zero whenever
    the box counts do not match or nu does not contain lam.
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if boxes(lam) + boxes(mu) != boxes(nu):
        return 0
    rows = len(nu)
    lam_p = lam + (0,) * (rows - len(lam))
    if len(lam) > rows or any(nu[i] < lam_p[i] for i in range(rows)):
        return 0
    if not mu:
        return 1
    n_mu = len(mu)
    # reverse reading order: rows top to bottom, cells right to left
    cells = [(r, c) for r in range(rows) for c in range(nu[r] - 1, lam_p[r] - 1, -1)]
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (n_mu + 1)
    total = 0

    def rec(i: int) -> None:
        nonlocal total
        if i == len(cells):
            total += 1
            return
        r, c = cells[i]
        hi = filling.get((r, c + 1), n_mu)            # row weakly increasing
        above = filling.get((r - 1, c))               # column strictly increasing
        lo = 1 if above is None else above + 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:  # lattice word condition
                continue
            filling[(r, c)] = v
            counts[v] += 1
            rec(i + 1)
            counts[v] -= 1
            del filling[(r, c)]

    rec(0)
    return total


def tensor_decompose(lam: Sequence[int], mu: Sequence[int], d: int) -> dict[tuple[int, ...], int]:
    """Irrep content of lam (x) mu over SU(d): {nu: c^nu_{lam,mu}}.

    Only nu with at most d rows are kept (deeper LR summands have zero
    SU(d) dimension); box counts are preserved, so full columns are not
    stripped.  Satisfies sum_nu c^nu * dim(nu) = dim(lam) * dim(mu).
    """
    lam, mu = normalize(lam), normalize(mu)
    if len(lam) > d or len(mu) > d:
        raise ValueError("diagram has more than d rows")
    out: dict[tuple[int, ...], int] = {}
    for nu in _candidate_supershapes(lam, boxes(mu), d):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def _candidate_supershapes(lam: tuple[int, ...], extra: int, d: int) -> list[tuple[int, ...]]:
    """Partitions nu ⊇ lam with |nu| = |lam| + extra and at most d rows."""
    lam_p = pad(lam, d)
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, prev: int, prefix: list[int]) -> None:
        if i == d:
            if rem == 0:
                out.append(normalize(prefix))
            return
        lo = lam_p[i]
        hi = min(prev, lam_p[i] + extra)
        # remaining rows must absorb at least sum of lam tail
        tail = sum(lam_p[i + 1:])
        for v in range(hi, lo - 1, -1):
            r = rem - (v - lam_p[i])
            if 0 <= r <= (d - i - 1) * extra and tail <= sum(min(v, lam_p[j] + extra) for j in range(i + 1, d)):
                prefix.append(v)
                rec(i + 1, r, v, prefix)
                prefix.pop()

    rec(0, extra, lam_p[0] + extra, [])
    return out


def dualize(lam: Sequence[int], d: int) -> tuple[int, ...]:
    """Diagram of the complex-conjugate SU(d) irrep: (l1-ld, l1-l(d-1), ..., 0)."""
    lam_p = pad(lam, d)
    return normalize(tuple(lam_p[0] - lam_p[d - 1 - i] for i in range(d)))


def correlation_count(
    lam: Sequence[int],
    lam2: Sequence[int],
    mu: Sequence[int],
    mu2: Sequence[int],
    d: int,
) -> int:
    """Number of paired common irreps: sum_nu c^nu_{lam,mu} * c^nu_{lam2,mu2}.

    Zero unless the total box counts agree.
    """
    lam, lam2, mu, mu2 = map(normalize, (lam, lam2, mu, mu2))
    if boxes(lam) + boxes(mu) != boxes(lam2) + boxes(mu2):
        return 0
    dec = tensor_decompose(lam, mu, d)
    return sum(c * lr_coefficient(lam2, mu2, nu) for nu, c in dec.items())


def schur_weyl_prob(lam: Sequence[int], s: int, d: int) -> Fraction:
    """Schur-Weyl weight of diagram lam among s tensor factors of C^d.

    p = (det Gamma)^-1 * s! / prod_j ltilde_j! * d^-s * prod_{i<j} (ltilde_i - ltilde_j)^2
    with ltilde_j = lam_j + d - j and det Gamma = prod_{j<d} j!.  Exact
    rational; sums to 1 over all diagrams of s boxes with at most d rows.
    The numerator is the integer dim_lam(S_s) dim_lam(SU(d)), formed as one
    exact integer quotient.
    """
    lam_p = pad(lam, d)
    if boxes(lam_p) != s:
        raise ValueError(f"diagram {normalize(lam)} does not have {s} boxes")
    lt = [lam_p[j] + d - 1 - j for j in range(d)]
    num = factorial(s)
    den = 1
    for j in range(d):
        den *= factorial(j) * factorial(lt[j])
        for i in range(j):
            num *= (lt[i] - lt[j]) ** 2
    q, r = divmod(num, den)
    assert r == 0
    return Fraction(q, d**s)
