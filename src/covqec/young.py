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
* Tensor products follow one Littlewood-Richardson rule
  (``tensor_decompose``): the rows of mu are added to lam one label at a
  time, each as a horizontal strip that keeps the reading word a lattice
  word, so one enumeration gives every c^nu_{lam,mu} at once.
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
    if val.denominator != 1:
        raise RuntimeError(f"Weyl dimension of {lam} at d={d} is not an integer")
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


def tensor_decompose(lam: Sequence[int], mu: Sequence[int], d: int) -> dict[tuple[int, ...], int]:
    """Irrep content of lam (x) mu over SU(d): {nu: c^nu_{lam,mu}}.

    Counts Littlewood-Richardson tableaux directly.  Starting from lam
    padded to d rows, the mu_i boxes labelled i are added as a horizontal
    strip, k_r to row r with new row r <= old row r - 1, and for i >= 2
    the strip keeps the reverse reading word a lattice word:
    k_1 + ... + k_r <= (label i - 1's boxes in rows above r).  Each
    completed filling adds 1 to the count of its shape.  Only nu with at
    most d rows arise (deeper LR summands have zero SU(d) dimension); box
    counts are preserved, so full columns are not stripped.  Satisfies
    sum_nu c^nu * dim(nu) = dim(lam) * dim(mu).
    """
    lam, mu = normalize(lam), normalize(mu)
    if len(lam) > d or len(mu) > d:
        raise ValueError("diagram has more than d rows")
    if not mu:
        return {lam: 1}
    out: dict[tuple[int, ...], int] = {}

    def fill(i, r, shape, prev, strip, left, slack):
        # label i's strip has `strip` boxes in rows < r of `shape` and
        # `left` still to place; label i - 1 had `prev`, and `slack` more
        # of label i fit in row r before the reading word stops being lattice
        if r == d:
            if left:
                return
            nu = tuple(a + k for a, k in zip(shape, strip))
            if i + 1 < len(mu):
                fill(i + 1, 0, nu, strip, (), mu[i + 1], 0)
            else:
                nu = normalize(nu)
                out[nu] = out.get(nu, 0) + 1
            return
        top = min(left, slack) if r == 0 else min(left, slack, shape[r - 1] - shape[r])
        for k in range(top + 1):
            fill(i, r + 1, shape, prev, strip + (k,), left - k, slack - k + prev[r])

    # label 1 has no lattice bound: its slack is all of mu_1 in every row
    fill(0, 0, pad(lam, d), (0,) * d, (), mu[0], mu[0])
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
    dec2 = tensor_decompose(lam2, mu2, d)
    return sum(c * dec2.get(nu, 0) for nu, c in tensor_decompose(lam, mu, d).items())


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
    if r:
        raise RuntimeError(f"Schur-Weyl numerator of {normalize(lam)} is not divisible")
    return Fraction(q, d**s)
