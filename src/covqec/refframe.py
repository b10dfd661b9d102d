"""Quantum reference frames for storing an unknown SU(d) rotation.

A reference frame state on 2m qudits is specified entirely by its weight
distribution {q_lam} over Young diagrams of m boxes: the state is the
direct sum over irreps of sqrt(q_lam) times a maximally entangled pair,
and the covariant measurement acts as the identity on every multiplicity
register, so no quantity computed here ever depends on anything but the
weights.  The outcome density of the covariant measurement for relative
rotation U is

    p(U) = | sum_lam sqrt(q_lam) chi_lam(U) |^2 ,

a conjugation-invariant probability density with respect to Haar measure.
At d = 2 its exact class coefficients C_g = int p chi_g feed the
effective channel.  The outcome sampler inverts the CDF of the rotation
angle from the same series, w_k = C_k - C_{k-2}, which it builds from the
amplitude lattice sqrt(q) by FFT (`_angle_series`); `class_coefficients`
stays its oracle.

Two families of weights are provided: the sine-squared product weights of
the weak erasure model, supported on an explicit viable set of diagrams
and fixed by d and m alone (`weak_spec`), and the Schur-Weyl weights
describing s' jointly measured maximally entangled pairs in the strong
model (`strong_combined_spec`, which the strong fidelity floor reads too).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import pi, sin, cos

import numpy as np
from numpy.fft import irfft, rfft

from . import young
from .channels import haar_su2

__all__ = [
    "RefFrameSpec",
    "ConfigurationError",
    "g_weight",
    "weak_spec",
    "strong_combined_spec",
    "class_coefficients",
    "sample_relative_rotations",
    "interior_set",
    "min_overlap",
    "appendix_e_sum",
    "appendix_e_closed_form",
    "strong_fidelity_form",
    "f_strong",
    "cost_set",
]


class ConfigurationError(ValueError):
    """Raised for physically inconsistent reference-frame parameters."""


@dataclass(frozen=True)
class RefFrameSpec:
    """Weight distribution {q_lam} over diagrams of m boxes (d rows max)."""

    d: int
    m: int
    weights: dict = field(compare=False)

    def __post_init__(self) -> None:
        total = 0.0
        for lam, q in self.weights.items():
            if q < -1e-15:
                raise ValueError("negative weight")
            if not young.is_diagram(lam, self.d) or young.boxes(lam) != self.m:
                raise ValueError(f"diagram {lam} is not a valid label for m={self.m}, d={self.d}")
            total += q
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.weights, reverse=True)

    def gaps(self) -> np.ndarray:
        """SU(2) row gaps of the support, in support() order (d=2 only)."""
        if self.d != 2:
            raise ValueError("gaps() is a d=2 helper")
        # keys are diagrams of at most two rows, checked on construction
        return np.array([(lam + (0, 0))[0] - (lam + (0, 0))[1] for lam in self.support()])


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------

def g_weight(k: int, big_m: int) -> float:
    """Sine-squared lattice weight g_k = 2/(M+1) sin^2(pi(2k+1)/(2(M+1))).

    Indexed over {0, ..., M}: with M+1 points the weights sum to one
    exactly (the stated range [M] = {1..M} cannot be normalized).
    """
    if not 0 <= k <= big_m:
        raise ValueError(f"index {k} outside {{0..{big_m}}}")
    return 2.0 / (big_m + 1) * sin(pi * (2 * k + 1) / (2 * (big_m + 1))) ** 2


def _weak_lattice(d: int, m: int) -> tuple[int, int]:
    """M = floor((2m/(d(d-1)) - 1)/3) and m0 = m - d(d-1)(3M+1)/2 >= 0 of
    the weak-model frame on 2m qudits."""
    if d < 2:
        raise ConfigurationError("the weak model needs d >= 2")
    big_m = (2 * m - d * (d - 1)) // (3 * d * (d - 1))
    if big_m < 1:
        m_min = 2 * d * (d - 1)
        raise ConfigurationError(
            f"m={m} is too small for the weak model at d={d}; need m >= {m_min} (M >= 1)"
        )
    return big_m, m - d * (d - 1) * (3 * big_m + 1) // 2


def weak_spec(d: int, m: int) -> RefFrameSpec:
    """Weak-model reference frame on 2m qudits: the sine-squared lattice.

    The viable support is an affine lattice of diagrams indexed by
    coordinates lt in {0..M}^(d-1):

        lam_i = mu~_i + (2d - i - 1) M + (d - i) + lt_i   (i < d)
        lam_d = mu~_d + (d - 1) M - sum(lt)

    with M and m0 from `_weak_lattice` and mu~ the flattest diagram with
    m0 boxes.  Every coordinate in the box gives a valid partition of m;
    consecutive-row gaps are at least M+1 apart in their base values so
    shifted diagrams decode uniquely.  Weights are independent products of
    g-weights per coordinate.  The spec depends on d and m alone: the
    erasure count sets only how many copies the protocol keeps.
    """
    big_m, m0 = _weak_lattice(d, m)
    q, r = divmod(m0, d)
    mu_tilde = tuple([q + 1] * r + [q] * (d - r))
    weights: dict = {}
    for lt in itertools.product(range(big_m + 1), repeat=d - 1):
        lam = [mu_tilde[i] + (2 * d - (i + 1) - 1) * big_m + (d - (i + 1)) + lt[i] for i in range(d - 1)]
        lam.append(mu_tilde[d - 1] + (d - 1) * big_m - sum(lt))
        w = 1.0
        for i in range(d - 1):
            w *= g_weight(lt[i], big_m)
        weights[young.normalize(lam)] = w
    return RefFrameSpec(d, m, weights)


def strong_combined_spec(d: int, s_survivors: int) -> RefFrameSpec:
    """Joint spec of s' surviving maximally entangled pairs: Schur-Weyl weights."""
    if s_survivors < 1:
        raise ValueError("need at least one survivor")
    weights = {
        lam: float(young.schur_weyl_prob(lam, s_survivors, d))
        for lam in young.enumerate_diagrams(s_survivors, d)
    }
    return RefFrameSpec(d, s_survivors, weights)


# ---------------------------------------------------------------------------
# outcome distribution
# ---------------------------------------------------------------------------

def class_coefficients(spec: RefFrameSpec, g_max: int) -> np.ndarray:
    """C_g = int dU p(U) chi_g(U) for g = 0..g_max (d = 2), by the
    Clebsch-Gordan rule C_g = sum_{a,b} sqrt(q_a q_b) T(a, b, g) over the
    support gaps, where T = 1 if |a - b| <= g <= a + b and a + b + g is even.

    So p = sum_g C_g chi_g (g <= 2 max_gap), C_0 = sum q, and odd g vanish.
    Continued by chi_{-b-2} = -chi_b, the b-sum runs over the whole window
    a - g, a - g + 2, ..., a + g (the extra terms cancel in pairs), which
    grows by its two ends per step of g: O(support * g_max) time and
    O(support) memory.
    """
    gaps = spec.gaps()
    amps = np.sqrt([spec.weights[lam] for lam in spec.support()])
    n = int(gaps.max()) + g_max + 2
    lattice = np.zeros(2 * n + 1)  # sqrt(q) of label b sits at n + b
    lattice[n + gaps], lattice[n - 2 - gaps] = amps, -amps
    a = n + gaps
    windows = [lattice[a], lattice[a - 1] + lattice[a + 1]]
    out = [amps @ w for w in windows]
    for g in range(2, g_max + 1):  # only the last window of each parity is kept
        windows[g % 2] = windows[g % 2] + lattice[a - g] + lattice[a + g]
        out.append(amps @ windows[g % 2])
    return np.array(out[:g_max + 1])


def _angle_series(spec: RefFrameSpec) -> np.ndarray:
    """w_0..w_{2 top} of pi rho(theta) = w_0 + sum_k w_k cos(k theta), the
    density of the rotation half-angle (d = 2; top = max gap + 1).

    With x_{g+1} = sqrt(q_g) over the support gaps g, pi rho =
    2 |sum_j x_j sin(j theta)|^2, so w_0 = sum q and, for k >= 1, w_k is the
    autocorrelation of x at lags +-k minus its self-convolution at k: one
    rfft/irfft pair, long enough that the negative lags land past the
    entries read.  In the class coefficients, w_k = C_k - C_{k-2}.  Odd k
    vanish exactly, as a spec's gaps share one parity.
    """
    gaps = spec.gaps()
    amps = np.sqrt([spec.weights[lam] for lam in spec.support()])
    top = int(gaps.max()) + 1
    xs = np.zeros(top + 1)
    xs[gaps + 1] = amps
    # lags down to 1 - top wrap to n_fft - top + 1 and up, past index 2 top
    n_fft = 1 << (3 * top).bit_length()
    xf = rfft(xs, n_fft)
    w = irfft(2 * (xf.real**2 + xf.imag**2) - xf * xf, n_fft)[:2 * top + 1]
    w[0] = amps @ amps  # the lag-0 term counts once
    w[1::2] = 0.0
    return w


def sample_relative_rotations(spec: RefFrameSpec, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw U' ~ p(U'|I) for d = 2 as V diag(e^{i theta}, e^{-i theta}) V^dag,
    V Haar, with theta in [0, pi] drawn by inverting its CDF

        pi F = w_0 theta + sum_k w_k sin(k theta) / k

    from the density's cosine series w (`_angle_series`, one FFT pair).
    F and its density are tabulated on N cells, theta_t = pi t / N with N
    the power of two at or above 16 len(w), by one real FFT of length 2N
    each: O(N log N) time and O(N) memory.  Each uniform is bracketed in
    the table and started from one Newton step on its cell's cubic Hermite
    interpolant of F, taken from the linear one; exact Newton steps that
    stay in the bracket (else bisections) then bring F(theta) to it within
    roundoff, in blocks of samples: one step and its check settle most
    samples, and at large gaps many need no step.  U' = cos(theta) I +
    i sin(theta) V sigma_z V^dag is formed in closed form from V's first
    column.
    """
    if spec.d != 2:
        raise NotImplementedError("outcome sampling is implemented for d=2 only")
    w = _angle_series(spec)
    k = np.flatnonzero(w[1:]) + 1

    def cdf(theta):  # F
        return (w[0] * theta + np.sin(np.outer(theta, k)) @ (w[k] / k)) / pi

    def density(theta):  # F', the density of theta
        return (w[0] + np.cos(np.outer(theta, k)) @ w[k]) / pi

    target = rng.random(n_samples) * w[0]
    n_cells = 1 << (16 * len(w) - 1).bit_length()
    grid = np.linspace(0.0, pi, n_cells + 1)
    # sum_k (w_k / k) sin(pi k t / N) = -Im sum_k (w_k / k) e^{-2 pi i k t / 2N}, and
    # pi rho(theta_t) = Re sum_k w_k e^{-2 pi i k t / 2N}
    sines = np.zeros(len(w))
    sines[k] = w[k] / k
    table = (w[0] * grid - rfft(sines, 2 * n_cells).imag) / pi
    slopes = rfft(w, 2 * n_cells).real / n_cells  # rho h, h = pi / N
    cell = np.clip(np.searchsorted(table, target, side="right"), 1, n_cells)
    lo, hi = grid[cell - 1], grid[cell]
    u = (np.clip(np.interp(target, table, grid), lo, hi) - lo) * (n_cells / pi)
    # H(u) = f0 + d0 u + c2 u^2 + c3 u^3 at theta = lo + u h: F and h rho at both ends
    f0, d0, d1 = table[cell - 1], slopes[cell - 1], slopes[cell]
    df = table[cell] - f0
    c2, c3 = 3 * df - 2 * d0 - d1, d0 + d1 - 2 * df
    r = f0 + u * (d0 + u * (c2 + u * c3)) - target
    dh = d0 + u * (2 * c2 + 3 * u * c3)
    newton = np.abs(r) < dh  # a step of less than one cell
    step = u - r / np.where(newton, dh, 1.0)
    u = np.where(newton & (0 <= step) & (step <= 1), step, u)
    theta = np.clip(lo + u * (pi / n_cells), lo, hi)
    block = max(1, 2**18 // len(k))  # its (samples x frequencies) arrays hold 2^18 entries
    for start in range(0, n_samples, block):
        idx = np.arange(start, min(start + block, n_samples))
        for _ in range(64):  # bisection alone exhausts a double in fewer halvings
            t = theta[idx]
            r = cdf(t) - target[idx]
            busy = np.abs(r) > 4 * np.finfo(float).eps * np.abs(w).sum()
            idx, r, t = idx[busy], r[busy], t[busy]
            if not idx.size:
                break
            # only the samples still busy take a step, so only they need F'
            dens = density(t)
            lo[idx], hi[idx] = np.where(r < 0, t, lo[idx]), np.where(r > 0, t, hi[idx])
            newton = np.abs(r) <= dens * (hi[idx] - lo[idx])  # a finite step
            step = t - r / np.where(newton, dens, 1.0)
            inside = newton & (lo[idx] <= step) & (step <= hi[idx])
            theta[idx] = np.where(inside, step, (lo[idx] + hi[idx]) / 2)
    a, b = haar_su2(rng, n_samples)[:, :, 0].T
    z, x = np.abs(a) ** 2 - np.abs(b) ** 2, 2 * a * b.conj()  # V sigma_z V^dag = [[z, x], [x*, -z]]
    cos, isin = np.cos(theta), 1j * np.sin(theta)
    return np.stack([cos + isin * z, isin * x, isin * x.conj(), cos - isin * z], axis=1).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# overlap bound machinery
# ---------------------------------------------------------------------------

def interior_set(spec: RefFrameSpec, n_prime: int) -> set:
    """Support diagrams with every pairwise row gap at least 4 n'."""
    out = set()
    for lam in spec.weights:
        rows = young.pad(lam, spec.d)
        if all(
            abs(rows[i] - rows[j]) >= 4 * n_prime
            for i in range(spec.d)
            for j in range(i + 1, spec.d)
        ):
            out.add(lam)
    return out


def _shifts(d: int, n_prime: int):
    """All integer shift vectors with |delta_i| <= n' and zero sum."""
    for head in itertools.product(range(-n_prime, n_prime + 1), repeat=d - 1):
        last = -sum(head)
        if abs(last) <= n_prime:
            yield head + (last,)


def min_overlap(spec: RefFrameSpec, n_prime: int) -> float:
    """min over shifts of sum_{lam interior} sqrt(q_lam q_{lam+Delta}).

    Weights of shifted diagrams outside the support (or outside the
    partition cone) are zero.
    """
    interior = interior_set(spec, n_prime)
    best = None
    for delta in _shifts(spec.d, n_prime):
        total = 0.0
        for lam in interior:
            rows = young.pad(lam, spec.d)
            shifted = tuple(rows[i] + delta[i] for i in range(spec.d))
            if not young.is_diagram(shifted, spec.d):
                continue
            q2 = spec.weights.get(young.normalize(shifted), 0.0)
            if q2 > 0.0:
                total += np.sqrt(spec.weights[lam] * q2)
        best = total if best is None else min(best, total)
    return float(best if best is not None else 0.0)


def appendix_e_sum(big_m: int, delta: int, n_lo: int) -> float:
    """The g-overlap sum 2/(M+1) sum_{k=n}^{M-n} sin(t_k) sin(t_{k+delta}),
    with t_k = pi(2k+1)/(2(M+1)).

    Coincides with sum_k sqrt(g_k g_{k+delta}) whenever delta <= n_lo
    (all indices stay inside {0..M}, both sines positive), which covers
    every use in the error analysis.  Returns 0 on an empty range.
    """
    if n_lo > big_m - n_lo:
        return 0.0
    # sin(t_k) for k = n..M-n+delta, once: the sum pairs entry i with i + delta
    s = np.sin(pi / (2 * (big_m + 1)) * np.arange(2 * n_lo + 1, 2 * (big_m - n_lo + delta) + 2, 2))
    return float(2.0 / (big_m + 1) * (s[:len(s) - delta] @ s[delta:]))


def appendix_e_closed_form(big_m: int, delta: int, n_lo: int) -> float:
    """Exact trigonometric closed form of appendix_e_sum:

        cos(pi delta/(M+1))/(M+1) * (M - 2n + 1 + sin(2 pi n/(M+1))/sin(pi/(M+1))).
    """
    if n_lo > big_m - n_lo:
        return 0.0
    th = pi / (big_m + 1)
    ratio = 0.0 if n_lo == 0 else sin(2 * n_lo * th) / sin(th)
    return cos(delta * th) / (big_m + 1) * (big_m - 2 * n_lo + 1 + ratio)


# ---------------------------------------------------------------------------
# strong-model fidelity
# ---------------------------------------------------------------------------

def cost_set(d: int, n_p: int) -> list[tuple[int, ...]]:
    """Distinct diagrams in the decomposition of U*_L (x) U_P^{(x) n_p}.

    All have d - 1 + n_p boxes; built by dualizing the fundamental and
    tensoring with n_p further fundamentals.
    """
    current = {young.dualize((1,), d)}
    for _ in range(n_p):
        nxt = set()
        for lam in current:
            nxt.update(young.tensor_decompose(lam, (1,), d))
        current = nxt
    return sorted(current, reverse=True)


_COST_CAP = 24  # the dense T matrix and the face solves stay desk-sized


def strong_fidelity_form(d: int, s_survivors: int, n_prime: int):
    """Cost set and quadratic form Q with F(w) = w^T Q w for the strong model.

    Q_{mu mu'} = sum_nu T_mu(nu) T_mu'(nu) / (dim_mu dim_mu') with
    T_mu(nu) = sum_lam sqrt(p_lam) c^nu_{lam mu} and p the Schur-Weyl
    weights of s' >= 1 survivors (`strong_combined_spec`).

    T is built from the frame side: for each frame diagram lam, in the
    spec's order, and each cost diagram mu, sqrt(p_lam) c is added to the
    column of every nu in lam (x) mu (`young.tensor_decompose`), so only
    the nu that occur are visited.  The cost is |support| * |cost| tensor
    decompositions of at most dim(mu) summands each: linear in the
    frame's support.
    """
    if d not in (2, 3):
        raise ValueError("the strong fidelity form is wired up for d = 2 or 3")
    n_p = n_prime - d + 1
    if n_p < 0:
        raise ValueError("n_prime must be at least d - 1")
    cost = cost_set(d, n_p)
    if len(cost) > _COST_CAP:
        raise ValueError(f"cost set of size {len(cost)} exceeds the cap {_COST_CAP}")
    p = strong_combined_spec(d, s_survivors).weights
    dims = np.array([young.weyl_dimension(mu, d) for mu in cost], dtype=float)
    col = {nu: b for b, nu in enumerate(young.enumerate_diagrams(s_survivors + (d - 1) + n_p, d))}
    t_mat = np.zeros((len(cost), len(col)))
    for lam, pl in p.items():
        amp = np.sqrt(pl)
        for a, mu in enumerate(cost):
            for nu, c in young.tensor_decompose(lam, mu, d).items():
                t_mat[a, col[nu]] += amp * c
    q_mat = (t_mat / dims[:, None]) @ (t_mat / dims[:, None]).T
    return cost, q_mat


def f_strong(d: int, s_survivors: int, n_prime: int) -> float:
    """Worst-case fidelity floor F_{s'} of the strong model (d = 2 or 3).

    The exact minimum over the probability simplex of the convex quadratic
    from strong_fidelity_form, by one finite active-set solve.
    """
    _, q_mat = strong_fidelity_form(d, s_survivors, n_prime)
    return _min_quadratic_on_simplex(q_mat)


def _min_quadratic_on_simplex(q_mat: np.ndarray) -> float:
    """min of w^T Q w over the probability simplex, Q positive semidefinite.

    Primal active set (Lawson-Hanson) from the vertex of smallest Q_ii: free
    the coordinate of most negative reduced gradient 2(Qw)_j - 2w^T Qw, move
    to the minimizer on the free face (its KKT system solved by least squares,
    as Q may be singular), and step back to the boundary, dropping a weight,
    whenever a free weight would turn non-positive.
    """
    k = q_mat.shape[0]
    tol = 1e-13 * np.abs(q_mat).max()
    free = [int(np.argmin(np.diag(q_mat)))]
    w = np.eye(k)[free[0]]
    for _ in range(4 * k * k):
        kkt = np.pad(2 * q_mat[np.ix_(free, free)], (0, 1), constant_values=1.0)
        kkt[-1, -1] = 0.0
        z = np.linalg.lstsq(kkt, np.eye(len(kkt))[-1], rcond=None)[0][:-1]
        z = z / z.sum()
        if (z > 0).all():
            w[:] = 0.0
            w[free] = z
            f = float(w @ q_mat @ w)
            grad = 2 * (q_mat @ w) - 2 * f
            grad[free] = np.inf
            if grad.min() >= -tol:
                return max(0.0, min(1.0, f))
            free.append(int(np.argmin(grad)))
        else:
            wf, out = w[free], z <= 0
            ratios = wf[out] / (wf[out] - z[out])
            w[free] = wf + ratios.min() * (z - wf)
            w[np.array(free)[out][np.argmin(ratios)]] = 0.0
            free = [i for i in free if w[i] > 0]
    raise RuntimeError("active-set solve did not terminate")
