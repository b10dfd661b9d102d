"""Dense finite-dimensional channel algebra and SU(2) Haar quadrature.

Channels are kept small and explicit.  A Kraus family is one complex
(K, d_out, d_in) array, so composition, the trace-preservation check and
the Choi matrix are each one numpy product over the whole stack.  Choi
matrices are state-normalized throughout, J = (N (x) I)(Phi+), indexed
(out, in) against (out, in); the unnormalized convention needed by the
fidelity SDP is produced at that call site only.

Matrix square roots go through Hermitian eigendecompositions with negative
eigenvalues clipped at -1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KrausChannel",
    "ChoiMatrix",
    "CovariantParams",
    "HaarQuadrature",
    "CovarianceViolationError",
    "identity_channel",
    "depolarizing_channel",
    "compose",
    "uhlmann_fidelity",
    "entanglement_fidelity",
    "entanglement_error",
    "covariant_params",
    "covariant_choi",
    "cov_fidelity_and_errors",
    "lemma5_bound",
    "haar_quadrature_su2",
    "su2_from_euler",
    "su2_eigenphase",
    "haar_su2",
    "max_entangled_state",
    "trace_norm",
    "sqrtm_psd",
]

_HERM_TOL = 1e-10


class CovarianceViolationError(ValueError):
    """Raised when a Choi matrix is not covariant to the requested tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"channel is not covariant: reconstruction residual {residual:.3e} > {tol:.3e}")


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass
class KrausChannel:
    """A channel by its Kraus operators, held as one complex (K, dim_out,
    dim_in) stack; a list of operators is stacked once, here (numpy raises
    ValueError on a ragged list)."""
    dim_in: int
    dim_out: int
    kraus: np.ndarray

    def __post_init__(self) -> None:
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if self.kraus.ndim != 3 or self.kraus.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(f"Kraus stack shape {self.kraus.shape} != (K, {self.dim_out}, {self.dim_in})")
        flat = self.kraus.reshape(-1, self.dim_in)  # sum_k K^dag K = flat^dag flat
        if np.max(np.abs(flat.conj().T @ flat - np.eye(self.dim_in))) > _HERM_TOL:
            raise ValueError("Kraus operators are not trace preserving")

    def choi(self) -> "ChoiMatrix":
        v = self.kraus.reshape(len(self.kraus), -1)
        return ChoiMatrix(self.dim_in, self.dim_out, (v.T @ v.conj()) / self.dim_in)


@dataclass
class ChoiMatrix:
    dim_in: int
    dim_out: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        n = self.dim_in * self.dim_out
        if self.mat.shape != (n, n):
            raise ValueError("Choi matrix has wrong shape")
        if np.max(np.abs(self.mat - self.mat.conj().T)) > _HERM_TOL:
            raise ValueError("Choi matrix is not Hermitian")
        if np.linalg.eigvalsh(self.mat).min() < -_HERM_TOL:
            raise ValueError("Choi matrix is not PSD")
        marg = _partial_trace_out(self.mat, self.dim_out, self.dim_in)
        if np.max(np.abs(marg - np.eye(self.dim_in) / self.dim_in)) > _HERM_TOL:
            raise ValueError("Choi matrix is not trace preserving")

    def unnormalized(self) -> np.ndarray:
        return self.mat * self.dim_in


@dataclass(frozen=True)
class CovariantParams:
    """A d -> d channel commuting with U (.) U^dag, parametrized by its
    Choi weight off the maximally entangled state: J = (1-a) Phi+ + a rho_perp."""
    d: int
    a: float


def _partial_trace_out(mat: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    t = mat.reshape(d_out, d_in, d_out, d_in)
    return np.einsum("aiak->ik", t)


def max_entangled_state(d: int) -> np.ndarray:
    """Projector onto |Phi+> = sum_i |ii> / sqrt(d), as a d^2 x d^2 matrix."""
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# constructors and algebra
# ---------------------------------------------------------------------------

def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d, d, np.eye(d, dtype=complex)[None])


def depolarizing_channel(p: float) -> KrausChannel:
    """The qubit channel rho -> (1-p) rho + p I/2: sqrt(1-p) I and the
    sqrt(p/2) |i><j|."""
    d = 2
    units = np.eye(d * d).reshape(d * d, d, d)  # |i><j| at index i d + j
    return KrausChannel(d, d, np.concatenate([[np.sqrt(1 - p) * np.eye(d)], np.sqrt(p / d) * units]))


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """outer . inner (inner acts first); Kraus A_a B_b at index a K_inner + b."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("channel dimensions do not compose")
    kraus = (outer.kraus[:, None] @ inner.kraus[None]).reshape(-1, outer.dim_out, inner.dim_in)
    return KrausChannel(inner.dim_in, outer.dim_out, kraus)


def _as_choi(x) -> ChoiMatrix:
    return x.choi() if isinstance(x, KrausChannel) else x


# ---------------------------------------------------------------------------
# fidelity and error measures
# ---------------------------------------------------------------------------

def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if w.min() < -1e-8:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def trace_norm(h: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("states must share a dimension")
    s = np.linalg.svd(sqrtm_psd(sigma) @ sqrtm_psd(rho), compute_uv=False)
    return float(min(1.0, s.sum() ** 2))


def entanglement_fidelity(a, b) -> float:
    """F_ent(A, B): Uhlmann fidelity of the Choi states."""
    ja, jb = _as_choi(a), _as_choi(b)
    if (ja.dim_in, ja.dim_out) != (jb.dim_in, jb.dim_out):
        raise ValueError("channels must share dimensions")
    return uhlmann_fidelity(ja.mat, jb.mat)


def entanglement_error(a, b) -> float:
    """eps_ent(A, B): half the trace distance of the Choi states."""
    ja, jb = _as_choi(a), _as_choi(b)
    if (ja.dim_in, ja.dim_out) != (jb.dim_in, jb.dim_out):
        raise ValueError("channels must share dimensions")
    return 0.5 * trace_norm(ja.mat - jb.mat)


# ---------------------------------------------------------------------------
# covariant d -> d channels
# ---------------------------------------------------------------------------

def covariant_choi(params: CovariantParams) -> ChoiMatrix:
    d = params.d
    phi = max_entangled_state(d)
    rho_perp = (np.eye(d * d) - phi) / (d * d - 1)
    return ChoiMatrix(d, d, (1 - params.a) * phi + params.a * rho_perp)


def covariant_params(choi: ChoiMatrix, tol: float = 1e-8) -> CovariantParams:
    """Parameters of a covariant d -> d channel; rejects non-covariant input."""
    if choi.dim_in != choi.dim_out:
        raise ValueError("covariant decomposition needs a d -> d channel")
    d = choi.dim_in
    phi = max_entangled_state(d)
    a = float(np.real(1.0 - np.trace(phi @ choi.mat)))
    params = CovariantParams(d, a)
    residual = float(np.max(np.abs(choi.mat - covariant_choi(params).mat)))
    if residual > tol:
        raise CovarianceViolationError(residual, tol)
    return params


def cov_fidelity_and_errors(pa: CovariantParams, pb: CovariantParams) -> tuple[float, float]:
    """Closed forms on the covariant family:
    F_ent = (sqrt((1-a)(1-b)) + sqrt(ab))^2, eps_ent = |a-b|."""
    if pa.d != pb.d:
        raise ValueError("parameters must share d")
    a, b = pa.a, pb.a
    f = (np.sqrt((1 - a) * (1 - b)) + np.sqrt(a * b)) ** 2
    return float(f), float(abs(a - b))


def lemma5_bound(pa: CovariantParams, f_ent_ab: float, d: int) -> float:
    """Upper bound 9d * max{eps_ent(A, I), 1 - F_ent(A, B)} on eps_wc(B, I).

    Valid only when eps_ent(A, B) <= 1/2; callers check the precondition and
    a trivial bound of 1 is returned when it fails.
    """
    if not 0.0 <= f_ent_ab <= 1.0 + 1e-12:
        raise ValueError("F_ent out of range")
    b_est = pa.a  # eps_ent(A, I) = a
    val = 9 * d * max(b_est, 1.0 - f_ent_ab)
    return float(min(val, 9 * d))


# ---------------------------------------------------------------------------
# SU(2) parametrization and Haar quadrature
# ---------------------------------------------------------------------------

def su2_from_euler(alpha, beta, gamma) -> np.ndarray:
    """U = e^{-i alpha sz/2} e^{-i beta sy/2} e^{-i gamma sz/2}; broadcasts."""
    alpha, beta, gamma = np.broadcast_arrays(*map(np.asarray, (alpha, beta, gamma)))
    cb = np.cos(beta / 2)
    sb = np.sin(beta / 2)
    u = np.empty(alpha.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = np.exp(-0.5j * (alpha + gamma)) * cb
    u[..., 0, 1] = -np.exp(-0.5j * (alpha - gamma)) * sb
    u[..., 1, 0] = np.exp(0.5j * (alpha - gamma)) * sb
    u[..., 1, 1] = np.exp(0.5j * (alpha + gamma)) * cb
    return u


def su2_eigenphase(u: np.ndarray) -> np.ndarray:
    """Rotation half-angle theta in [0, pi]: eigenvalues are e^{+-i theta}."""
    tr = np.real(u[..., 0, 0] + u[..., 1, 1]) / 2.0
    return np.arccos(np.clip(tr, -1.0, 1.0))


def haar_su2(rng: np.random.Generator, size: int) -> np.ndarray:
    """Batch of Haar-random SU(2) matrices via unit quaternions."""
    q = rng.standard_normal((size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    u = np.empty((size, 2, 2), dtype=complex)
    u[:, 0, 0] = q[:, 0] + 1j * q[:, 3]
    u[:, 0, 1] = q[:, 2] + 1j * q[:, 1]
    u[:, 1, 0] = -q[:, 2] + 1j * q[:, 1]
    u[:, 1, 1] = q[:, 0] - 1j * q[:, 3]
    return u


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., i, k, n] = sum_j a[..., i, j, n] b[..., j, k, n], a @ b along
    a trailing stack axis, summed as broadcast products over the short axis j
    with the stack on the inner loop: np.matmul runs one tiny GEMM per
    stacked product, several times the arithmetic at d = 2."""
    out = a[..., :, 0, None, :] * b[..., None, 0, :, :]
    for j in range(1, a.shape[-2]):
        out += a[..., :, j, None, :] * b[..., None, j, :, :]
    return out


def _kron_power_apply(us: np.ndarray, k: int, m: np.ndarray) -> np.ndarray:
    """U^{(x) k} @ M for each U of a (d, d, n) stack and its (d^k, c) matrix
    M of a (d^k, c, n) stack, as a (d^k, c, n) stack, without forming
    U^{(x) k}: U acts on one tensor leg of M's rows at a time, the legs
    ordered as in np.kron."""
    d, n = us.shape[0], us.shape[-1]
    x = m
    for leg in range(k):
        x = _small_matmul(us, x.reshape(d**leg, d, -1, n))
    return x.reshape(m.shape)


@dataclass
class HaarQuadrature:
    """Product rule for Haar integration over SU(2).

    Gauss-Legendre in cos(beta) (`order` nodes, from `_gauss_legendre`) and
    uniform grids in alpha over [0, 2pi) and gamma over [0, 4pi) (2 * order
    nodes each; the 4pi range covers both sheets of SU(2), so half-integer-
    spin harmonics cancel exactly).  Weights sum to one.  Integrates any
    product of matrix coefficients with per-axis frequency at most order - 1
    exactly, in particular every chi_lam chi_mu* with |lam|, |mu| <= order - 1.
    """
    order: int
    euler: np.ndarray = field(repr=False)  # (n_nodes, 3)
    weights: np.ndarray = field(repr=False)

    _matrices: np.ndarray | None = field(default=None, repr=False)

    def matrices(self) -> np.ndarray:
        if self._matrices is None:
            a, b, g = self.euler.T
            self._matrices = su2_from_euler(a, b, g)
        return self._matrices

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], n >= 2, by the arithmetic of
    numpy.polynomial.legendre.leggauss without importing numpy.polynomial:
    the eigenvalues of the symmetric Jacobi matrix (Golub and Welsch, Math.
    Comp. 23, 221 (1969)) after one Newton step, and weights 1 / (P_{n-1} P_n')
    symmetrized to sum 2, P_n' = sum (2j + 1) P_j over j = n-1, n-3, ...; the
    series are summed in the operation order of legval's Clenshaw recurrence."""
    def series(x, c):
        c0, c1 = c[-2], c[-1]
        for nd in range(len(c) - 1, 1, -1):
            c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
        return c0 + c1 * x

    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = np.eye(n + 1)[n]
    df = series(x, (2.0 * k + 1) * ((n - 1 - k) % 2 == 0))
    x -= series(x, p_n) / df
    fm = series(x, p_n[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2.0 / w.sum())


def haar_quadrature_su2(order: int) -> HaarQuadrature:
    if order < 2:
        raise ValueError("order must be at least 2")
    n_phase = 2 * order
    alphas = 2 * np.pi * np.arange(n_phase) / n_phase
    gammas = 4 * np.pi * np.arange(n_phase) / n_phase
    t, gl_w = _gauss_legendre(order)
    betas = np.arccos(t)
    a, b, g = np.meshgrid(alphas, betas, gammas, indexing="ij")
    euler = np.stack([a.ravel(), b.ravel(), g.ravel()], axis=1)
    w = np.ones((n_phase, order, n_phase)) * (gl_w / 2.0)[None, :, None]
    weights = (w / n_phase**2).ravel()
    return HaarQuadrature(order, euler, weights)
