"""Small dense semidefinite programming over Hermitian blocks.

The solver is a primal-dual interior-point method with Nesterov-Todd
scaling, infeasible start and a Mehrotra-style centering heuristic,
operating directly on complex Hermitian blocks:

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_kj, X_j> = b_k,   X_j >= 0,

with <A, X> = Re Tr(A X).  Problems stay at qubit/qutrit scale; the total
variable dimension is capped (default 256) and larger requests fail fast.

On top of the solver sit the two channel-distance programs: the worst-case
fidelity program, posed on the supports of the unnormalized Choi operators
A, B (V_A, V_B isometries onto their eigenvectors of non-negligible
eigenvalue),

    sqrt(F_wc(A, B)) = min 1/2 (Tr[V_A^dag A V_A Gamma] + Tr[V_B^dag B V_B Lambda])
        s.t. [[Gamma, -V_A^dag (I (x) rho) V_B], [h.c., Lambda]] >= 0,
             rho a state,

which has the value of the same program on C^D (+) C^D but, unlike it,
attains its optimum; and the diamond-distance program for
Hermiticity-preserving differences

    1/2 ||A - B||_diamond = min ||Tr_out Y||_inf  s.t.  Y >= +-J(A - B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix

__all__ = [
    "SdpInstance",
    "SdpResult",
    "SdpSizeError",
    "solve",
    "sqrt_fwc",
    "diamond_error",
    "restricted_fwc",
]

DEFAULT_SIZE_CAP = 256


class SdpSizeError(ValueError):
    """Problem exceeds the configured dense-solver size cap."""


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class SdpResult:
    value: float
    blocks: dict
    dual: np.ndarray
    gap: float
    status: str
    iterations: int


class SdpInstance:
    """Equality-form SDP with named Hermitian PSD blocks.

    Inequality rows get an automatic scalar slack block.  Objective sense
    is 'min' or 'max' (max is solved as min of the negation).
    """

    def __init__(self, size_cap: int = DEFAULT_SIZE_CAP):
        self.size_cap = size_cap
        self._names: list[str] = []
        self._sizes: dict[str, int] = {}
        self._obj: dict[str, np.ndarray] = {}
        self._sense = "min"
        self._constraints: list[tuple[dict[str, np.ndarray], float]] = []
        self._n_slack = 0

    def add_block(self, name: str, size: int) -> None:
        if name in self._sizes:
            raise ValueError(f"duplicate block {name!r}")
        if sum(self._sizes.values()) + size > self.size_cap:
            raise SdpSizeError(
                f"total variable dimension would exceed the cap of {self.size_cap}"
            )
        self._names.append(name)
        self._sizes[name] = size

    def set_objective(self, coeffs: dict[str, np.ndarray], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self._sense = sense
        self._obj = {k: _hermitize(np.asarray(v, dtype=complex)) for k, v in coeffs.items()}

    def add_equality(self, coeffs: dict[str, np.ndarray], rhs: float) -> None:
        self._constraints.append(
            ({k: _hermitize(np.asarray(v, dtype=complex)) for k, v in coeffs.items()}, float(rhs))
        )

    def add_inequality(self, coeffs: dict[str, np.ndarray], rhs: float, sense: str = "<=") -> None:
        """sum <A, X> <= rhs (or >=) via a scalar slack block."""
        slack = f"_slack{self._n_slack}"
        self._n_slack += 1
        self.add_block(slack, 1)
        sgn = 1.0 if sense == "<=" else -1.0
        row = {k: np.asarray(v, dtype=complex) for k, v in coeffs.items()}
        row[slack] = np.array([[sgn]], dtype=complex)
        self.add_equality(row, rhs)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# interior-point solver
# ---------------------------------------------------------------------------

def solve(instance: SdpInstance, tol: float = 1e-8, max_iter: int = 200) -> SdpResult:
    names = list(instance._names)
    sizes = [instance._sizes[n] for n in names]
    total = sum(sizes)
    if total > instance.size_cap:
        raise SdpSizeError(f"total variable dimension {total} exceeds cap {instance.size_cap}")
    sgn = 1.0 if instance._sense == "min" else -1.0
    C = [sgn * instance._obj.get(n, np.zeros((s, s), dtype=complex)) for n, s in zip(names, sizes)]
    m = len(instance._constraints)
    if m == 0:
        raise ValueError("instance has no constraints")
    A = [
        [row.get(n, None) for n, s in zip(names, sizes)]
        for row, _ in instance._constraints
    ]
    b = np.array([rhs for _, rhs in instance._constraints], dtype=float)

    nb = len(names)
    # stacked constraint tensors per block, for vectorized Schur assembly
    A_stack = []
    for j in range(nb):
        s = sizes[j]
        t = np.zeros((m, s, s), dtype=complex)
        for k in range(m):
            if A[k][j] is not None:
                t[k] = A[k][j]
        A_stack.append(t)

    def op_A(X):
        return np.array([sum(np.real(np.trace(A[k][j] @ X[j])) for j in range(nb) if A[k][j] is not None) for k in range(m)])

    def op_At(y):
        return [np.einsum("k,kij->ij", y, A_stack[j]) for j in range(nb)]

    scale = 1.0 + max(np.max(np.abs(c)) for c in C) + np.max(np.abs(b))
    X = [np.eye(s, dtype=complex) * scale for s in sizes]
    Z = [np.eye(s, dtype=complex) * scale for s in sizes]
    y = np.zeros(m)

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.sqrt(sum(np.linalg.norm(c) ** 2 for c in C))
    status = "max_iterations"
    iters = 0

    for it in range(max_iter):
        iters = it + 1
        rp = b - op_A(X)
        AtY = op_At(y)
        Rd = [C[j] - Z[j] - AtY[j] for j in range(nb)]
        mu = sum(np.real(np.trace(X[j] @ Z[j])) for j in range(nb)) / total
        pobj = sum(np.real(np.trace(C[j] @ X[j])) for j in range(nb))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        err_p = np.linalg.norm(rp) / bnorm
        err_d = np.sqrt(sum(np.linalg.norm(r) ** 2 for r in Rd)) / cnorm
        if err_p < tol and err_d < tol and (mu * total < tol * (1 + abs(pobj)) or gap < tol):
            status = "optimal"
            break
        if np.linalg.norm(y) > 1e12 * scale:
            status = "infeasible"
            break

        # Nesterov-Todd scaling point per block: W Z W = X
        W = [_nt_scaling(X[j], Z[j]) for j in range(nb)]

        # Schur complement  M[k,l] = sum_j <A_k, W A_l W>
        M = np.zeros((m, m))
        for j in range(nb):
            V = np.einsum("ab,kbc,cd->kad", W[j], A_stack[j], W[j], optimize=True)
            M += np.real(np.einsum("kab,lba->kl", A_stack[j], V, optimize=True))
        M = 0.5 * (M + M.T)
        jitter = 1e-13 * (1 + np.abs(M).max())
        M_reg = M + jitter * np.eye(m)
        try:
            m_cho = np.linalg.cholesky(M_reg)
        except np.linalg.LinAlgError:
            M_reg = M + 1e6 * jitter * np.eye(m)
            m_cho = np.linalg.cholesky(M_reg)

        def schur_solve(rhs):
            s = _cho_solve(m_cho, rhs)
            # one step of iterative refinement against the unjittered M
            s = s + _cho_solve(m_cho, rhs - M @ s)
            return s

        z_inv = [_psd_inv(Z[j]) for j in range(nb)]

        def solve_dirs(sigma_mu):
            # NT linearization: dX + W dZ W = sigma_mu Z^{-1} - X
            rhs_blocks = [sigma_mu * z_inv[j] - X[j] for j in range(nb)]
            t1 = np.zeros(m)
            for j in range(nb):
                t1 += np.real(np.einsum("kab,ba->k", A_stack[j], W[j] @ Rd[j] @ W[j], optimize=True))
                t1 -= np.real(np.einsum("kab,ba->k", A_stack[j], rhs_blocks[j], optimize=True))
            t1 += rp
            dy = schur_solve(t1)
            dZ = [_hermitize(Rd[j] - np.einsum("k,kij->ij", dy, A_stack[j])) for j in range(nb)]
            dX = [_hermitize(rhs_blocks[j] - W[j] @ dZ[j] @ W[j]) for j in range(nb)]
            return dX, dZ, dy

        try:
            # predictor
            dX_a, dZ_a, _ = solve_dirs(0.0)
            ap = min(1.0, 0.98 * _max_step(X, dX_a))
            ad = min(1.0, 0.98 * _max_step(Z, dZ_a))
            mu_aff = sum(
                np.real(np.trace((X[j] + ap * dX_a[j]) @ (Z[j] + ad * dZ_a[j])))
                for j in range(nb)
            ) / total
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.9))

            # corrector
            dX, dZ, dy = solve_dirs(sigma * mu)
        except np.linalg.LinAlgError:
            break
        if not all(np.isfinite(d).all() for d in dX + dZ) or not np.isfinite(dy).all():
            break
        ap = min(1.0, 0.98 * _max_step(X, dX))
        ad = min(1.0, 0.98 * _max_step(Z, dZ))
        X = [_hermitize(X[j] + ap * dX[j]) for j in range(nb)]
        Z = [_hermitize(Z[j] + ad * dZ[j]) for j in range(nb)]
        y = y + ad * dy

    pobj = sum(np.real(np.trace(C[j] @ X[j])) for j in range(nb))
    dobj = float(b @ y)
    value = sgn * 0.5 * (pobj + dobj) if status == "optimal" else sgn * pobj
    return SdpResult(
        value=float(value),
        blocks={n: X[j] for j, n in enumerate(names)},
        dual=y,
        gap=float(abs(pobj - dobj)),
        status=status,
        iterations=iters,
    )


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from numpy.linalg import solve as _s

    return _s(L.conj().T, _s(L, rhs))


def _psd_inv(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 1e-250, None)
    return _hermitize((v / w) @ v.conj().T)


def _nt_scaling(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """W with W Z W = X, for Hermitian positive definite X, Z."""
    wz, vz = np.linalg.eigh(Z)
    wz = np.clip(wz, 1e-300, None)
    z_half = (vz * np.sqrt(wz)) @ vz.conj().T
    z_ihalf = (vz / np.sqrt(wz)) @ vz.conj().T
    inner = z_half @ X @ z_half
    wi, vi = np.linalg.eigh(_hermitize(inner))
    wi = np.clip(wi, 1e-300, None)
    inner_half = (vi * np.sqrt(wi)) @ vi.conj().T
    return _hermitize(z_ihalf @ inner_half @ z_ihalf)


def _max_step(X: list[np.ndarray], dX: list[np.ndarray]) -> float:
    """Largest alpha with X + alpha dX psd (per-block minimum)."""
    alpha = np.inf
    for x, dx in zip(X, dX):
        w, v = np.linalg.eigh(x)
        w = np.clip(w, 1e-250, None)
        half_inv = (v / np.sqrt(w)) @ v.conj().T
        mat = _hermitize(half_inv @ dx @ half_inv.conj().T)
        if not np.isfinite(mat).all():
            return 0.0
        lo = np.linalg.eigvalsh(mat).min()
        if lo < 0:
            alpha = min(alpha, -1.0 / lo)
    return float(min(alpha, 1e8))


# ---------------------------------------------------------------------------
# Hermitian entry-picking functionals
# ---------------------------------------------------------------------------

def _pick_re(n: int, r: int, c: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    if r == c:
        a[r, r] = 1.0
    else:
        a[r, c] = 0.5
        a[c, r] = 0.5
    return a


def _pick_im(n: int, r: int, c: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    a[r, c] = 0.5j
    a[c, r] = -0.5j
    return a


# ---------------------------------------------------------------------------
# worst-case fidelity program (square root)
# ---------------------------------------------------------------------------

def sqrt_fwc(choi_a: ChoiMatrix, choi_b: ChoiMatrix, tol: float = 1e-8) -> float:
    """sqrt(F_wc(A, B)) between two channels given as (state-normalized) Chois.

    Solves the worst-case-fidelity program restricted to the supports of
    the unnormalized Choi operators.  With isometries V_A, V_B onto supp(A),
    supp(B) the block variable is

        S = [[Gamma, -V_A^dag (I (x) rho) V_B], [h.c., Lambda]] >= 0

    of size rank(A) + rank(B), with objective
    1/2 (Tr[V_A^dag A V_A Gamma] + Tr[V_B^dag B V_B Lambda]).  Gamma and
    Lambda enter the objective only through A and B, so their components
    off the supports cost nothing; on C^D (+) C^D the infimum is approached
    only by sending exactly those components to infinity.  The reduced
    program has the same value and is strictly feasible on both sides, so
    its optimum is attained and the interior point exits optimal.

    Raises RuntimeError if the solver does not reach its optimum.
    """
    if (choi_a.dim_in, choi_a.dim_out) != (choi_b.dim_in, choi_b.dim_out):
        raise ValueError("channels must share dimensions")
    din, dout = choi_a.dim_in, choi_a.dim_out
    w_a, v_a = _support(choi_a.unnormalized())
    w_b, v_b = _support(choi_b.unnormalized())
    r_a, r_b = len(w_a), len(w_b)
    n = r_a + r_b

    inst = SdpInstance()
    inst.add_block("S", n)
    inst.add_block("rho", din)

    inst.set_objective({"S": 0.5 * np.diag(np.concatenate([w_a, w_b]))}, "min")

    inst.add_equality({"rho": np.eye(din, dtype=complex)}, 1.0)
    # S[p, r_a+q] + Tr(rho N_pq) = 0 with N_pq = x_q^T conj(y_p), where y_p,
    # x_q are columns p of V_A and q of V_B reshaped to (d_out, d_in); the
    # instance keeps Hermitian parts, so the rho coefficients N_pq and -i N_pq
    # pick Re and Im of Tr(rho N_pq)
    y = v_a.T.reshape(r_a, dout, din)
    x = v_b.T.reshape(r_b, dout, din)
    for p in range(r_a):
        for q in range(r_b):
            n_pq = x[q].T @ y[p].conj()
            inst.add_equality({"S": _pick_re(n, p, r_a + q), "rho": n_pq}, 0.0)
            inst.add_equality({"S": _pick_im(n, p, r_a + q), "rho": -1j * n_pq}, 0.0)

    res = solve(inst, tol=tol)
    if res.status != "optimal":
        raise RuntimeError(f"fidelity SDP did not converge: status {res.status}")
    return float(np.clip(res.value, 0.0, 1.0))


def _support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above 1e-10 x max(1, largest) and their eigenvectors.

    Dropping eigenvalues of total mass t moves sqrt(F_wc) by up to sqrt(t),
    so the cut must stay at round-off level.
    """
    w, v = np.linalg.eigh(_hermitize(mat))
    keep = w > 1e-10 * max(1.0, w.max())
    return w[keep], v[:, keep]


# ---------------------------------------------------------------------------
# diamond-norm error program
# ---------------------------------------------------------------------------

def diamond_error(choi_a: ChoiMatrix, choi_b: ChoiMatrix, tol: float = 1e-8) -> float:
    """eps_wc(A, B) = 1/2 ||A - B||_diamond from state-normalized Chois."""
    if (choi_a.dim_in, choi_a.dim_out) != (choi_b.dim_in, choi_b.dim_out):
        raise ValueError("channels must share dimensions")
    din, dout = choi_a.dim_in, choi_a.dim_out
    D = din * dout
    ju = din * (choi_a.mat - choi_b.mat)

    inst = SdpInstance()
    inst.add_block("P", D)   # Y - J
    inst.add_block("Q", D)   # Y + J
    inst.add_block("T", din)  # mu I - Tr_out Y
    inst.add_block("mu", 1)

    inst.set_objective({"mu": np.eye(1, dtype=complex)}, "min")

    # Q - P = 2 J
    for r in range(D):
        for c in range(r, D):
            picks = [(_pick_re, 2 * np.real(ju[r, c]))]
            if c > r:
                picks.append((_pick_im, 2 * np.imag(ju[r, c])))
            for pick, rhs in picks:
                inst.add_equality({"Q": pick(D, r, c), "P": -pick(D, r, c)}, rhs)

    # T + Tr_out((P + Q)/2) - mu I = 0, i.e. T + Tr_out(Y) = mu I
    for i in range(din):
        for j in range(i, din):
            picks = [(_pick_re, True)]
            if j > i:
                picks.append((_pick_im, False))
            for pick, diag in picks:
                trace_pick = np.zeros((D, D), dtype=complex)
                for a_out in range(dout):
                    trace_pick += 0.5 * pick(D, a_out * din + i, a_out * din + j)
                coeffs = {
                    "T": pick(din, i, j),
                    "P": trace_pick,
                    "Q": trace_pick,
                }
                if i == j and diag:
                    coeffs["mu"] = -np.eye(1, dtype=complex)
                inst.add_equality(coeffs, 0.0)

    res = solve(inst, tol=tol)
    if res.status != "optimal":
        raise RuntimeError(f"diamond SDP did not converge: status {res.status}")
    # min ||Tr_out Y||_inf over Y >= +-J equals the full diamond norm of A - B
    return float(max(0.0, res.value / 2.0))


# ---------------------------------------------------------------------------
# restricted (block-covariant) worst-case fidelity
# ---------------------------------------------------------------------------

def restricted_fwc(
    block_dims: list[int],
    choi: ChoiMatrix,
    symmetry_samples: list[np.ndarray] | None = None,
    n_restarts: int = 50,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> float:
    """F_wc(N, I) for a block-covariant channel, via the restricted ansatz.

    The worst-case input of a channel commuting with a block symmetry
    (+)_lam (U_lam (x) I) can be taken of the form
    |Psi> = (+)_lam c_lam |Phi+_lam>, so only the amplitude vector c is
    optimized (gradient descent on the unit sphere with restarts).

    `block_dims` slices the channel space into the irreducible blocks;
    `symmetry_samples`, if given, are full-space unitaries V in the
    symmetry family used to verify covariance: (V (x) V*) J (V (x) V*)^dag
    must equal J within 1e-8.
    """
    n = sum(block_dims)
    if choi.dim_in != n or choi.dim_out != n:
        raise ValueError("Choi matrix does not match the block dimensions")
    j_u = choi.unnormalized()
    if symmetry_samples:
        for v in symmetry_samples:
            k = np.kron(v, v.conj())
            if np.max(np.abs(k @ j_u @ k.conj().T - j_u)) > 1e-8 * n:
                raise ValueError("channel is not covariant for the supplied symmetry samples")

    # block maximally entangled vectors |Phi_i> in H (x) H'
    offs = np.cumsum([0] + list(block_dims))
    phis = []
    for i, dim in enumerate(block_dims):
        v = np.zeros(n * n, dtype=complex)
        for a in range(offs[i], offs[i] + dim):
            v[a * n + a] = 1.0
        phis.append(v / np.sqrt(dim))

    # (N (x) I)(|Phi_i><Phi_j|) sandwiched between |Phi_k>, |Phi_l>
    jt = j_u.reshape(n, n, n, n)  # [(a,i),(b,k)] -> N(E_ik)[a,b]
    k_blocks = len(block_dims)
    m4 = np.zeros((k_blocks,) * 4, dtype=complex)
    for i in range(k_blocks):
        for j in range(k_blocks):
            rho = np.outer(phis[i], phis[j].conj()).reshape(n, n, n, n)
            # sigma[(a,r),(b,s)] = sum_{ik} N(E_ik)[a,b] rho[(i,r),(k,s)]
            sigma = np.einsum("aibk,irks->arbs", jt, rho)
            sig = sigma.reshape(n * n, n * n)
            for kk in range(k_blocks):
                for ll in range(k_blocks):
                    m4[kk, ll, i, j] = phis[kk].conj() @ sig @ phis[ll]

    def fval(c):
        r = np.einsum("k,l,i,j,klij->", c.conj(), c, c, c.conj(), m4)
        return float(np.real(r))

    def grad(c):
        # d/d c.conj of F
        g = np.einsum("l,i,j,klij->k", c, c, c.conj(), m4)
        g += np.einsum("k,l,i,klij->j", c.conj(), c, c, m4).conj()
        return g

    rng = rng or np.random.default_rng(20240517)
    best = np.inf
    for trial in range(n_restarts):
        if trial == 0:
            c = np.ones(k_blocks, dtype=complex)
        else:
            c = rng.standard_normal(k_blocks) + 1j * rng.standard_normal(k_blocks)
        c /= np.linalg.norm(c)
        step = 0.2
        f = fval(c)
        for _ in range(500):
            g = grad(c)
            # project onto the sphere tangent
            g -= c * np.real(np.vdot(c, g))
            if np.linalg.norm(g) < tol:
                break
            c_new = c - step * g
            c_new /= np.linalg.norm(c_new)
            f_new = fval(c_new)
            if f_new < f - 1e-15:
                c, f = c_new, f_new
                step = min(step * 1.2, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        best = min(best, f)
    return float(np.clip(best, 0.0, 1.0))
