"""Small dense semidefinite programming over Hermitian blocks.

The solver is a primal-dual interior-point method with Nesterov-Todd
scaling, infeasible start and Mehrotra's predictor-corrector, operating
directly on complex Hermitian blocks:

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_kj, X_j> = b_k,   X_j >= 0,

with <A, X> = Re Tr(A X).  The blocks sit on the diagonal of one Hermitian
matrix of size total = sum_j s_j, so the primal X and dual Z are one
block-diagonal iterate each and the constraints one complex (m, total^2)
matrix, whose row k is vec(A_k): the constraint map, its adjoint and the
Schur complement are matrix products against it.  Each iterate pair is
factored once, into the Nesterov-Todd frame F = Z^{-1/2} U D^{1/2} with
Z^{1/2} X Z^{1/2} = U D^2 U^H, which maps X and Z both to the diagonal D:
two eigendecompositions (Z, then Z^{1/2} X Z^{1/2}; X needs none) give the
scaling point W = F F^H, Z^{-1} = F D^{-1} F^H and every step-length test.
The corrector subtracts Mehrotra's second-order term, the product of the
predictor directions, solved in that frame, and the predictor's and the
corrector's step-length tests are one batched eigvalsh each.  Each Schur
solve is one LU solve plus one refinement step (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 769 (1998); Mehrotra, SIAM J. Optim. 2, 575 (1992)).
Problems stay at qubit/qutrit scale; the total variable dimension is
capped at the constant DEFAULT_SIZE_CAP = 256, and larger requests fail fast.

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

The restricted worst-case fidelity of a block-covariant channel needs no
SDP: it is a convex quadratic on the probability simplex, minimized by one
exact active-set solve (refframe._min_quadratic_on_simplex, which also
gives the strong-model floor).
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
    gap: float
    status: str
    iterations: int


class SdpInstance:
    """Equality-form SDP with named Hermitian PSD blocks, minimized; a
    maximization is the minimization of the negated objective, and an
    inequality row takes an explicit scalar slack block.
    """

    def __init__(self):
        self._sizes: dict[str, int] = {}
        self._obj: dict[str, np.ndarray] = {}
        self._constraints: list[tuple[dict[str, np.ndarray], float]] = []

    def add_block(self, name: str, size: int) -> None:
        if name in self._sizes:
            raise ValueError(f"duplicate block {name!r}")
        if sum(self._sizes.values()) + size > DEFAULT_SIZE_CAP:
            raise SdpSizeError(
                f"total variable dimension would exceed the cap of {DEFAULT_SIZE_CAP}"
            )
        self._sizes[name] = size

    def set_objective(self, coeffs: dict[str, np.ndarray]) -> None:
        self._obj = self._checked(coeffs)

    def add_equality(self, coeffs: dict[str, np.ndarray], rhs: float) -> None:
        self._constraints.append((self._checked(coeffs), float(rhs)))

    def _checked(self, coeffs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Hermitian parts of the coefficients; unknown names and wrong shapes raise."""
        out = {}
        for k, v in coeffs.items():
            if k not in self._sizes:
                raise ValueError(f"unknown block {k!r}")
            a = np.asarray(v, dtype=complex)
            if a.shape != (self._sizes[k],) * 2:
                raise ValueError(f"block {k!r} of size {self._sizes[k]} given shape {a.shape}")
            out[k] = _hermitize(a)
        return out


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# interior-point solver
# ---------------------------------------------------------------------------

def solve(instance: SdpInstance, tol: float = 1e-8) -> SdpResult:
    """Solve to relative residuals below `tol` in at most 200 iterations.

    Each iteration builds the Nesterov-Todd frame of (X, Z) from two
    eigendecompositions, takes a predictor (affine) step and a corrector
    step centred at sigma mu, sigma = (mu_aff / mu)^3, whose right-hand side
    carries Mehrotra's second-order term, and caps each step at 0.98 of the
    way to the boundary; the two step-length tests are one batched eigvalsh
    each.

    Status "optimal", "infeasible" (the dual iterate diverged) or
    "max_iterations" (also when a step cannot be computed).
    """
    sizes = instance._sizes
    total = sum(sizes.values())
    ends = np.cumsum(list(sizes.values()))
    spans = {n: slice(e - s, e) for (n, s), e in zip(sizes.items(), ends)}

    def embed(coeffs, out):
        for n, a in coeffs.items():
            out[spans[n], spans[n]] = a
        return out

    C = embed(instance._obj, np.zeros((total, total), dtype=complex))
    m = len(instance._constraints)
    if m == 0:
        raise ValueError("instance has no constraints")
    b = np.array([rhs for _, rhs in instance._constraints], dtype=float)
    # row k of A is vec(A_k) of the block-diagonal constraint matrix; every
    # A_k is Hermitian, so <A_k, X> = Re(conj(A_k) @ vec X)
    A3 = np.zeros((m, total, total), dtype=complex)
    for k, (row, _) in enumerate(instance._constraints):
        embed(row, A3[k])
    A = A3.reshape(m, -1)
    A_conj = A.conj()
    # 0/1 block pattern: masking Z^{+-1/2}, W and the corrector's right-hand
    # side keeps every iterate exactly block-diagonal, the zeros off the
    # blocks propagating
    mask = embed({n: 1.0 for n in spans}, np.zeros((total, total)))

    def op_A(X):
        return (A_conj @ X.reshape(-1)).real

    def op_At(y):
        return (y @ A).reshape(total, total)

    scale = 1.0 + np.max(np.abs(C)) + np.max(np.abs(b))
    X = np.eye(total, dtype=complex) * scale
    Z = X.copy()
    y = np.zeros(m)

    tol_p = (tol * (1.0 + np.linalg.norm(b))) ** 2
    tol_d = (tol * (1.0 + np.linalg.norm(C))) ** 2
    status = "max_iterations"

    for iters in range(1, 201):
        rp = b - op_A(X)
        Rd = C - Z - op_At(y)
        mu = np.vdot(X, Z).real / total
        pobj = np.vdot(C, X).real
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if (rp @ rp < tol_p and np.vdot(Rd, Rd).real < tol_d
                and (mu * total < tol * (1 + abs(pobj)) or gap < tol)):
            status = "optimal"
            break
        if y @ y > (1e12 * scale) ** 2:
            status = "infeasible"
            break

        # Nesterov-Todd frame F = Z^{-1/2} U D^{1/2}, Z^{1/2} X Z^{1/2} = U D^2 U^H:
        # F^{-1} X F^{-H} = F^H Z F = D, W = F F^H and Z^{-1} = F D^{-1} F^H.
        # X + alpha dX >= 0 iff I + alpha D^{-1/2} (F^{-1} dX F^{-H}) D^{-1/2} >= 0,
        # which conjugates dX by gx = F^{-H} D^{-1/2} = Z^{1/2} U D^{-1}; the
        # dual test likewise conjugates dZ by gz = F D^{-1/2} = Z^{-1/2} U.
        # g holds [gx, gz], so W = gz D gz^H and Z^{-1} = gz gz^H
        lam, v = np.linalg.eigh(Z)
        r = np.sqrt(np.maximum(lam, 1e-300))
        z_pm = mask * (np.stack([v * r, v / r]) @ v.conj().T)  # Z^{1/2}, Z^{-1/2}
        d2, u = np.linalg.eigh(z_pm[0] @ X @ z_pm[0])
        d = np.sqrt(np.maximum(d2, 1e-300))
        g = z_pm @ np.stack([u / d, u])
        g_h = g.conj().swapaxes(-1, -2)
        W = mask * ((g[1] * d) @ g_h[1])

        # Schur complement  M[k,l] = <A_k, W A_l W> = Re Tr(P_k P_l), P_k = A_k W:
        # one product gives every P_k, one more pairs them with their transposes
        P = (A3.reshape(-1, total) @ W).reshape(m, total, total)
        M = (P.reshape(m, -1) @ P.transpose(0, 2, 1).reshape(m, -1).T).real
        M = 0.5 * (M + M.T)
        jitter = 1e-13 * (1 + np.abs(M).max())
        M_reg = M + jitter * np.eye(m)
        try:
            np.linalg.cholesky(M_reg)
        except np.linalg.LinAlgError:
            M_reg = M + 1e6 * jitter * np.eye(m)

        def schur_solve(rhs):
            s = np.linalg.solve(M_reg, rhs)
            # one step of iterative refinement against the unjittered M
            return s + np.linalg.solve(M_reg, rhs - M @ s)

        wrw = W @ Rd @ W

        def solve_dirs(rhs):
            # NT linearization: dX + W dZ W = rhs; returns [dX, dZ], dy and
            # the step-length matrices D^{-1/2} (F^{-1} dX F^{-H}) D^{-1/2},
            # D^{-1/2} (F^H dZ F) D^{-1/2}
            dy = schur_solve(rp + op_A(wrw - rhs))
            dz = _hermitize(Rd - op_At(dy))
            dirs = np.stack([_hermitize(rhs - W @ dz @ W), dz])
            return dirs, dy, g_h @ dirs @ g

        try:
            # predictor
            (dX, dZ), _, scaled = solve_dirs(-X)
            ap, ad = _max_steps(scaled)
            mu_aff = np.vdot(X + ap * dX, Z + ad * dZ).real / total
            sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-4), 0.9)

            # corrector: right-hand side sigma mu Z^{-1} - X less Mehrotra's
            # second-order term F [sym(dX~ dZ~) o 2 / (d_i + d_j)] F^H, where
            # dX~ = D^{1/2} sx D^{1/2} and dZ~ = D^{1/2} sz D^{1/2} are the
            # scaled predictor directions; with F = gz D^{1/2} that is
            # -gz (sym(sx D sz) o 2 d_i d_j / (d_i + d_j) - sigma mu I) gz^H - X
            sx, sz = scaled
            second = _hermitize((sx * d) @ sz) * (2.0 / np.add.outer(1.0 / d, 1.0 / d))
            second.flat[::total + 1] -= sigma * mu
            dirs, dy, scaled = solve_dirs(-mask * (g[1] @ second @ g_h[1] + X))
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(dirs).all() and np.isfinite(dy).all()):
            break
        ap, ad = _max_steps(scaled)
        X, Z, y = _hermitize(X + ap * dirs[0]), _hermitize(Z + ad * dirs[1]), y + ad * dy

    pobj = np.real(np.vdot(C, X))
    dobj = float(b @ y)
    value = 0.5 * (pobj + dobj) if status == "optimal" else pobj
    return SdpResult(value=float(value), blocks={n: X[sl, sl] for n, sl in spans.items()},
                     gap=float(abs(pobj - dobj)), status=status, iterations=iters)


def _max_steps(mats: np.ndarray) -> tuple[float, ...]:
    """min(1, 0.98 alpha) for each Hermitian S of a stack, alpha <= 1e8 the
    largest step with I + alpha S psd."""
    if not np.isfinite(mats).all():
        return (0.0,) * len(mats)
    lo = np.linalg.eigvalsh(mats).min(axis=-1)
    return tuple(min(1.0, 0.98 * min(-1.0 / x if x < 0 else np.inf, 1e8)) for x in lo)


# ---------------------------------------------------------------------------
# Hermitian entry-picking functionals
# ---------------------------------------------------------------------------

def _pick(n: int, r: int, c: int, imag: bool = False) -> np.ndarray:
    """The Hermitian A with <A, X> = Re X[r, c], or Im X[r, c] (r != c) if `imag`."""
    a = np.zeros((n, n), dtype=complex)
    a[r, c], a[c, r] = (0.5j, -0.5j) if imag else (0.5, 0.5)
    return a if r != c else 2 * a


# ---------------------------------------------------------------------------
# worst-case fidelity program (square root)
# ---------------------------------------------------------------------------

def sqrt_fwc(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> float:
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

    inst.set_objective({"S": 0.5 * np.diag(np.concatenate([w_a, w_b]))})

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
            inst.add_equality({"S": _pick(n, p, r_a + q), "rho": n_pq}, 0.0)
            inst.add_equality({"S": _pick(n, p, r_a + q, imag=True), "rho": -1j * n_pq}, 0.0)

    res = solve(inst)
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

def diamond_error(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> float:
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

    inst.set_objective({"mu": np.eye(1, dtype=complex)})

    # Q - P = 2 J
    for r in range(D):
        for c in range(r, D):
            for imag in (False, True) if c > r else (False,):
                rhs = 2 * (np.imag(ju[r, c]) if imag else np.real(ju[r, c]))
                inst.add_equality({"Q": _pick(D, r, c, imag), "P": -_pick(D, r, c, imag)}, rhs)

    # T + Tr_out((P + Q)/2) - mu I = 0, i.e. T + Tr_out(Y) = mu I
    for i in range(din):
        for j in range(i, din):
            for imag in (False, True) if j > i else (False,):
                trace_pick = np.zeros((D, D), dtype=complex)
                for a_out in range(dout):
                    trace_pick += 0.5 * _pick(D, a_out * din + i, a_out * din + j, imag)
                coeffs = {"T": _pick(din, i, j, imag), "P": trace_pick, "Q": trace_pick}
                if i == j:
                    coeffs["mu"] = -np.eye(1, dtype=complex)
                inst.add_equality(coeffs, 0.0)

    res = solve(inst)
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
) -> float:
    """F_wc(N, I) for a block-covariant channel, via the restricted ansatz.

    The worst-case input of a channel commuting with a block symmetry
    (+)_lam (U_lam (x) I) can be taken of the form
    |Psi> = (+)_lam c_lam |Phi+_lam>.  Distinct blocks have orthogonal
    supports, so with w = |c|^2 on the probability simplex

        F(Psi) = w^T G w,   G_ij = sum_{x in i, y in j} J[(x,x),(y,y)] / (d_i d_j),

    J the unnormalized Choi matrix.  G is a compression of a principal
    submatrix of J, hence positive semidefinite, and the minimum is one
    exact active-set solve.  `n_restarts` is ignored.

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

    # J[(x,x),(y,y)] = <x|N(|x><y|)|y>, of which w real sees only the real
    # part; avg[x, i] = 1/d_i for x in block i
    xx = np.arange(n) * (n + 1)
    avg = np.repeat(np.eye(len(block_dims)) / block_dims, block_dims, axis=0)
    # a call-time import, so that importing sdp loads no refframe (nor numpy.fft)
    from .refframe import _min_quadratic_on_simplex
    return _min_quadratic_on_simplex(avg.T @ np.real(j_u[np.ix_(xx, xx)]) @ avg)
