"""Small dense semidefinite programming over Hermitian blocks.

The solver is a primal-dual interior-point method with Nesterov-Todd
scaling and Mehrotra's predictor-corrector, operating directly on complex
Hermitian blocks:

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
corrector's step-length tests are one batched eigvalsh each; X and Z are
stepped and Hermitized as one stacked pair (Todd, Toh and Tutuncu, SIAM
J. Optim. 8, 769 (1998); Mehrotra, SIAM J. Optim. 2, 575 (1992)).  The
Schur matrix M, lightly jittered, is factored once per iteration as
L L^T, and L is inverted once: its inverse is bounded by 1/sqrt(jitter),
where an explicit inverse of M overflows on the near-singular Schur
matrices of a bit-flip channel's diamond program.  Each of the
iteration's two Schur solves, and its one refinement step against the
unjittered M, is then two matrix-vector products.  A run ends "optimal",
"infeasible" (the dual iterate diverged), "unbounded" (the primal iterate
diverged) or "max_iterations".  Problems stay at qubit/qutrit scale; the
total variable dimension is capped at the constant DEFAULT_SIZE_CAP = 256,
and larger requests fail fast.

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

`solve` takes one input, the standard form `_Program`: C, the
(m, total, total) stack of the A_k, b and each named block's span,
started from zero arrays by `_zero_program`.  Both channel-distance
programs write theirs directly, each row an entry-picking functional (Re
or Im of one entry of a block) set by fancy-index writes; the diamond
program's C and A_k depend only on (d_in, d_out), so they are built once
per pair of dimensions and shared read-only, and each call writes only
b = 2 J and its start.  A program with no start runs from the infeasible
X = Z = scale I; each channel-distance program attaches a strictly
feasible primal-dual point in closed form, so its solve spends no
iterations on reaching feasibility.  The fidelity program starts at
rho = I/d_in; the diamond program at its entanglement bracket: Phi+ gives
the lower bound ||J||_1 / d_in and Y = |J| the upper bound
||Tr_out |J|||_inf, and the start is Y = |J| with the dual of Phi+, both
nudged inside the cone.  Where the two bounds meet, as for every covariant
channel against the identity and every Pauli channel, that start is the
optimum and the solve's first test certifies it after one iteration.

The restricted worst-case fidelity of a block-covariant channel needs no
SDP: it is a convex quadratic on the probability simplex, minimized by one
exact active-set solve (refframe._min_quadratic_on_simplex, which also
gives the strong-model floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import ChoiMatrix, _partial_trace_out

__all__ = [
    "SdpResult",
    "solve",
    "sqrt_fwc",
    "diamond_error",
    "restricted_fwc",
]

DEFAULT_SIZE_CAP = 256
# the diamond program's start is its optimum when the entanglement bracket is
# narrower than this, 1e-4 of solve's default tol (see _diamond_program)
_BRACKET_TOL = 1e-12


# ---------------------------------------------------------------------------
# the standard form
# ---------------------------------------------------------------------------

@dataclass
class SdpResult:
    value: float
    blocks: dict
    gap: float
    status: str
    iterations: int


class _Program(NamedTuple):
    """An SDP in the solver's standard form, minimized: the objective C and
    the constraint stack A3 (row k is the block-diagonal A_k, Hermitian) as
    matrices on the direct sum of the named blocks, the right-hand side b,
    and each block's span on that sum; optionally a start (X, y) with X > 0
    on the blocks, A(X) = b and C - A^T y > 0, which `solve` takes in place
    of its infeasible start at scale I.  A maximization is the minimization
    of the negated objective, and an inequality row takes an explicit slack
    block."""

    C: np.ndarray
    A3: np.ndarray
    b: np.ndarray
    spans: dict
    start: tuple | None = None

    @property
    def _constraints(self) -> np.ndarray:
        # one entry per equality row: benchmarks/tracer.py counts each
        # solve's rows as len(instance._constraints)
        return self.b


def _zero_program(sizes: dict[str, int], m: int) -> _Program:
    """All-zero C, A3 and b for `m` rows over blocks of the given sizes."""
    total = sum(sizes.values())
    if total > DEFAULT_SIZE_CAP:
        raise ValueError(f"total variable dimension would exceed the cap of {DEFAULT_SIZE_CAP}")
    ends = np.cumsum(list(sizes.values()))
    spans = {n: slice(e - s, e) for (n, s), e in zip(sizes.items(), ends)}
    return _Program(np.zeros((total, total), dtype=complex),
                    np.zeros((m, total, total), dtype=complex), np.zeros(m), spans)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# interior-point solver
# ---------------------------------------------------------------------------

def solve(instance: _Program, tol: float = 1e-8) -> SdpResult:
    """Solve to relative residuals below `tol` in at most 200 iterations.

    Each iteration builds the Nesterov-Todd frame of (X, Z) from two
    eigendecompositions, takes a predictor (affine) step and a corrector
    step centred at sigma mu, sigma = (mu_aff / mu)^3, whose right-hand side
    carries Mehrotra's second-order term, and caps each step at 0.98 of the
    way to the boundary; the two step-length tests are one batched eigvalsh
    each, and the two Schur solves share one Cholesky factor of the Schur
    matrix and its inverse.  A program that carries a start, as the
    channel-distance programs of this module do, runs from that strictly
    feasible point; one without starts at X = Z = scale I, y = 0.

    Status "optimal", "infeasible" (the dual iterate diverged: no feasible
    X), "unbounded" (the primal iterate diverged: the objective is unbounded
    below) or "max_iterations" (also when a step cannot be computed or the
    Schur matrix cannot be factored even with a 1e6-fold jitter).
    """
    C, A3, b, spans, start = instance
    m, total = len(b), len(C)
    # row k of A is vec(A_k) of the block-diagonal constraint matrix; every
    # A_k is Hermitian, so <A_k, X> = Re(conj(A_k) @ vec X)
    A = A3.reshape(m, -1)
    A_conj = A.conj()
    # 0/1 block pattern: masking Z^{+-1/2}, W and the corrector's right-hand
    # side keeps every iterate exactly block-diagonal, the zeros off the
    # blocks propagating
    mask = np.zeros((total, total))
    for sl in spans.values():
        mask[sl, sl] = 1.0
    neg_mask, eye_m = -mask, np.eye(m)

    def op_A(X):
        return (A_conj @ X.reshape(-1)).real

    def op_At(y):
        return (y @ A).reshape(total, total)

    scale = 1.0 + np.max(np.abs(C)) + np.max(np.abs(b))
    diverged = (1e12 * scale) ** 2
    # the primal and dual iterates, stepped and Hermitized as one stack
    if start is None:
        XZ = np.array([np.eye(total, dtype=complex) * scale] * 2)
        y = np.zeros(m)
    else:
        X, y = start
        XZ = np.array([X, C - op_At(y)])

    tol_p = (tol * (1.0 + np.linalg.norm(b))) ** 2
    tol_d = (tol * (1.0 + np.linalg.norm(C))) ** 2
    status = "max_iterations"

    for iters in range(1, 201):
        X, Z = XZ
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
        if y @ y > diverged:
            status = "infeasible"
            break
        if np.vdot(X, X).real > diverged:
            status = "unbounded"
            break

        # Nesterov-Todd frame F = Z^{-1/2} U D^{1/2}, Z^{1/2} X Z^{1/2} = U D^2 U^H:
        # F^{-1} X F^{-H} = F^H Z F = D, W = F F^H and Z^{-1} = F D^{-1} F^H.
        # X + alpha dX >= 0 iff I + alpha D^{-1/2} (F^{-1} dX F^{-H}) D^{-1/2} >= 0,
        # which conjugates dX by gx = F^{-H} D^{-1/2} = Z^{1/2} U D^{-1}; the
        # dual test likewise conjugates dZ by gz = F D^{-1/2} = Z^{-1/2} U.
        # g holds [gx, gz], so W = gz D gz^H and Z^{-1} = gz gz^H
        lam, v = np.linalg.eigh(Z)
        r = np.sqrt(np.maximum(lam, 1e-300))
        z_pm = mask * (np.array([v * r, v / r]) @ v.conj().T)  # Z^{1/2}, Z^{-1/2}
        d2, u = np.linalg.eigh(z_pm[0] @ X @ z_pm[0])
        d = np.sqrt(np.maximum(d2, 1e-300))
        g = z_pm @ np.array([u / d, u])
        g_h = g.conj().swapaxes(-1, -2)
        W = mask * ((g[1] * d) @ g_h[1])

        # Schur complement  M[k,l] = <A_k, W A_l W> = Re Tr(P_k P_l), P_k = A_k W:
        # one product gives every P_k, one more pairs them with their transposes
        P = (A3.reshape(-1, total) @ W).reshape(m, total, total)
        M = (P.reshape(m, -1) @ P.transpose(0, 2, 1).reshape(m, -1).T).real
        M = 0.5 * (M + M.T)
        jitter = 1e-13 * (1 + np.abs(M).max())

        def schur_solve(rhs):
            s = L_inv.T @ (L_inv @ rhs)
            # one step of iterative refinement against the unjittered M
            return s + L_inv.T @ (L_inv @ (rhs - M @ s))

        wrw = W @ Rd @ W

        def solve_dirs(rhs):
            # NT linearization: dX + W dZ W = rhs; returns [dX, dZ], dy and
            # the step-length matrices D^{-1/2} (F^{-1} dX F^{-H}) D^{-1/2},
            # D^{-1/2} (F^H dZ F) D^{-1/2}.  Neither direction is Hermitized
            # here: the XZ stack is, once stepped
            dy = schur_solve(rp + op_A(wrw - rhs))
            dz = Rd - op_At(dy)
            dirs = np.array([rhs - W @ dz @ W, dz])
            return dirs, dy, g_h @ dirs @ g

        try:
            # M + jitter I = L L^T, factored once; the inverse of L is bounded
            # by 1/sqrt(jitter), where an explicit inverse of M overflows on the
            # near-singular Schur matrices of a bit-flip channel's diamond
            # program.  L^T is upper triangular, so inv back-substitutes on it
            try:
                L = np.linalg.cholesky(M + jitter * eye_m)
            except np.linalg.LinAlgError:
                L = np.linalg.cholesky(M + 1e6 * jitter * eye_m)
            L_inv = np.linalg.inv(L.T).T

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
            inv_d = 1.0 / d
            second = _hermitize((sx * d) @ sz) * (2.0 / np.add.outer(inv_d, inv_d))
            second.flat[::total + 1] -= sigma * mu
            dirs, dy, scaled = solve_dirs(neg_mask * (g[1] @ second @ g_h[1] + X))
        except np.linalg.LinAlgError:
            break
        # a non-finite predictor, dy or dirs leaves the corrector's scaled
        # directions non-finite too
        if not np.isfinite(scaled).all():
            break
        ap, ad = _max_steps(scaled)
        XZ = _hermitize(XZ + np.array([ap, ad])[:, None, None] * dirs)
        y = y + ad * dy

    X = XZ[0]
    pobj = np.real(np.vdot(C, X))
    dobj = float(b @ y)
    value = 0.5 * (pobj + dobj) if status == "optimal" else pobj
    return SdpResult(value=float(value), blocks={n: X[sl, sl] for n, sl in spans.items()},
                     gap=float(abs(pobj - dobj)), status=status, iterations=iters)


def _max_steps(mats: np.ndarray) -> tuple[float, ...]:
    """min(1, 0.98 alpha) for each Hermitian S of a stack, alpha <= 1e8 the
    largest step with I + alpha S psd."""
    lo = np.linalg.eigvalsh(mats).min(axis=-1)
    return tuple(min(1.0, 0.98 * min(-1.0 / x if x < 0 else np.inf, 1e8)) for x in lo)


# ---------------------------------------------------------------------------
# Hermitian entry-picking rows
# ---------------------------------------------------------------------------

def _entry_picks(n: int) -> tuple[np.ndarray, tuple[list, ...], tuple[list, ...]]:
    """The n^2 real functionals of an n x n Hermitian X as one stack of
    Hermitian A_k, <A_k, X> = Re Tr(A_k X): Re X[r, c] for r <= c in
    row-major order, each off-diagonal one followed by Im X[r, c].  Also
    returns the index lists (k, r, c) of the Re rows and of the Im rows.

    The indices are Python lists, like every index of the two programs:
    integer numpy kernels that nothing else in a solve runs (comparisons,
    cumsum, divmod) map their code pages in on a first call, which raised
    the benchmark's per-pass peak RSS by 0.1-0.2 MB."""
    re, im = ([], [], []), ([], [], [])
    k = 0
    for r in range(n):
        for c in range(r, n):
            for rows in (re, im) if r < c else (re,):
                for idx, v in zip(rows, (k, r, c)):
                    idx.append(v)
                k += 1
    E = np.zeros((n * n, n, n), dtype=complex)
    k, r, c = re
    E.real[k, r, c] = E.real[k, c, r] = [1.0 if i == j else 0.5 for i, j in zip(r, c)]
    k, r, c = im
    E.imag[k, r, c] = 0.5
    E.imag[k, c, r] = -0.5
    return E, re, im


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
    res = solve(_fwc_program(choi_a, choi_b))
    if res.status != "optimal":
        raise RuntimeError(f"fidelity SDP did not converge: status {res.status}")
    return float(np.clip(res.value, 0.0, 1.0))


def _fwc_program(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> _Program:
    """The standard form of sqrt_fwc's program: blocks S (rank A + rank B)
    and rho (d_in); Tr rho = 1, then the Re and Im rows of each entry
    S[p, r_A + q] + Tr(rho N_pq) = 0."""
    if (choi_a.dim_in, choi_a.dim_out) != (choi_b.dim_in, choi_b.dim_out):
        raise ValueError("channels must share dimensions")
    din, dout = choi_a.dim_in, choi_a.dim_out
    w_a, v_a = _support(choi_a.unnormalized())
    w_b, v_b = _support(choi_b.unnormalized())
    r_a, r_b = len(w_a), len(w_b)
    n = r_a + r_b
    C, A3, b, _, _ = prog = _zero_program({"S": n, "rho": din}, 1 + 2 * r_a * r_b)

    diag, rho = list(range(n)), list(range(n, n + din))
    C[diag, diag] = 0.5 * np.concatenate([w_a, w_b])
    A3.real[0, rho, rho] = 1.0
    b[0] = 1.0
    # rows 2i + 1 and 2i + 2 pick Re and Im of S[p, r_a + q], i = p r_b + q
    k = list(range(1, len(b), 2))
    k_im = [i + 1 for i in k]
    p = [i for i in range(r_a) for _ in range(r_b)]
    q = [r_a + j for _ in range(r_a) for j in range(r_b)]
    A3.real[k, p, q] = A3.real[k, q, p] = 0.5
    A3.imag[k_im, p, q] = 0.5
    A3.imag[k_im, q, p] = -0.5
    # N_pq = x_q^T conj(y_p), where y_p, x_q are columns p of V_A and q of
    # V_B reshaped to (d_out, d_in); the Hermitian parts of N_pq and -i N_pq
    # pick Re and Im of Tr(rho N_pq)
    y = v_a.T.reshape(r_a, dout, din)
    x = v_b.T.reshape(r_b, dout, din)
    n_pq = (x.swapaxes(1, 2)[None] @ y.conj()[:, None]).reshape(-1, din, din)
    A3[k, n:, n:] = _hermitize(n_pq)
    A3[k_im, n:, n:] = _hermitize(-1j * n_pq)

    # strictly feasible start: rho = I / d_in and S = [[g I, K], [K^H, g I]],
    # K = -V_A^dag (I (x) rho) V_B (so K_pq = -Tr(rho N_pq)) and g = ||K||_F + 1;
    # y = (-1, 0, ...) leaves Z = C + A_0 = diag(C_S, I) > 0, the support
    # eigenvalues being positive
    X = np.zeros_like(C)
    K = -(v_a.conj().T @ v_b) / din
    X[diag, diag] = np.linalg.norm(K) + 1.0
    X[:r_a, r_a:n] = K
    X[r_a:n, :r_a] = K.conj().T
    X[rho, rho] = 1.0 / din
    y0 = np.zeros(len(b))
    y0[0] = -1.0
    return prog._replace(start=(X, y0))


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
    """eps_wc(A, B) = 1/2 ||A - B||_diamond from state-normalized Chois.

    On a closed entanglement bracket (every covariant or Pauli channel
    against the identity) the solve starts at the optimum, certified at
    1e-12, so the value is exact to round-off.  On an open one it is good
    only to `solve`'s default tol of 1e-8; a tighter tol does not help, as
    most random qubit pairs end "max_iterations" at 1e-10."""
    res = solve(_diamond_program(choi_a, choi_b))
    if res.status != "optimal":
        raise RuntimeError(f"diamond SDP did not converge: status {res.status}")
    # min ||Tr_out Y||_inf over Y >= +-J equals the full diamond norm of A - B
    return float(max(0.0, res.value / 2.0))


def _diamond_program(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> _Program:
    """The standard form of min mu s.t. Y >= +-J, mu I >= Tr_out Y, with
    J = d_in (A - B): the shape of _diamond_shape, with b = 2 J on the
    entry rows of Q - P and 0 on the rows of T, and a closed-form start at
    the entanglement bracket, which is the optimum when the bracket closes."""
    if (choi_a.dim_in, choi_a.dim_out) != (choi_b.dim_in, choi_b.dim_out):
        raise ValueError("channels must share dimensions")
    din, dout = choi_a.dim_in, choi_a.dim_out
    D = din * dout
    t0, mu = 2 * D, 2 * D + din
    ju = din * (choi_a.mat - choi_b.mat)
    C, A3, spans, re, im, diag_rows = _diamond_shape(din, dout)
    b = np.zeros(len(A3))
    for (k, r, c), part in ((re, ju.real), (im, ju.imag)):
        b[k] = 2 * part[r, c]

    # the start, at the entanglement bracket: Phi+ gives the lower bound
    # low = ||J||_1 / d_in and Y = |J| the upper bound ||Tr_out |J|||_inf;
    # Tr_out |J| has mean eigenvalue low, so the bracket closes when its
    # spread does.  The primal is Y = |J| + eps I, mu = lambda_max(Tr_out Y)
    # + eps and T = mu I - Tr_out Y; the dual is that of Phi+ shrunk by delta:
    # (1 - delta)^2 sign(J) / (2 d_in) on the Q - P rows (an off-diagonal
    # entry row's y_k is twice the entry) and -(1 - delta) I / d_in on T.  So
    # Z_P, Z_Q = (1 - delta) / (2 d_in) (I +- (1 - delta) sign(J)) and
    # Z_mu = delta, strictly feasible for every J.  delta = 1e-12 on a closed
    # bracket, certified after one iteration; 0.5 on an open one, where a Z
    # of order delta overflows the Schur matrix.  eps = 2 delta low /
    # (d_out + 1) offsets the primal's excess against the dual's shortfall to
    # first order; its floor, at the round-off of J, keeps X > 0 at J = 0
    J = _hermitize(ju)
    lam, v = np.linalg.eigh(J)
    mag = np.abs(lam)
    abs_j = _hermitize((v * mag) @ v.conj().T)
    hi = np.linalg.eigvalsh(_partial_trace_out(abs_j, dout, din))
    delta = 1e-12 if hi[-1] - hi[0] <= _BRACKET_TOL else 0.5
    tiny = np.finfo(float).eps
    eps = 2 * delta * mag.sum() / din / (dout + 1) + tiny * (mag.max() + tiny)
    Y = abs_j + eps * np.eye(D)
    X = np.zeros_like(C)
    X[:D, :D], X[D:t0, D:t0] = Y - J, Y + J
    X[mu, mu] = hi[-1] + (dout + 1) * eps
    X[t0:mu, t0:mu] = X[mu, mu] * np.eye(din) - _partial_trace_out(Y, dout, din)
    sign = _hermitize((v * np.sign(lam)) @ v.conj().T)
    w = (1 - delta) ** 2 / din * (sign - 0.5 * np.diag(sign.diagonal()))
    y0 = np.zeros(len(b))
    for (k, r, c), part in ((re, w.real), (im, w.imag)):
        y0[k] = part[r, c]
    y0[diag_rows] = -(1 - delta) / din
    return _Program(C, A3, b, spans, (X, y0))


@lru_cache(maxsize=None)
def _diamond_shape(din: int, dout: int) -> tuple:
    """The data of the diamond program that depend only on (d_in, d_out),
    built once and shared read-only: blocks P = Y - J, Q = Y + J
    (D = d_in d_out each), T = mu I - Tr_out Y and mu; C picks mu; A3 holds
    the D^2 entry rows of Q - P, then the d_in^2 entry rows of
    T + Tr_out((P + Q)/2) - mu I.  Also the spans, the (k, r, c) index
    lists of the Re and of the Im entry rows of Q - P, and the rows of T's
    diagonal."""
    D = din * dout
    C, A3, _, spans, _ = _zero_program({"P": D, "Q": D, "T": din, "mu": 1}, D * D + din * din)
    t0, mu = 2 * D, 2 * D + din
    C[mu, mu] = 1.0

    E, re, im = _entry_picks(D)
    A3[:D * D, D:t0, D:t0] = E
    A3[:D * D, :D, :D] = -E

    # Tr_out Y [i, j] sums Y[a d_in + i, a d_in + j] over the output index a
    E, (k, i, j), _ = _entry_picks(din)
    rows = slice(D * D, None)
    A3[rows, t0:mu, t0:mu] = E
    for a in range(0, D, din):
        A3[rows, a:a + din, a:a + din] = A3[rows, D + a:D + a + din, D + a:D + a + din] = 0.5 * E
    diag_rows = [D * D + kk for kk, ii, jj in zip(k, i, j) if ii == jj]
    A3[diag_rows, mu, mu] = -1.0
    C.flags.writeable = A3.flags.writeable = False
    return C, A3, spans, re, im, diag_rows


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
    if not all(isinstance(b, (int, np.integer)) and b >= 1 for b in block_dims):
        raise ValueError(f"block sizes {block_dims} must be positive integers")
    n = sum(block_dims)
    if choi.dim_in != n or choi.dim_out != n:
        raise ValueError("Choi matrix does not match the block dimensions")
    j_u = choi.unnormalized()
    if symmetry_samples:
        for v in symmetry_samples:
            k = np.kron(v, v.conj())
            if not np.max(np.abs(k @ j_u @ k.conj().T - j_u)) <= 1e-8 * n:
                raise ValueError("channel is not covariant for the supplied symmetry samples")

    # J[(x,x),(y,y)] = <x|N(|x><y|)|y>, of which w real sees only the real
    # part; avg[x, i] = 1/d_i for x in block i
    xx = np.arange(n) * (n + 1)
    avg = np.repeat(np.eye(len(block_dims)) / block_dims, block_dims, axis=0)
    # a call-time import, so that importing sdp loads no refframe (nor numpy.fft)
    from .refframe import _min_quadratic_on_simplex
    return _min_quadratic_on_simplex(avg.T @ np.real(j_u[np.ix_(xx, xx)]) @ avg)
