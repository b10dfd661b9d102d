import itertools

import numpy as np
import pytest

from covqec import channels as ch
from covqec import codes
from covqec import sdp

from conftest import (assert_starts_at_open_bracket, assert_starts_at_optimum, assert_strictly_feasible,
                      block_covariant_choi, block_unitary, standard_program)

RNG = np.random.default_rng(5)


def random_channel(rng, d, n_kraus=3):
    a = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(a)
    return ch.KrausChannel(d, d, [q[i * d:(i + 1) * d, :] for i in range(n_kraus)])


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def test_solve_scalar_lower_bound():
    # min x subject to x >= 1, posed as x - s = 1 with a slack block s >= 0
    one = np.eye(1)
    res = sdp.solve(standard_program({"x": 1, "s": 1}, {"x": one}, [({"x": one, "s": -one}, 1.0)]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-7)
    assert res.gap <= 1e-6


def test_solve_min_eigenvalue():
    # min <C, X> s.t. Tr X = 1, X >= 0  ==  lambda_min(C)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = 0.5 * (a + a.conj().T)
        res = sdp.solve(standard_program({"X": 4}, {"X": c}, [({"X": np.eye(4)}, 1.0)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(np.linalg.eigvalsh(c).min(), abs=1e-7)


def test_solve_two_block_toy_vs_grid():
    # min x + 2y s.t. x + y = 1, x, y >= 0; grid oracle over the segment
    one = np.eye(1)
    res = sdp.solve(standard_program({"x": 1, "y": 1}, {"x": one, "y": 2 * one},
                                     [({"x": one, "y": one}, 1.0)]))
    grid = min(x + 2 * (1 - x) for x in np.linspace(0, 1, 100001))
    assert res.value == pytest.approx(grid, abs=1e-6)


def test_solve_max_sense():
    # max x s.t. x + s = 2 is minus the minimum of -x
    one = np.eye(1)
    res = sdp.solve(standard_program({"x": 1, "s": 1}, {"x": -one}, [({"x": one, "s": one}, 2.0)]))
    assert -res.value == pytest.approx(2.0, abs=1e-7)


def test_size_cap():
    with pytest.raises(ValueError, match="would exceed the cap of 256"):
        sdp._zero_program({"big": sdp.DEFAULT_SIZE_CAP + 1}, 1)


def test_duality_on_optimal_exit():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3))
    c = 0.5 * (a + a.T).astype(complex)
    res = sdp.solve(standard_program({"X": 3}, {"X": c}, [({"X": np.eye(3)}, 1.0)]), tol=1e-9)
    assert res.status == "optimal"
    assert res.gap <= 1e-8 * (1 + abs(res.value))
    w = np.linalg.eigvalsh(res.blocks["X"])
    assert w.min() >= -1e-9


def test_solve_unequal_blocks():
    # min Tr(C1 X1) + Tr(C2 X2) s.t. Tr X1 + Tr X2 = 1: the smallest
    # eigenvalue over both blocks (and, for the negated objective, minus the
    # largest)
    rng = np.random.default_rng(13)
    cs = []
    for s in (3, 2):
        a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        cs.append(0.5 * (a + a.conj().T))
    w = [np.linalg.eigvalsh(c) for c in cs]
    for sign, ref in ((1, min(w[0].min(), w[1].min())), (-1, -max(w[0].max(), w[1].max()))):
        res = sdp.solve(standard_program({"X1": 3, "X2": 2}, {"X1": sign * cs[0], "X2": sign * cs[1]},
                                         [({"X1": np.eye(3), "X2": np.eye(2)}, 1.0)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(ref, abs=1e-7)
        x1, x2 = res.blocks["X1"], res.blocks["X2"]
        assert x1.shape == (3, 3) and x2.shape == (2, 2)
        assert min(np.linalg.eigvalsh(x1).min(), np.linalg.eigvalsh(x2).min()) >= -1e-9
        assert np.real(np.trace(x1) + np.trace(x2)) == pytest.approx(1.0, abs=1e-8)


def test_primal_divergence_is_unbounded():
    # min -x s.t. x - y = 0 has no minimum; the primal iterate grows until
    # the divergence test stops it, before any overflow
    one = np.eye(1)
    res = sdp.solve(standard_program({"x": 1, "y": 1}, {"x": -one}, [({"x": one, "y": -one}, 0.0)]))
    assert res.status == "unbounded"
    assert res.iterations == 5
    assert res.value < -1e12


def test_dual_divergence_is_infeasible():
    # x + s = -1 has no solution with x, s >= 0
    one = np.eye(1)
    prog = standard_program({"x": 1, "s": 1}, {"x": one}, [({"x": one, "s": one}, -1.0)])
    assert sdp.solve(prog).status == "infeasible"


def test_repeated_row_singular_schur_matrix():
    # Tr X = 1 posed three times: every Schur matrix is rank one, so only the
    # jittered factor makes it invertible; the value is still lambda_min(C)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = 0.5 * (a + a.conj().T)
    res = sdp.solve(standard_program({"X": 3}, {"X": c}, [({"X": np.eye(3)}, 1.0)] * 3))
    assert res.status == "optimal"
    assert res.value == pytest.approx(np.linalg.eigvalsh(c).min(), abs=1e-7)


# ---------------------------------------------------------------------------
# sqrt_fwc
# ---------------------------------------------------------------------------

def test_sqrt_fwc_identical_channels():
    n = random_channel(RNG, 2)
    assert sdp.sqrt_fwc(n.choi(), n.choi()) == pytest.approx(1.0, abs=1e-6)


def test_sqrt_fwc_depolarizing_equals_entanglement_fidelity():
    # the depolarizing channel is covariant, so its worst case is the
    # maximally entangled input and F_wc = F_ent = 1 - 3p/4
    for p in (0.2, 0.6):
        f = sdp.sqrt_fwc(ch.identity_channel(2).choi(), ch.depolarizing_channel(p).choi())
        assert f**2 == pytest.approx(1 - 3 * p / 4, abs=1e-5)


def test_sqrt_fwc_unitary_phase():
    # oracle: for U = diag(e^{it/2}, e^{-it/2}),
    # sqrt(F_wc) = min_p |p e^{it/2} + (1-p) e^{-it/2}| = cos(t/2) for t <= pi
    t = np.pi / 2
    scan = min(
        abs(p * np.exp(1j * t / 2) + (1 - p) * np.exp(-1j * t / 2))
        for p in np.linspace(0, 1, 20001)
    )
    assert scan == pytest.approx(np.cos(t / 2), abs=1e-8)
    u = np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])
    f = sdp.sqrt_fwc(ch.identity_channel(2).choi(), ch.KrausChannel(2, 2, [u]).choi())
    assert f == pytest.approx(1 / np.sqrt(2), abs=1e-6)


def test_sqrt_fwc_symmetric():
    a, b = random_channel(RNG, 2), random_channel(RNG, 2)
    f1 = sdp.sqrt_fwc(a.choi(), b.choi())
    f2 = sdp.sqrt_fwc(b.choi(), a.choi())
    assert f1 == pytest.approx(f2, abs=2e-7)


def test_sqrt_fwc_below_entanglement_fidelity():
    for _ in range(5):
        a, b = random_channel(RNG, 2), random_channel(RNG, 2)
        f = sdp.sqrt_fwc(a.choi(), b.choi())
        assert f <= np.sqrt(ch.entanglement_fidelity(a, b)) + 1e-6


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _sqrtm_psd_batch(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _purified_sqrt_fidelity(a, b, bloch):
    """sqrt F((A (x) I) psi_rho, (B (x) I) psi_rho), psi_rho = (sqrt(rho) (x) I)|Omega>,
    for every Bloch vector in `bloch` (qubit channels given by Kraus operators)."""
    rho = 0.5 * (np.eye(2) + np.einsum("ni,ijk->njk", bloch, PAULI))
    psi = _sqrtm_psd_batch(rho).reshape(-1, 4)

    def extended_output(chan):
        cols = np.stack([psi @ np.kron(k, np.eye(2)).T for k in chan.kraus], axis=-1)
        return cols @ cols.conj().swapaxes(-1, -2)

    prod = _sqrtm_psd_batch(extended_output(a)) @ _sqrtm_psd_batch(extended_output(b))
    return np.linalg.svd(prod, compute_uv=False).sum(axis=-1)


def test_sqrt_fwc_matches_bloch_ball_scan():
    # Cube grid of spacing h over [-1, 1]^3 with outside points projected onto
    # the sphere; projection onto the ball is non-expansive, so every Bloch
    # vector lies within h sqrt(3)/2 of the grid.  The purified root fidelity
    # equals ||[Tr(rho K_k^dag L_l)]_kl||_1, a norm of a linear image of rho
    # that is at most 1 on states, so it is 1-Lipschitz in the trace distance
    # |r - r'|: the true minimum lies within that radius of the scan minimum.
    k = 41
    t = np.linspace(-1.0, 1.0, k)
    grid = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    grid /= np.maximum(np.linalg.norm(grid, axis=1, keepdims=True), 1.0)
    resolution = np.sqrt(3) / (k - 1)
    rng = np.random.default_rng(7)
    for _ in range(3):
        a, b = random_channel(rng, 2), random_channel(rng, 2)
        scan = _purified_sqrt_fidelity(a, b, grid)
        f = sdp.sqrt_fwc(a.choi(), b.choi())
        assert f <= scan.min() + 1e-8
        assert f >= scan.min() - resolution


# ---------------------------------------------------------------------------
# diamond_error
# ---------------------------------------------------------------------------

def test_diamond_identical():
    n = random_channel(RNG, 2)
    assert sdp.diamond_error(n.choi(), n.choi()) == pytest.approx(0.0, abs=1e-7)


def _recorded_solves(monkeypatch):
    """(status, iterations) of every sdp.solve from here on; exact counts
    catch a rewrite of the interior point that changes its path (start
    point, step rule, centering, Schur solve)."""
    runs = []
    inner = sdp.solve

    def recording(inst, *args, **kwargs):
        res = inner(inst, *args, **kwargs)
        runs.append((res.status, res.iterations))
        return res

    monkeypatch.setattr(sdp, "solve", recording)
    return runs


def test_diamond_bit_flip(monkeypatch):
    # oracle: scan over pure inputs gives p, and eps_wc <= mixture bound p
    runs = _recorded_solves(monkeypatch)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for p in (0.15, 0.4):
        flip = ch.KrausChannel(2, 2, [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * x])
        scan = 0.0
        for t in np.linspace(0, np.pi, 400):
            psi = np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex)
            rho = np.outer(psi, psi.conj())
            diff = rho - sum(k @ rho @ k.conj().T for k in flip.kraus)
            scan = max(scan, 0.5 * ch.trace_norm(diff))
        assert scan == pytest.approx(p, abs=1e-4)
        assert sdp.diamond_error(ch.identity_channel(2).choi(), flip.choi()) == pytest.approx(p, abs=1e-6)
    # a bit flip is a Pauli channel: its entanglement bracket closes and the
    # solve starts at the optimum; forced open, the same two programs start
    # at the bracket with the dual shrunk by 1/2
    assert runs == [("optimal", 1), ("optimal", 1)]
    monkeypatch.setattr(sdp, "_BRACKET_TOL", -1.0)
    for p in (0.15, 0.4):
        flip = ch.KrausChannel(2, 2, [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * x])
        sdp.diamond_error(ch.identity_channel(2).choi(), flip.choi())
    assert runs[2:] == [("optimal", 6), ("optimal", 7)]


def test_diamond_random_pairs_pin_iterations(monkeypatch):
    runs = _recorded_solves(monkeypatch)
    rng = np.random.default_rng(2024)
    for _ in range(2):
        a, b = random_channel(rng, 2), random_channel(rng, 2)
        sdp.diamond_error(a.choi(), b.choi())
    assert runs == [("optimal", 10), ("optimal", 9)]


def test_sqrt_fwc_pin_iterations(monkeypatch):
    # the two criterion-9 instances of the benchmark: blocks [1, 2] with
    # weight w_0 on the trivial block
    runs = _recorded_solves(monkeypatch)
    ident = ch.identity_channel(3).choi()
    for w0 in (1 / 3, 2 / 3):
        sdp.sqrt_fwc(ident, block_covariant_choi([1, 2], {0: w0, 1: 1 - w0}))
    assert runs == [("optimal", 10), ("optimal", 10)]


def test_diamond_of_covariant_channel_is_a():
    # a covariant channel's worst input is Phi+, so its diamond error is a:
    # the program protocol.effective_channel solves for eps_cov
    ident = ch.identity_channel(2).choi()
    for a in (0.0, 1e-6, 1e-3, 0.2, 0.5, 0.75, 1.0):
        choi = ch.covariant_choi(ch.CovariantParams(2, a))
        assert sdp.diamond_error(choi, ident) == pytest.approx(a, abs=1e-7)


def test_diamond_brackets_random_pairs():
    for _ in range(25):
        a, b = random_channel(RNG, 2), random_channel(RNG, 2)
        eps_ent = ch.entanglement_error(a, b)
        eps_wc = sdp.diamond_error(a.choi(), b.choi())
        assert eps_ent <= eps_wc + 1e-6
        assert eps_wc <= 2 * eps_ent + 1e-6


def _isometry_channel(v):
    return ch.KrausChannel(v.shape[1], v.shape[0], [v])


def test_diamond_isometries_differing_by_a_phase():
    # V and V diag(1, i) embed C^2 in C^3: 1/2 ||.||_diamond = sqrt(1 - r^2),
    # r = |(1 + i)/2| the distance from 0 to the segment [1, i]
    v = np.eye(3, 2, dtype=complex)
    value = sdp.diamond_error(_isometry_channel(v).choi(), _isometry_channel(v @ np.diag([1, 1j])).choi())
    assert value == pytest.approx(1 / np.sqrt(2), abs=1e-7)


def test_diamond_isometries_with_orthogonal_ranges():
    # every input goes to orthogonal outputs, so the channels are perfectly
    # distinguishable
    v = np.eye(4, 2, dtype=complex)
    w = np.eye(4, 2, k=-2, dtype=complex)
    assert sdp.diamond_error(_isometry_channel(v).choi(), _isometry_channel(w).choi()) == pytest.approx(1.0, abs=1e-7)


def test_diamond_qutrit_unitary_is_numerical_range_formula():
    # 1/2 ||U . U^dag - id||_diamond = sqrt(1 - r^2), r the distance from 0
    # to the convex hull of U's eigenvalues; with eigenphases within an arc
    # shorter than pi, 0 lies outside the hull and r is the least distance
    # to one of its edges
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = q @ np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0]))) @ q.conj().T
    lam = np.linalg.eigvals(u)

    def to_segment(p, e):
        t = np.clip(np.real(np.conj(p) * (p - e)) / abs(p - e) ** 2, 0.0, 1.0)
        return abs(p + t * (e - p))

    r = min(to_segment(lam[i], lam[j]) for i in range(3) for j in range(i + 1, 3))
    value = sdp.diamond_error(_isometry_channel(u).choi(), ch.identity_channel(3).choi())
    assert value == pytest.approx(np.sqrt(1 - r**2), abs=1e-7)


# ---------------------------------------------------------------------------
# the bracket start: at the optimum when the entanglement bracket closes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.0, 1e-12, 1e-6, 1e-3, 0.2, 0.5, 0.75, 1.0])
def test_covariant_program_starts_at_its_optimum(a):
    # a covariant channel's worst input is Phi+, so the bracket closes at a
    ident = ch.identity_channel(2).choi()
    assert_starts_at_optimum(ch.covariant_choi(ch.CovariantParams(2, a)), ident, a)


def test_identical_channels_program_starts_at_its_optimum():
    # J = 0: the start stays strictly feasible, and the value is 0
    n = random_channel(np.random.default_rng(47), 2).choi()
    assert_starts_at_optimum(n, n, 0.0)


@pytest.mark.parametrize("din,dout", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_open_bracket_start_reaches_the_optimum(din, dout):
    # a random pair's bracket stays open: the solve leaves the start, and
    # ends where the program solved with no start does
    rng = np.random.default_rng(53 + 4 * din + dout)
    for _ in range(3):
        assert_starts_at_open_bracket(*(_random_kraus(rng, din, dout).choi() for _ in range(2)))


# ---------------------------------------------------------------------------
# array-built programs against the dict-built reference
# ---------------------------------------------------------------------------

def _pick(n, r, c, imag=False):
    """The Hermitian A with <A, X> = Re X[r, c], or Im X[r, c] (r != c) if `imag`."""
    a = np.zeros((n, n), dtype=complex)
    a[r, c], a[c, r] = (0.5j, -0.5j) if imag else (0.5, 0.5)
    return a if r != c else 2 * a


def _reference_diamond_program(choi_a, choi_b):
    """diamond_error's program, one coefficient dict per entry-picking row."""
    din, dout = choi_a.dim_in, choi_a.dim_out
    D = din * dout
    ju = din * (choi_a.mat - choi_b.mat)
    rows = []
    # Q - P = 2 J
    for r in range(D):
        for c in range(r, D):
            for imag in (False, True) if c > r else (False,):
                rhs = 2 * (np.imag(ju[r, c]) if imag else np.real(ju[r, c]))
                rows.append(({"Q": _pick(D, r, c, imag), "P": -_pick(D, r, c, imag)}, rhs))
    # T + Tr_out((P + Q)/2) - mu I = 0
    for i in range(din):
        for j in range(i, din):
            for imag in (False, True) if j > i else (False,):
                trace_pick = np.zeros((D, D), dtype=complex)
                for a_out in range(dout):
                    trace_pick += 0.5 * _pick(D, a_out * din + i, a_out * din + j, imag)
                coeffs = {"T": _pick(din, i, j, imag), "P": trace_pick, "Q": trace_pick}
                if i == j:
                    coeffs["mu"] = -np.eye(1, dtype=complex)
                rows.append((coeffs, 0.0))
    # blocks P = Y - J, Q = Y + J, T = mu I - Tr_out Y and mu
    return standard_program({"P": D, "Q": D, "T": din, "mu": 1}, {"mu": np.eye(1)}, rows)


def _reference_fwc_program(choi_a, choi_b):
    """sqrt_fwc's program, one coefficient dict per entry-picking row."""
    din, dout = choi_a.dim_in, choi_a.dim_out
    w_a, v_a = sdp._support(choi_a.unnormalized())
    w_b, v_b = sdp._support(choi_b.unnormalized())
    r_a, r_b = len(w_a), len(w_b)
    n = r_a + r_b
    rows = [({"rho": np.eye(din)}, 1.0)]
    y = v_a.T.reshape(r_a, dout, din)
    x = v_b.T.reshape(r_b, dout, din)
    for p in range(r_a):
        for q in range(r_b):
            n_pq = x[q].T @ y[p].conj()
            rows.append(({"S": _pick(n, p, r_a + q), "rho": n_pq}, 0.0))
            rows.append(({"S": _pick(n, p, r_a + q, imag=True), "rho": -1j * n_pq}, 0.0))
    return standard_program({"S": n, "rho": din}, {"S": 0.5 * np.diag(np.concatenate([w_a, w_b]))}, rows)


def _assert_same_program(ref, prog):
    # bytes with -0.0 read as +0.0 (adding +0.0 changes no other bit): the
    # Hermitian part of the reference's -_pick(...) leaves signed zeros in P
    for name in ("C", "A3", "b"):
        want, got = getattr(ref, name), getattr(prog, name)
        assert want.shape == got.shape and (want + 0.0).tobytes() == (got + 0.0).tobytes(), name
    assert {n: (s.start, s.stop) for n, s in ref.spans.items()} == \
        {n: (s.start, s.stop) for n, s in prog.spans.items()}
    # and the solver, both sides started at its default point, runs the same
    # iterations on both
    want, got = sdp.solve(ref), sdp.solve(prog._replace(start=None))
    assert (want.value, want.gap, want.status, want.iterations) == \
        (got.value, got.gap, got.status, got.iterations)
    assert all(want.blocks[n].tobytes() == got.blocks[n].tobytes() for n in ref.spans)
    # from the program's own feasible start it reaches the same optimum
    res = sdp.solve(prog)
    assert res.status == "optimal"
    assert abs(res.value - want.value) <= 1e-8


def _random_kraus(rng, din, dout, n_kraus=3):
    a = rng.standard_normal((n_kraus * dout, din)) + 1j * rng.standard_normal((n_kraus * dout, din))
    q, _ = np.linalg.qr(a)
    return ch.KrausChannel(din, dout, [q[i * dout:(i + 1) * dout, :] for i in range(n_kraus)])


@pytest.mark.parametrize("din,dout", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_diamond_program_equals_dict_builder(din, dout):
    rng = np.random.default_rng(31 + 4 * din + dout)
    ca, cb = (_random_kraus(rng, din, dout).choi() for _ in range(2))
    prog = sdp._diamond_program(ca, cb)
    _assert_same_program(_reference_diamond_program(ca, cb), prog)
    # C and A3 are built once per (d_in, d_out) and shared read-only
    again = sdp._diamond_program(cb, ca)
    assert again.C is prog.C and again.A3 is prog.A3
    assert not (prog.C.flags.writeable or prog.A3.flags.writeable)


def test_fwc_program_equals_dict_builder():
    rng = np.random.default_rng(37)
    ca, cb = (_random_kraus(rng, 2, 2).choi() for _ in range(2))
    _assert_same_program(_reference_fwc_program(ca, cb), sdp._fwc_program(ca, cb))
    ident = ch.identity_channel(3).choi()
    choi = block_covariant_choi([1, 2], {0: 1 / 3, 1: 2 / 3})
    _assert_same_program(_reference_fwc_program(ident, choi), sdp._fwc_program(ident, choi))


@pytest.mark.parametrize("din,dout", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_start_is_strictly_feasible_on_random_pairs(din, dout):
    rng = np.random.default_rng(41 + 4 * din + dout)
    for _ in range(3):
        ca, cb = (_random_kraus(rng, din, dout).choi() for _ in range(2))
        assert_strictly_feasible(sdp._diamond_program(ca, cb))
        assert_strictly_feasible(sdp._fwc_program(ca, cb))


def test_start_is_strictly_feasible_on_special_pairs():
    ident2, ident3 = ch.identity_channel(2).choi(), ch.identity_channel(3).choi()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = ch.KrausChannel(2, 2, [np.sqrt(0.85) * np.eye(2), np.sqrt(0.15) * x]).choi()
    phase = ch.KrausChannel(2, 2, [np.diag([1, 1j])]).choi()
    n = random_channel(np.random.default_rng(43), 2).choi()
    block = block_covariant_choi([1, 2], {0: 1 / 3, 1: 2 / 3})
    # the bit-flip pair, and identical channels (J = 0): all three brackets close
    for ca, cb in ((ident2, flip), (n, n), (ident2, ident2)):
        assert_strictly_feasible(sdp._diamond_program(ca, cb))
    # rank-deficient Chois: rank one against ranks one, two and three
    for ca, cb in ((ident2, phase), (ident2, flip), (ident3, block), (n, n), (ident2, ident2)):
        assert_strictly_feasible(sdp._fwc_program(ca, cb))


# ---------------------------------------------------------------------------
# invariance under local phase conjugation
# ---------------------------------------------------------------------------

def _phase_conjugated(choi):
    """The Choi matrix of U_out N(U_in . U_in^dag) U_out^dag for diagonal
    phase unitaries U_in, U_out: conjugating two channels alike keeps their
    diamond distance, but their J is no longer real."""
    w = np.kron(np.diag([1, np.exp(0.4j)]), np.diag([1, np.exp(0.7j)]).T)
    return ch.ChoiMatrix(choi.dim_in, choi.dim_out, w @ choi.mat @ w.conj().T)


def _assert_phase_conjugation_invariant(choi_a, choi_b):
    plain = sdp.solve(sdp._diamond_program(choi_a, choi_b))
    conj = sdp.solve(sdp._diamond_program(_phase_conjugated(choi_a), _phase_conjugated(choi_b)))
    assert plain.status == conj.status == "optimal"
    # each value is twice the diamond error
    assert abs(plain.value - conj.value) / 2 <= 1e-9


def test_diamond_error_is_phase_conjugation_invariant_on_three_erasure_patterns():
    code = codes.five_qubit_code()
    ident = ch.identity_channel(2).choi()
    for pattern in itertools.combinations(range(code.n_p), 3):
        _assert_phase_conjugation_invariant(codes.corrected_channel(code, pattern).choi(), ident)


def test_diamond_error_is_phase_conjugation_invariant_on_covariant_channels():
    # the a-grid of test_diamond_of_covariant_channel_is_a
    ident = ch.identity_channel(2).choi()
    for a in (0.0, 1e-6, 1e-3, 0.2, 0.5, 0.75, 1.0):
        _assert_phase_conjugation_invariant(ch.covariant_choi(ch.CovariantParams(2, a)), ident)


def test_rows_that_constrain_im_x_reach_a_complex_optimum():
    # real C, with an imaginary row of b_k != 0, or a row with both a real
    # and an imaginary part: either constrains Im X, and the optimum needs
    # Im X != 0.  With X = (I + x sx + y sy + z sz)/2, Re X01 = x/2 and
    # Im X01 = -y/2
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    for c, row, rhs, want in ((sz, _pick(2, 0, 1, imag=True), 0.3, -0.8),  # y = -0.6, min z
                              (sx, _pick(2, 0, 1) + _pick(2, 0, 1, imag=True), 0.0, -0.5 ** 0.5)):  # x = y, min x
        res = sdp.solve(standard_program({"X": 2}, {"X": c}, [({"X": np.eye(2)}, 1.0), ({"X": row}, rhs)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(want, abs=1e-7)


# ---------------------------------------------------------------------------
# restricted_fwc (block-covariant channels)
# ---------------------------------------------------------------------------

def test_restricted_identity():
    n = 3
    assert sdp.restricted_fwc([1, 2], ch.identity_channel(n).choi()) == pytest.approx(1.0, abs=1e-9)


def test_restricted_single_block_is_entanglement_fidelity():
    for p in (0.3, 0.8):
        depol = ch.depolarizing_channel(p)
        val = sdp.restricted_fwc([2], depol.choi())
        assert val == pytest.approx(1 - 3 * p / 4, abs=1e-9)


@pytest.mark.parametrize("blocks,weights", [
    ([1, 2], {0: 0.4, 1: 0.6}),
    ([1, 2], {1: 1.0}),
    ([1, 3], {0: 0.25, 2: 0.75}),
])
def test_restricted_matches_sdp(blocks, weights):
    rng = np.random.default_rng(17)
    choi = block_covariant_choi(blocks, weights)
    vs = [block_unitary(blocks, u) for u in ch.haar_su2(rng, 3)]
    restricted = sdp.restricted_fwc(blocks, choi, symmetry_samples=vs)
    full = sdp.sqrt_fwc(ch.identity_channel(sum(blocks)).choi(), choi) ** 2
    assert restricted == pytest.approx(full, abs=1e-5)


@pytest.mark.parametrize("weights", [
    {0: 0.91719828, 1: 0.08280172},
    {0: 0.27337798, 1: 0.72662202},
])
def test_restricted_fwc_is_exact(weights):
    # weights at which a local descent on the unit sphere stalls ~1e-6
    # above the restricted minimum
    choi = block_covariant_choi([1, 2], weights)
    full = sdp.sqrt_fwc(ch.identity_channel(3).choi(), choi) ** 2
    assert abs(sdp.restricted_fwc([1, 2], choi) - full) < 1e-7


def test_restricted_ignores_n_restarts():
    choi = block_covariant_choi([1, 2], {0: 0.4, 1: 0.6})
    assert sdp.restricted_fwc([1, 2], choi, n_restarts=25) == sdp.restricted_fwc([1, 2], choi)


def test_restricted_rejects_noncovariant():
    n = random_channel(np.random.default_rng(2), 3)
    vs = [block_unitary([1, 2], u) for u in ch.haar_su2(np.random.default_rng(3), 2)]
    with pytest.raises(ValueError):
        sdp.restricted_fwc([1, 2], n.choi(), symmetry_samples=vs)


@pytest.mark.parametrize("blocks", [[0, 3], [1.5, 1.5], [-1, 4], [3.0]])
def test_restricted_rejects_malformed_block_sizes(blocks):
    # each would otherwise fail inside numpy or LAPACK: a zero block divides
    # by zero, a fractional one indexes out of range, a negative one breaks
    # np.repeat
    with pytest.raises(ValueError, match="positive integers"):
        sdp.restricted_fwc(blocks, ch.identity_channel(3).choi())


def test_restricted_rejects_a_nan_symmetry_sample():
    # a NaN residual fails every comparison, so the check must not pass it
    nan = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        sdp.restricted_fwc([1, 2], ch.identity_channel(3).choi(), symmetry_samples=[nan])
