import numpy as np
import pytest

from covqec import channels as ch
from covqec import young

RNG = np.random.default_rng(42)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_channel(rng, d, n_kraus=3):
    """Random CPTP map from a Stinespring isometry."""
    a = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(a)
    kraus = [q[i * d:(i + 1) * d, :] for i in range(n_kraus)]
    return ch.KrausChannel(d, d, kraus)


def apply(chan, rho):
    return sum(k @ rho @ k.conj().T for k in chan.kraus)


# ---------------------------------------------------------------------------
# apply / compose / Kraus validation
# ---------------------------------------------------------------------------

def test_apply_identity():
    rho = random_state(RNG, 3)
    out = apply(ch.identity_channel(3), rho)
    assert np.allclose(out, rho)


def test_apply_depolarizing_p1():
    rho = random_state(RNG, 2)
    out = apply(ch.depolarizing_channel(1.0), rho)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_kraus_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        ch.KrausChannel(2, 2, [np.eye(3)])


def test_choi_of_weighted_kraus_union_is_convex_combination():
    a, b = random_channel(RNG, 2), random_channel(RNG, 2)
    kraus = [np.sqrt(0.3) * k for k in a.kraus] + [np.sqrt(0.7) * k for k in b.kraus]
    expect = 0.3 * a.choi().mat + 0.7 * b.choi().mat
    assert np.allclose(ch.KrausChannel(2, 2, kraus).choi().mat, expect, atol=1e-12)


def test_compose_with_identity():
    n = random_channel(RNG, 2)
    c = ch.compose(ch.identity_channel(2), n)
    assert np.allclose(c.choi().mat, n.choi().mat, atol=1e-12)


def test_choi_rejects_nan():
    mat = ch.identity_channel(2).choi().mat
    mat[0, 0] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        ch.ChoiMatrix(2, 2, mat)


@pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
def test_depolarizing_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match="probability"):
        ch.depolarizing_channel(p)


def test_kraus_rejects_non_trace_preserving():
    n = random_channel(RNG, 2)
    kraus = [np.sqrt(0.5) * k for k in n.kraus] + [np.sqrt(0.6) * k for k in n.kraus]
    with pytest.raises(ValueError, match="trace preserving"):
        ch.KrausChannel(2, 2, kraus)


def random_map(rng, d_in, d_out, n_kraus):
    """Random CPTP map d_in -> d_out, its Kraus operators as a list."""
    a = rng.standard_normal((n_kraus * d_out, d_in)) + 1j * rng.standard_normal((n_kraus * d_out, d_in))
    q, _ = np.linalg.qr(a)
    return [q[i * d_out:(i + 1) * d_out] for i in range(n_kraus)]


def test_kraus_list_is_held_as_one_stack():
    ops = random_map(RNG, 2, 3, 4)
    chan = ch.KrausChannel(2, 3, ops)
    assert chan.kraus.shape == (4, 3, 2) and chan.kraus.dtype == complex
    assert len(chan.kraus) == 4
    assert all(np.array_equal(k, op) for k, op in zip(chan.kraus, ops))


def test_compose_matches_pairwise_products():
    outer_ops, inner_ops = random_map(RNG, 3, 2, 3), random_map(RNG, 2, 3, 4)
    got = ch.compose(ch.KrausChannel(3, 2, outer_ops), ch.KrausChannel(2, 3, inner_ops))
    expect = [a @ b for a in outer_ops for b in inner_ops]
    assert (got.dim_in, got.dim_out) == (2, 2) and got.kraus.shape == (12, 2, 2)
    assert np.max(np.abs(got.kraus - np.array(expect))) < 1e-15


@pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (2, 3, 4), (3, 2, 5)])
def test_choi_matches_sum_of_outer_products(d_in, d_out, n_kraus):
    ops = random_map(RNG, d_in, d_out, n_kraus)
    expect = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ops) / d_in
    got = ch.KrausChannel(d_in, d_out, ops).choi()
    assert (got.dim_in, got.dim_out) == (d_in, d_out)
    assert np.max(np.abs(got.mat - expect)) < 1e-15


@pytest.mark.parametrize("kraus,message", [
    ([np.eye(2), np.eye(3)], "sequence"),                              # ragged list
    (np.eye(2), "shape"),                                               # one operator, not a stack
    (np.eye(2).reshape(1, 1, 2, 2), "shape"),                           # a stack of stacks
    (np.zeros((0, 2, 2)), "trace preserving"),                          # empty stack
    (np.stack([np.eye(2), np.eye(2)]) / np.sqrt(1.9), "trace preserving"),
    (np.full((1, 2, 2), np.nan), "trace preserving"),
], ids=["ragged", "2d", "4d", "empty", "non-tp", "nan"])
def test_kraus_stack_validation(kraus, message):
    with pytest.raises(ValueError, match=message):
        ch.KrausChannel(2, 2, kraus)


# ---------------------------------------------------------------------------
# fidelities and errors
# ---------------------------------------------------------------------------

def test_uhlmann_identical():
    rho = random_state(RNG, 3)
    assert ch.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_uhlmann_orthogonal():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    assert ch.uhlmann_fidelity(z0, z1) == pytest.approx(0.0, abs=1e-12)


def test_uhlmann_pure_vs_mixed():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    assert ch.uhlmann_fidelity(z0, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


def test_entanglement_fidelity_self():
    n = random_channel(RNG, 2)
    assert ch.entanglement_fidelity(n, n) == pytest.approx(1.0, abs=1e-9)


def test_entanglement_fidelity_depolarizing():
    for p in (0.1, 0.5, 0.9):
        f = ch.entanglement_fidelity(ch.identity_channel(2), ch.depolarizing_channel(p))
        assert f == pytest.approx(1 - 3 * p / 4, abs=1e-10)


def test_entanglement_fidelity_unitary_phase():
    # F_ent(I, e^{i t sz}) = |(e^{it} + e^{-it})/2|^2 = cos^2 t
    for t in (0.2, 0.9, 1.4):
        u = np.diag([np.exp(1j * t), np.exp(-1j * t)])
        f = ch.entanglement_fidelity(ch.identity_channel(2), ch.KrausChannel(2, 2, [u]))
        assert f == pytest.approx(np.cos(t) ** 2, abs=1e-10)


def test_entanglement_error_self():
    n = random_channel(RNG, 2)
    assert ch.entanglement_error(n, n) == pytest.approx(0.0, abs=1e-10)


def test_entanglement_error_orthogonal_replacement():
    # replacing with a state orthogonal to Phi+ gives error 1
    phi = ch.max_entangled_state(2)
    perp = (np.eye(4) - phi) / 3
    # build the channel whose Choi is rho_perp: the "universal not"-like map
    cov = ch.covariant_choi(ch.CovariantParams(2, 1.0))
    assert np.allclose(cov.mat, perp, atol=1e-12)
    id_choi = ch.identity_channel(2).choi()
    assert ch.entanglement_error(id_choi, cov) == pytest.approx(1.0, abs=1e-10)


def test_fuchs_van_de_graaf():
    for _ in range(1000):
        rho, sigma = random_state(RNG, 2), random_state(RNG, 2)
        f = ch.uhlmann_fidelity(rho, sigma)
        t = 0.5 * ch.trace_norm(rho - sigma)
        assert 1 - np.sqrt(f) <= t + 1e-9
        assert t <= np.sqrt(1 - f) + 1e-9


def test_ent_error_vs_fidelity_brackets():
    for _ in range(50):
        a, b = random_channel(RNG, 2), random_channel(RNG, 2)
        f = ch.entanglement_fidelity(a, b)
        e = ch.entanglement_error(a, b)
        assert 1 - np.sqrt(f) <= e + 1e-9
        assert e <= np.sqrt(1 - f) + 1e-9


# ---------------------------------------------------------------------------
# covariant closed forms
# ---------------------------------------------------------------------------

def test_covariant_params_identity():
    p = ch.covariant_params(ch.identity_channel(2).choi())
    assert p.a == pytest.approx(0.0, abs=1e-12)


def test_covariant_params_depolarizing():
    p = ch.covariant_params(ch.depolarizing_channel(1.0).choi())
    assert p.a == pytest.approx(3 / 4, abs=1e-12)


def test_covariant_params_rejects_unitary():
    u = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    with pytest.raises(ValueError, match="channel is not covariant: reconstruction residual"):
        ch.covariant_params(ch.KrausChannel(2, 2, [u]).choi())


def test_covariant_roundtrip():
    for a in (0.0, 0.2, 0.77, 1.0):
        p = ch.CovariantParams(2, a)
        back = ch.covariant_params(ch.covariant_choi(p))
        assert back.a == pytest.approx(a, abs=1e-12)


def test_cov_fidelity_and_errors():
    assert ch.cov_fidelity_and_errors(ch.CovariantParams(2, 0), ch.CovariantParams(2, 0)) == (1.0, 0.0)
    f, e = ch.cov_fidelity_and_errors(ch.CovariantParams(2, 0.3), ch.CovariantParams(2, 0.3))
    assert f == pytest.approx(1.0) and e == 0.0
    f, e = ch.cov_fidelity_and_errors(ch.CovariantParams(2, 0.0), ch.CovariantParams(2, 1.0))
    assert f == pytest.approx(0.0) and e == pytest.approx(1.0)


def test_cov_closed_forms_match_dense():
    for a, b in [(0.1, 0.4), (0.0, 0.9), (0.55, 0.3)]:
        pa, pb = ch.CovariantParams(2, a), ch.CovariantParams(2, b)
        f_closed, e_closed = ch.cov_fidelity_and_errors(pa, pb)
        ja, jb = ch.covariant_choi(pa), ch.covariant_choi(pb)
        assert f_closed == pytest.approx(ch.uhlmann_fidelity(ja.mat, jb.mat), abs=1e-10)
        assert e_closed == pytest.approx(0.5 * ch.trace_norm(ja.mat - jb.mat), abs=1e-10)


def test_lemma5_values():
    assert ch.lemma5_bound(ch.CovariantParams(2, 0.0), 1.0, 2) == pytest.approx(0.0)
    assert ch.lemma5_bound(ch.CovariantParams(2, 0.01), 1.0, 2) == pytest.approx(0.18)


# ---------------------------------------------------------------------------
# twirl
# ---------------------------------------------------------------------------

def _twirl_param(n):
    """1 - F_ent(N, I): the parameter of the twirl int dU U . N . U^dag."""
    return 1 - ch.entanglement_fidelity(n, ch.identity_channel(2))


def test_twirl_identity():
    assert _twirl_param(ch.identity_channel(2)) == pytest.approx(0.0, abs=1e-12)


def test_twirl_matches_quadrature():
    # oracle: explicit quadrature twirl int dU (U (x) U*) J (U (x) U*)^dag
    quad = ch.haar_quadrature_su2(4)
    us = quad.matrices()
    for _ in range(100):
        n = random_channel(RNG, 2)
        j = n.choi().mat
        acc = np.zeros_like(j)
        for u, w in zip(us, quad.weights):
            k = np.kron(u, u.conj())
            acc += w * (k @ j @ k.conj().T)
        # the twirled Choi is covariant, with parameter 1 - F_ent(N, I)
        p = ch.covariant_params(ch.ChoiMatrix(2, 2, acc), tol=1e-6)
        assert _twirl_param(n) == pytest.approx(p.a, abs=1e-6)


def test_twirl_unitary_invariance():
    n = random_channel(RNG, 2)
    v = ch.haar_su2(RNG, 1)[0]
    conj = ch.compose(ch.KrausChannel(2, 2, [v]), ch.compose(n, ch.KrausChannel(2, 2, [v.conj().T])))
    assert _twirl_param(conj) == pytest.approx(_twirl_param(n), abs=1e-10)


# ---------------------------------------------------------------------------
# Haar quadrature
# ---------------------------------------------------------------------------

def test_quadrature_integrates_constant():
    quad = ch.haar_quadrature_su2(3)
    assert quad.weights.sum() == pytest.approx(1.0, abs=1e-13)


def _meshgrid_rule(order):
    """The (alpha, beta, gamma) Euler grid of the Haar rule, built eagerly by
    meshgrid: its nodes as an (n, 3) array and their weights."""
    n_phase = 2 * order
    alphas = 2 * np.pi * np.arange(n_phase) / n_phase
    gammas = 4 * np.pi * np.arange(n_phase) / n_phase
    t, gl_w = ch._gauss_legendre(order)
    betas = np.arccos(t)
    a, b, g = np.meshgrid(alphas, betas, gammas, indexing="ij")
    euler = np.stack([a.ravel(), b.ravel(), g.ravel()], axis=1)
    w = np.ones((n_phase, order, n_phase)) * (gl_w / 2.0)[None, :, None]
    return euler, (w / n_phase**2).ravel()


@pytest.mark.parametrize("order", range(2, 17))
def test_factored_rule_equals_meshgrid_grid(order):
    # the rule holds only its beta factor; the grid it forms on first use is
    # the eagerly built one, bit for bit
    quad = ch.haar_quadrature_su2(order)
    assert set(vars(quad)) == {"order", "betas", "beta_weights"}
    euler, weights = _meshgrid_rule(order)
    assert np.array_equal(quad.betas, euler[:order * 2 * order:2 * order, 1])
    assert quad.beta_weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(quad.weights, weights)
    assert np.array_equal(quad.matrices(), ch.su2_from_euler(*euler.T))
    assert quad.matrices() is quad.matrices()


def test_gauss_legendre_matches_numpy_leggauss():
    # the same arithmetic as numpy's rule, so equal to within 2 ulp (bitwise
    # with numpy 2.4 on x86-64)
    for n in range(2, 65):
        nodes, weights = ch._gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(nodes, ref_nodes, maxulp=2)
        np.testing.assert_array_max_ulp(weights, ref_weights, maxulp=2)


def test_quadrature_character_orthonormality():
    # all diagram pairs with at most six boxes
    quad = ch.haar_quadrature_su2(8)
    theta = ch.su2_eigenphase(quad.matrices())
    diagrams = [lam for n in range(0, 7) for lam in young.enumerate_diagrams(n, 2)]
    for lam in diagrams:
        for mu in diagrams:
            gap_l = young.pad(lam, 2)[0] - young.pad(lam, 2)[1]
            gap_m = young.pad(mu, 2)[0] - young.pad(mu, 2)[1]
            vals = young.su2_character(gap_l, theta) * young.su2_character(gap_m, theta)
            expect = 1.0 if gap_l == gap_m else 0.0
            assert quad.integrate(vals) == pytest.approx(expect, abs=1e-8)


def test_quadrature_trace_moments():
    quad = ch.haar_quadrature_su2(6)
    us = quad.matrices()
    tr = np.einsum("nii->n", us)
    assert quad.integrate(np.abs(tr) ** 2) == pytest.approx(1.0, abs=1e-8)
    assert abs(quad.integrate(tr)) < 1e-8


def test_haar_su2_sampler_is_unitary():
    us = ch.haar_su2(np.random.default_rng(0), 100)
    for u in us[:10]:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_small_matmul_matches_matmul():
    # stacks are passed stack-last, [row, col, shot]; a single matrix with a
    # stack axis of size 1 broadcasts against a stack
    rng = np.random.default_rng(12)
    a, b = ch.haar_su2(rng, 500), ch.haar_su2(rng, 500)

    def stack_last(x):
        return x.transpose(1, 2, 0)

    got = ch._small_matmul(stack_last(a), stack_last(b)).transpose(2, 0, 1)
    assert np.max(np.abs(got - a @ b)) <= 1e-15
    got = ch._small_matmul(stack_last(a[:1]), stack_last(b)).transpose(2, 0, 1)
    assert np.max(np.abs(got - a[0] @ b)) <= 1e-15


def test_eigenphase():
    t = 0.77
    u = np.diag([np.exp(1j * t), np.exp(-1j * t)])
    assert ch.su2_eigenphase(u) == pytest.approx(t)
