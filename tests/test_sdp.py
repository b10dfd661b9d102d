import numpy as np
import pytest

from covqec import channels as ch
from covqec import sdp

from conftest import block_covariant_choi, block_unitary

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
    inst = sdp.SdpInstance()
    inst.add_block("x", 1)
    inst.add_block("s", 1)
    inst.set_objective({"x": np.eye(1)}, "min")
    inst.add_equality({"x": np.eye(1), "s": -np.eye(1)}, 1.0)
    res = sdp.solve(inst)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-7)
    assert res.gap <= 1e-6


def test_solve_min_eigenvalue():
    # min <C, X> s.t. Tr X = 1, X >= 0  ==  lambda_min(C)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = 0.5 * (a + a.conj().T)
        inst = sdp.SdpInstance()
        inst.add_block("X", 4)
        inst.set_objective({"X": c}, "min")
        inst.add_equality({"X": np.eye(4)}, 1.0)
        res = sdp.solve(inst)
        assert res.status == "optimal"
        assert res.value == pytest.approx(np.linalg.eigvalsh(c).min(), abs=1e-7)


def test_solve_two_block_toy_vs_grid():
    # min x + 2y s.t. x + y = 1, x, y >= 0; grid oracle over the segment
    inst = sdp.SdpInstance()
    inst.add_block("x", 1)
    inst.add_block("y", 1)
    inst.set_objective({"x": np.eye(1), "y": 2 * np.eye(1)}, "min")
    inst.add_equality({"x": np.eye(1), "y": np.eye(1)}, 1.0)
    res = sdp.solve(inst)
    grid = min(x + 2 * (1 - x) for x in np.linspace(0, 1, 100001))
    assert res.value == pytest.approx(grid, abs=1e-6)


def test_solve_max_sense():
    inst = sdp.SdpInstance()
    inst.add_block("x", 1)
    inst.add_block("s", 1)
    inst.set_objective({"x": np.eye(1)}, "max")
    inst.add_equality({"x": np.eye(1), "s": np.eye(1)}, 2.0)
    res = sdp.solve(inst)
    assert res.value == pytest.approx(2.0, abs=1e-7)


def test_size_cap():
    inst = sdp.SdpInstance()
    with pytest.raises(sdp.SdpSizeError):
        inst.add_block("big", sdp.DEFAULT_SIZE_CAP + 1)


def test_duality_on_optimal_exit():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3))
    c = 0.5 * (a + a.T).astype(complex)
    inst = sdp.SdpInstance()
    inst.add_block("X", 3)
    inst.set_objective({"X": c}, "min")
    inst.add_equality({"X": np.eye(3)}, 1.0)
    res = sdp.solve(inst, tol=1e-9)
    assert res.status == "optimal"
    assert res.gap <= 1e-8 * (1 + abs(res.value))
    w = np.linalg.eigvalsh(res.blocks["X"])
    assert w.min() >= -1e-9


def test_solve_unequal_blocks():
    # min Tr(C1 X1) + Tr(C2 X2) s.t. Tr X1 + Tr X2 = 1: the smallest
    # eigenvalue over both blocks (and the largest for sense="max")
    rng = np.random.default_rng(13)
    cs = []
    for s in (3, 2):
        a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        cs.append(0.5 * (a + a.conj().T))
    for sense, pick in (("min", min), ("max", max)):
        inst = sdp.SdpInstance()
        inst.add_block("X1", 3)
        inst.add_block("X2", 2)
        inst.set_objective({"X1": cs[0], "X2": cs[1]}, sense)
        inst.add_equality({"X1": np.eye(3), "X2": np.eye(2)}, 1.0)
        res = sdp.solve(inst)
        assert res.status == "optimal"
        w = [np.linalg.eigvalsh(c) for c in cs]
        ref = pick(w[0].min(), w[1].min()) if sense == "min" else pick(w[0].max(), w[1].max())
        assert res.value == pytest.approx(ref, abs=1e-7)
        x1, x2 = res.blocks["X1"], res.blocks["X2"]
        assert x1.shape == (3, 3) and x2.shape == (2, 2)
        assert min(np.linalg.eigvalsh(x1).min(), np.linalg.eigvalsh(x2).min()) >= -1e-9
        assert np.real(np.trace(x1) + np.trace(x2)) == pytest.approx(1.0, abs=1e-8)


def test_unknown_block_name_raises():
    inst = sdp.SdpInstance()
    inst.add_block("x", 1)
    inst.add_block("s", 1)
    with pytest.raises(ValueError, match="unknown block 'X'"):
        inst.set_objective({"X": np.eye(1)}, "min")
    with pytest.raises(ValueError, match="unknown block 'S'"):
        inst.add_equality({"x": np.eye(1), "S": -np.eye(1)}, 1.0)
    assert inst._constraints == []


def test_wrong_coefficient_shape_raises():
    inst = sdp.SdpInstance()
    inst.add_block("X", 3)
    with pytest.raises(ValueError, match="shape"):
        inst.set_objective({"X": np.eye(2)}, "min")
    with pytest.raises(ValueError, match="shape"):
        inst.add_equality({"X": np.ones(3)}, 1.0)


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
    assert runs == [("optimal", 8), ("optimal", 9)]


def test_diamond_random_pairs_pin_iterations(monkeypatch):
    runs = _recorded_solves(monkeypatch)
    rng = np.random.default_rng(2024)
    for _ in range(2):
        a, b = random_channel(rng, 2), random_channel(rng, 2)
        sdp.diamond_error(a.choi(), b.choi())
    assert runs == [("optimal", 11), ("optimal", 10)]


def test_sqrt_fwc_pin_iterations(monkeypatch):
    # the two criterion-9 instances of the benchmark: blocks [1, 2] with
    # weight w_0 on the trivial block
    runs = _recorded_solves(monkeypatch)
    ident = ch.identity_channel(3).choi()
    for w0 in (1 / 3, 2 / 3):
        sdp.sqrt_fwc(ident, block_covariant_choi([1, 2], {0: w0, 1: 1 - w0}))
    assert runs == [("optimal", 10), ("optimal", 11)]


def test_diamond_of_covariant_channel_is_a():
    # a covariant channel's worst input is Phi+, so its diamond error is a:
    # the program protocol._finish_report solves for eps_cov
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
