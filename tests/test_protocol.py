import types

import numpy as np
import pytest

from covqec import channels as ch
from covqec import codes
from covqec import protocol as pr
from covqec import refframe as rf


IDENT = ch.identity_channel(2)


# ---------------------------------------------------------------------------
# inner channel
# ---------------------------------------------------------------------------

def test_inner_trivial_code_is_identity():
    # for a single-qudit trivial code the physical and logical rotations
    # cancel exactly, whatever the reference does
    for spec in (rf.strong_combined_spec(2, 1), rf.weak_spec(2, 4, 1)[1]):
        params, diag = pr.inner_channel(codes.trivial_code(2), spec, set())
        assert 1 - params.a == pytest.approx(1.0, abs=1e-12)
        assert abs(diag["normalization"] - 1.0) < 1e-10


def test_inner_perfect_reference_limit():
    code = codes.five_qubit_code()
    perf = pr.inner_channel_perfect(code, set())
    assert ch.entanglement_fidelity(perf, IDENT) >= 1 - 1e-3
    assert np.allclose(perf.mat, IDENT.choi().mat, atol=1e-10)
    assert ch.entanglement_fidelity(pr.inner_channel_perfect(code, {1}), IDENT) >= 1 - 1e-10


@pytest.mark.parametrize("pattern", [(), (0,), (0, 1), (0, 1, 2)])
def test_phi_weight_matches_explicit_kraus(pattern):
    # oracle: sum_K |Tr K|^2 / d^2 over the explicit Kraus U'^dag K_k U'_surv M_b,
    # with the off-support completion materialized by recovery_on_survivors.
    # The completion carries weight for () and (0,), where U'_surv moves the
    # code space off the recovery's support; for (0, 1) and (0, 1, 2) the
    # support is the whole survivor space, and (0, 1, 2) is beyond the distance
    code = codes.five_qubit_code()
    us = ch.haar_su2(np.random.default_rng(31), 16)
    m_ops = codes.erased_restriction_kraus(code, pattern)
    r_ops = codes.recovery_on_survivors(code, pattern)
    got = pr._phi_weight(code, list(pattern), us)
    for u, f in zip(us, got):
        u_surv = pr._kron_power_batch(u[None], code.n_p - len(pattern))[0]
        ref = sum(
            abs(np.trace(u.conj().T @ k @ u_surv @ m)) ** 2 for k in r_ops for m in m_ops
        ) / 4
        assert f == pytest.approx(ref, abs=1e-12)


def test_inner_feels_the_reference_error_and_improves_with_m():
    code = codes.five_qubit_code()
    vals = []
    for m in (4, 10, 16):
        _, spec = rf.weak_spec(2, m, 5)
        params, _ = pr.inner_channel(code, spec, set())
        vals.append(1 - params.a)
    assert vals[0] < vals[1] < vals[2] < 1.0


def test_inner_hand_sum_oracle():
    # quadrature fidelity of int dU' p U'_P (x) U'*_L against the exact
    # character-combinatorics hand sum, for the single-pair spec at n_p=1:
    # build the channel W on 2 qubits explicitly on the quadrature grid
    spec = rf.strong_combined_spec(2, 1)
    n_p = 1
    hand = pr.reference_fidelity_hand_sum(spec, n_p)
    quad = ch.haar_quadrature_su2(6)
    us = quad.matrices()
    dens = rf._density_su2(spec, ch.su2_eigenphase(us))
    dim = 2 ** (n_p + 1)
    acc = 0.0
    for u, w, p in zip(us, quad.weights, dens):
        big = np.kron(u, u.conj())
        acc += w * p * abs(np.trace(big)) ** 2 / dim**2
    assert acc == pytest.approx(hand, abs=1e-9)
    assert hand == pytest.approx(5 / 16, abs=1e-12)


def test_inner_hand_sum_oracle_weak_spec():
    _, spec = rf.weak_spec(2, 4, 1)
    n_p = 1
    hand = pr.reference_fidelity_hand_sum(spec, n_p)
    quad = ch.haar_quadrature_su2(12)
    us = quad.matrices()
    dens = rf._density_su2(spec, ch.su2_eigenphase(us))
    acc = 0.0
    for u, w, p in zip(us, quad.weights, dens):
        acc += w * p * abs(np.trace(np.kron(u, u.conj()))) ** 2 / 16
    assert acc == pytest.approx(hand, abs=1e-6)


def test_inner_under_resolution_raises():
    code = codes.five_qubit_code()
    _, spec = rf.weak_spec(2, 16, 5)
    with pytest.raises(pr.QuadratureResolutionError):
        pr.inner_channel(code, spec, set(), quad_order=4)


def test_haar_guess_channel_is_heavily_depolarizing():
    params = pr.haar_guess_channel(codes.trivial_code(2), set())
    # trivial code: haar guess still cancels exactly
    assert 1 - params.a == pytest.approx(1.0, abs=1e-10)
    params5 = pr.haar_guess_channel(codes.five_qubit_code(), set(), quad_order=8)
    assert 1 - params5.a < 0.6


# ---------------------------------------------------------------------------
# effective channel
# ---------------------------------------------------------------------------

def test_effective_weak_no_error_distribution_decreasing_in_m():
    code = codes.five_qubit_code()
    eps = []
    for m in (8, 12, 16):
        cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=m, pattern_dist="none")
        rep = pr.effective_channel(cfg)
        eps.append(rep.eps_cov)
    assert eps[0] > eps[1] > eps[2]


def test_effective_weak_mixture_additivity_and_sandwich():
    from covqec import bounds

    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=12, pattern_dist="exact_ne")
    rep = pr.effective_channel(cfg)
    a_sum = sum(t.probability * t.params.a for t in rep.terms)
    assert rep.mixture.a == pytest.approx(a_sum, abs=1e-10)
    assert sum(t.probability for t in rep.terms) == pytest.approx(1.0, abs=1e-12)
    lower = bounds.prop1_lower(cfg.n, 1).value
    assert rep.eps_cov >= lower
    up = bounds.theorem1_bound(2, 1, 5, cfg.n - 5).value
    if up < 1:
        assert rep.eps_cov <= up


def test_effective_strong_trivial_code():
    from covqec import bounds

    code = codes.trivial_code(2)
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.2, s_r=4)
    rep = pr.effective_channel(cfg)
    # with the trivial code only the physical erasure matters: the mixture is
    # (1 - p_e) identity + p_e (recovery dump), whose parameter is p_e * 3/4
    assert rep.mixture.a == pytest.approx(0.2 * 0.75, abs=1e-9)
    assert rep.eps_cov >= bounds.prop2_lower(cfg.n, 0.2).value
    assert sum(t.probability for t in rep.terms) == pytest.approx(1.0, abs=1e-12)


def test_effective_channel_covariance_spot_check():
    # eps_wc with a logical gate V inserted equals the V = I value: by
    # covariance the effective channel of the V-implementation is
    # Twirl(M) . V_L, so the diamond distance to V_L is unchanged
    from covqec import sdp

    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne")
    rep = pr.effective_channel(cfg)
    rng = np.random.default_rng(21)
    base = rep.eps_cov
    for v in ch.haar_su2(rng, 20):
        mix_choi = ch.covariant_choi(rep.mixture)
        v_chan = ch.unitary_channel(v)
        composed = ch.compose(
            ch.KrausChannel(2, 2, _choi_to_kraus(mix_choi)), v_chan
        )
        eps_v = sdp.diamond_error(composed.choi(), v_chan.choi())
        assert eps_v == pytest.approx(base, abs=1e-6)


def _choi_to_kraus(choi):
    w, vecs = np.linalg.eigh(choi.mat)
    d_in, d_out = choi.dim_in, choi.dim_out
    out = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            out.append(np.sqrt(w[i] * d_in) * vecs[:, i].reshape(d_out, d_in))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_matches_quadrature_weak():
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=4000, seed=13)
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 3 * err
    assert abs(est - rep.mixture.a) < 5 * err + 1e-12, "5 sigma divergence flags a fault"


def test_mc_matches_quadrature_strong():
    code = codes.trivial_code(2)
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.2, s_r=3, mc_samples=4000, seed=3)
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 3 * err


def test_mc_covariant_gate_insertion():
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=2500, seed=29)
    base, err_b = pr.monte_carlo_epsilon(cfg)
    v = ch.haar_su2(np.random.default_rng(5), 1)[0]
    gated, err_g = pr.monte_carlo_epsilon(cfg, logical_gate=v)
    assert abs(base - gated) < 3 * np.hypot(err_b, err_g)


def test_mc_forced_total_loss_matches_haar_guess():
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="none",
                            mc_samples=3000, seed=17)
    a_guess = pr.haar_guess_channel(code, set(), quad_order=8).a
    est, err = pr.monte_carlo_epsilon(cfg, force_total_loss=True)
    assert abs(est - a_guess) < 3 * err


def test_mc_reproducible():
    code = codes.trivial_code(2)
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.1, s_r=2, mc_samples=500, seed=10)
    assert pr.monte_carlo_epsilon(cfg) == pr.monte_carlo_epsilon(cfg)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_weak_rows_and_slope():
    grid = [5 + 4 * (3 * big_m + 1) for big_m in (16, 24, 32)]
    rows = pr.scaling_sweep("weak", grid, n_p=5, n_e=1)
    assert [r.n for r in rows] == grid
    for r in rows:
        assert r.lower_bound <= r.upper_bound or r.upper_bound < 1
        assert 0 < r.one_minus_fwc < 1
        assert np.isnan(r.eps_cov)
    slope = pr.loglog_slope([r.n for r in rows], [r.one_minus_fwc for r in rows])
    assert -2.6 < slope < -1.5


def test_sweep_strong_rows():
    rows = pr.scaling_sweep("strong", [9, 13, 21], n_p=1, p_e=0.2)
    assert all(0 < r.one_minus_fwc < 1 for r in rows)
    assert rows[0].one_minus_fwc > rows[-1].one_minus_fwc


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        pr.scaling_sweep("weak", [6], n_p=5, n_e=1)  # n_r = 1 not divisible by 4


def test_sweep_simulated_eps():
    rows = pr.scaling_sweep(
        "weak", [5 + 4 * 8], n_p=5, n_e=1, simulate=True, code=codes.five_qubit_code()
    )
    assert rows[0].eps_cov > 0
    assert rows[0].eps_cov >= rows[0].lower_bound


def _capture_configs(monkeypatch):
    seen = []

    def fake(cfg):
        seen.append(cfg)
        return types.SimpleNamespace(eps_cov=0.5, mixture=ch.CovariantParams(2, 0.5))

    monkeypatch.setattr(pr, "effective_channel", fake)
    return seen


@pytest.mark.parametrize("model,n_grid,n_p", [
    ("weak", [5 + 4 * 8], 5),
    ("weak", [1 + 4 * 8], 1),
    ("strong", [13], 5),
    ("strong", [9], 1),
])
def test_sweep_simulates_the_row_n(monkeypatch, model, n_grid, n_p):
    seen = _capture_configs(monkeypatch)
    rows = pr.scaling_sweep(model, n_grid, n_p=n_p, simulate=True)
    assert [cfg.n for cfg in seen] == [r.n for r in rows] == n_grid
    assert all(cfg.code.n_p == n_p for cfg in seen)


def test_sweep_rejects_unsimulable_np(monkeypatch):
    seen = _capture_configs(monkeypatch)
    with pytest.raises(ValueError):
        pr.scaling_sweep("weak", [3 + 4 * 4], n_p=3, simulate=True)
    with pytest.raises(ValueError):
        pr.scaling_sweep("strong", [13], n_p=3, simulate=True)
    with pytest.raises(ValueError):
        pr.scaling_sweep("strong", [13], n_p=5, simulate=True, code=codes.trivial_code(2))
    assert seen == []


def test_perfect_code_perfect_reference_floor():
    # with the exact code and a point-mass outcome density the twirled
    # channel is the identity up to the numerical floor
    from covqec import sdp

    code = codes.five_qubit_code()
    choi = pr.inner_channel_perfect(code, set())
    params = ch.CovariantParams(2, 1 - ch.entanglement_fidelity(choi, IDENT))
    eps = sdp.diamond_error(ch.covariant_choi(params), ch.identity_channel(2).choi())
    assert eps <= 1e-4


def test_mc_perfect_reference_limit():
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=600, seed=2)
    est, _ = pr.monte_carlo_epsilon(cfg, force_perfect_reference=True)
    assert est <= 1e-3
