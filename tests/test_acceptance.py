"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from covqec import bounds, channels as ch, codes, protocol as pr, refframe as rf, sdp, young

from conftest import _density_su2, block_covariant_choi, block_unitary, standard_program


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


# 1 ------------------------------------------------------------------------

def test_criterion_01_dimension_identity():
    t0 = time.monotonic()
    for d in (2, 3):
        diagrams = [
            lam
            for n in range(0, 7)
            for lam in young.enumerate_diagrams(n, 3)
            if len(lam) <= 3
        ]
        for lam in diagrams:
            for mu in diagrams:
                dec = young.tensor_decompose(lam, mu, d) if len(young.normalize(lam)) <= d and len(young.normalize(mu)) <= d else None
                if dec is None:
                    continue
                total = sum(c * young.weyl_dimension(nu, d) for nu, c in dec.items())
                assert total == young.weyl_dimension(lam, d) * young.weyl_dimension(mu, d)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    _report(1, f"sum_nu c d_nu = d_lam d_mu exactly for all pairs <=6 boxes, d=2,3 ({elapsed:.1f}s)")


# 2 ------------------------------------------------------------------------

def test_criterion_02_lr_shift_identity():
    pairs = [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (2, 1)), ((3,), (2, 1)), ((2,), (2,))]
    checked = 0
    # 10 interior diagrams at d=2 and 10 at d=3; every row gap and the
    # bottom row comfortably exceed 4(|mu|+|mu'|) <= 24
    lams_d2 = [(60 + i, 30) for i in range(10)]
    lams_d3 = [(100 + i, 60, 25) for i in range(10)]
    for d, lams in ((2, lams_d2), (3, lams_d3)):
        for lam in lams:
            for mu, mu2 in pairs:
                span = young.boxes(mu) + young.boxes(mu2)
                total = 0
                for delta in _zero_sum_shifts(d, span):
                    lam2 = tuple(lam[i] + delta[i] for i in range(d))
                    total += young.correlation_count(lam, lam2, mu, mu2, d)
                assert total == young.weyl_dimension(mu, d) * young.weyl_dimension(mu2, d)
            checked += 1
    assert checked == 20
    _report(2, "sum_Delta C^{lam,lam+Delta}_{mu,mu'} = d_mu d_mu' for 20 interior diagrams, d=2,3")


def _zero_sum_shifts(d, span):
    for head in itertools.product(range(-span, span + 1), repeat=d - 1):
        tail = -sum(head)
        if abs(tail) <= span:
            yield head + (tail,)


# 3 ------------------------------------------------------------------------

def test_criterion_03_schur_weyl_normalization():
    for d in (2, 3):
        for s in range(1, 16):
            total = sum(young.schur_weyl_prob(lam, s, d) for lam in young.enumerate_diagrams(s, d))
            assert total == Fraction(1)
    _report(3, "Schur-Weyl weights sum to 1 exactly (rational) for d=2,3, s<=15")


# 4 ------------------------------------------------------------------------

def test_criterion_04_povm_completeness():
    specs = [rf.weak_spec(2, m) for m in (4, 10, 22)]
    specs += [rf.strong_combined_spec(2, s) for s in range(1, 7)]
    worst = 0.0
    for spec in specs:
        quad = ch.haar_quadrature_su2(int(spec.gaps().max()) + 2)
        mass = quad.integrate(_density_su2(spec, ch.su2_eigenphase(quad.matrices())))
        worst = max(worst, abs(mass - 1.0))
    assert worst < 1e-6
    _report(4, f"outcome density integrates to 1 within 1e-6 (worst drift {worst:.1e})")


# 5 ------------------------------------------------------------------------

def test_criterion_05_appendix_e():
    worst_id = 0.0
    worst_c = 0.0
    for big_m in range(3, 501):
        for delta in range(0, 11):
            for n_lo in range(0, 21):
                if n_lo + delta > big_m - n_lo:
                    continue
                s = rf.appendix_e_sum(big_m, delta, n_lo)
                worst_id = max(worst_id, abs(s - rf.appendix_e_closed_form(big_m, delta, n_lo)))
                resid = (1 - s) - 0.5 * (pi * delta / (big_m + 1)) ** 2
                worst_c = max(worst_c, resid * big_m**3)
    assert worst_id < 1e-12
    # one global fitted constant: frozen from this grid with 10% headroom
    assert worst_c <= 1.32e5
    _report(5, f"g-sum equals closed form within 1e-12 (worst {worst_id:.1e}); fitted c = {worst_c:.3g}")


# 6 ------------------------------------------------------------------------

def test_criterion_06_weak_heisenberg_slope():
    t0 = time.monotonic()
    n_prime = 6
    ms = {big_m: 3 * big_m + 1 for big_m in (16, 24, 32, 48, 64, 96)}
    errs = []
    for big_m, m in ms.items():
        spec = rf.weak_spec(2, m)
        errs.append(1.0 - rf.min_overlap(spec, n_prime))
    slope = pr.loglog_slope(list(ms.keys()), errs)
    elapsed = time.monotonic() - t0
    assert elapsed <= 120
    assert -2.3 <= slope <= -1.8
    _report(6, f"weak-model 1 - min_overlap log-log slope {slope:.3f} in [-2.3, -1.8] ({elapsed:.1f}s)")


# 7 ------------------------------------------------------------------------

def test_criterion_07_strong_slope():
    t0 = time.monotonic()
    ss = list(range(4, 31))
    errs = [1.0 - rf.f_strong(2, s, 2) for s in ss]
    slope = pr.loglog_slope(ss, errs)
    elapsed = time.monotonic() - t0
    assert elapsed <= 300
    assert -1.3 <= slope <= -0.7
    _report(7, f"strong-model 1 - F_s' log-log slope {slope:.3f} in [-1.3, -0.7] ({elapsed:.1f}s)")


# 8 ------------------------------------------------------------------------

def test_criterion_08_bound_sandwich():
    t0 = time.monotonic()
    code5 = codes.five_qubit_code()
    rows = []
    for m in (8, 12, 16):
        cfg = pr.ProtocolConfig(2, "weak", code5, n_e=1, m=m, pattern_dist="exact_ne")
        rep = pr.effective_channel(cfg)
        lower = bounds.prop1_lower(cfg.n, 1).value
        upper = bounds.theorem1_bound(2, 1, 5, cfg.n - 5).value
        assert rep.eps_cov >= lower
        if upper < 1:
            assert rep.eps_cov <= upper
        rows.append(("weak", m, rep.eps_cov, lower, upper))
    trivial = codes.trivial_code(2)
    for p_e in (0.1, 0.2):
        cfg = pr.ProtocolConfig(2, "strong", trivial, p_e=p_e, s_r=6)
        rep = pr.effective_channel(cfg)
        lower = bounds.prop2_lower(cfg.n, p_e).value
        assert rep.eps_cov >= lower
        rows.append(("strong", p_e, rep.eps_cov, lower, float("inf")))
    elapsed = time.monotonic() - t0
    assert elapsed <= 900
    _report(8, f"prop lower <= measured eps_cov (<= theorem upper where < 1) on {len(rows)} rows ({elapsed:.0f}s)")


# 9 ------------------------------------------------------------------------

def test_criterion_09_sdp_cross_validation():
    t0 = time.monotonic()
    rng = np.random.default_rng(90)
    worst = 0.0
    n_inst = 0
    for trial in range(50):
        if trial % 5 == 4:
            blocks, gaps = [1, 3], [0, 2]
        else:
            blocks, gaps = [1, 2], [0, 1]
        w = rng.dirichlet(np.ones(len(gaps)))
        choi = block_covariant_choi(blocks, dict(zip(gaps, w)))
        vs = [block_unitary(blocks, u) for u in ch.haar_su2(rng, 2)]
        full = sdp.sqrt_fwc(ch.identity_channel(sum(blocks)).choi(), choi) ** 2
        restricted = sdp.restricted_fwc(blocks, choi, symmetry_samples=vs)
        worst = max(worst, abs(full - restricted))
        n_inst += 1
    assert n_inst == 50 and worst < 1e-5

    worst_bracket = 0.0
    for _ in range(100):
        a, b = _random_channel(rng, 2), _random_channel(rng, 2)
        eps_ent = ch.entanglement_error(a, b)
        eps = sdp.diamond_error(a.choi(), b.choi())
        assert eps_ent - 1e-6 <= eps <= 2 * eps_ent + 1e-6
        worst_bracket = max(worst_bracket, max(eps_ent - eps, eps - 2 * eps_ent))

    # duality gap on optimal exits of the interior point itself
    for k in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = 0.5 * (a + a.conj().T)
        res = sdp.solve(standard_program({"X": 4}, {"X": c}, [({"X": np.eye(4)}, 1.0)]), tol=1e-9)
        assert res.status == "optimal"
        assert res.gap <= 1e-8 * (1 + abs(res.value))
    elapsed = time.monotonic() - t0
    _report(9, f"50 Lemma-3 instances within {worst:.1e} of the SDP; brackets on 100 pairs; gaps <= 1e-8 ({elapsed:.0f}s)")


def _random_channel(rng, d, n_kraus=3):
    a = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(a)
    return ch.KrausChannel(d, d, [q[i * d:(i + 1) * d, :] for i in range(n_kraus)])


# 10 -----------------------------------------------------------------------

def test_criterion_10_five_qubit_exactness():
    code = codes.five_qubit_code()
    worst = 0.0
    for k in (1, 2):
        for pattern in itertools.combinations(range(5), k):
            worst = max(worst, codes.code_error(code, set(pattern)))
    assert worst <= 1e-8
    _report(10, f"five-qubit code corrects every 1- and 2-erasure pattern (worst error {worst:.1e})")


# 11 -----------------------------------------------------------------------

def test_criterion_11_lemma5_property():
    rng = np.random.default_rng(11)
    id_choi = ch.identity_channel(2).choi()
    checked = 0
    while checked < 200:
        a_param = rng.uniform(0, 1)
        b_param = rng.uniform(0, 1)
        if abs(a_param - b_param) > 0.5:
            continue
        pa = ch.CovariantParams(2, a_param)
        pb = ch.CovariantParams(2, b_param)
        f_ab, _ = ch.cov_fidelity_and_errors(pa, pb)
        eps_wc_b = sdp.diamond_error(ch.covariant_choi(pb), id_choi)
        bound = ch.lemma5_bound(pa, f_ab, 2)
        assert eps_wc_b <= bound + 1e-6
        checked += 1
    _report(11, "eps_wc(B, I) <= 9d max(eps_ent(A,I), 1-F_ent(A,B)) on 200 covariant pairs")


# 12 -----------------------------------------------------------------------

def test_criterion_12_fisher_machinery():
    rng = np.random.default_rng(12)
    worst = 0.0
    for n, n_e in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2)):
        h = bounds.Hamiltonian(tuple(rng.uniform(-1, 1, size=2)))
        theta = rng.uniform(0, 2)
        r0, r1 = bounds.kraus_zero_check(n, n_e, h, theta)
        worst = max(worst, r0, r1)
    assert worst <= 1e-9
    h = bounds.Hamiltonian.balanced_qubit()
    for n in (10, 257):
        for n_e in (1, 2, 9):
            lhs = bounds.lemma4_lower(h.delta, bounds.fisher_upper_weak(n, n_e, h).value).value
            assert lhs == bounds.prop1_lower(n, n_e).value
        for p_e in (0.1, 0.3):
            lhs = bounds.lemma4_lower(h.delta, bounds.fisher_upper_strong(n, h.delta, p_e).value).value
            assert lhs == pytest.approx(bounds.prop2_lower(n, p_e).value, rel=1e-14)
    _report(12, f"Kraus residuals <= 1e-9 (worst {worst:.1e}); Fisher chains reproduce Props 1-2 exactly")


# 13 -----------------------------------------------------------------------

def test_criterion_13_compression():
    for d in (2, 3):
        for n_r in range(2, 61, 2):
            exact, bound = bounds.compression_dims(d, n_r)
            assert isinstance(exact, int) and exact <= bound
    _report(13, "exact d_R <= (n_R/2+1)^(d^2-1) for d=2,3 and even n_R <= 60")


# 14 -----------------------------------------------------------------------

def test_criterion_14_tdesign_first_moment():
    rng = np.random.default_rng(14)
    n_samples = 10000
    k = 50
    chunk = 500
    acc = np.zeros((16, 16), dtype=complex)
    for _ in range(n_samples // chunk):
        circuits = [bounds.local_circuit_sampler(2, k, seed=int(rng.integers(2**62))) for _ in range(chunk)]
        assert all(site == 1 for circuit in circuits for site, _ in circuit)
        # gates[s, j] is layer j of sample s; u = g_{k-1} ... g_0 for every
        # sample of the chunk by one batched product per layer
        gates = np.stack([np.stack([gate for _, gate in circuit]) for circuit in circuits])
        u = gates[:, 0]
        for j in range(1, k):
            u = gates[:, j] @ u
        v = u.reshape(chunk, -1)
        acc += v.T @ v.conj() / 4
    acc /= n_samples
    exact = np.eye(16) / 16  # Choi of the full SU(4) twirl (depolarize to I/4)
    dist = 0.5 * ch.trace_norm(acc - exact)
    assert dist <= 0.05
    _report(14, f"N=2 first-moment channel within Choi trace distance {dist:.3f} <= 0.05 of the Haar twirl")


# 15 -----------------------------------------------------------------------

def test_criterion_15_sweep_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [
                sys.executable, "-m", "covqec.cli", "sweep", "--model", "weak",
                "--n-grid", "201,297,393", "--ne", "1", "--np", "5",
                "--seed", "123", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    _report(15, "sweep rerun with identical seed is byte-identical")
