from math import ceil, log, pi

import numpy as np
import pytest

from covqec import bounds


# ---------------------------------------------------------------------------
# lemma 1 assembly
# ---------------------------------------------------------------------------

def test_lemma1_perfect_term():
    rep = bounds.lemma1_assemble(2, [(1.0, 0.0, 1.0)])
    assert rep.value == 0.0


def test_lemma1_threshold_branch():
    rep = bounds.lemma1_assemble(2, [(1.0, 0.0, 0.5)])
    assert rep.value == pytest.approx(18.0)


def test_lemma1_two_terms():
    rep = bounds.lemma1_assemble(2, [(0.9, 0.0, 0.99), (0.1, 0.0, 0.8)])
    assert rep.value == pytest.approx(18 * (0.9 * 0.01 + 0.1 * 0.2))


def test_lemma1_accepts_iterator():
    terms = [(0.5, 0.01, 0.99), (0.5, 0.02, 0.98)]
    from_list = bounds.lemma1_assemble(2, terms)
    from_iter = bounds.lemma1_assemble(2, iter(terms))
    assert from_list.value == pytest.approx(18 * (0.5 * 0.01 + 0.5 * 0.02))
    assert from_iter.value == from_list.value


def test_lemma1_rejects_unnormalized():
    with pytest.raises(ValueError):
        bounds.lemma1_assemble(2, [(0.5, 0.0, 1.0)])


def test_bound_reports_reject_nan():
    # NaN fails every comparison, so a bound must be checked as not value >= 0
    with pytest.raises(ValueError, match="non-negative"):
        bounds.lemma1_assemble(2, [(1.0, float("nan"), 0.9)])
    with pytest.raises(ValueError, match="sum to nan"):
        bounds.lemma1_assemble(2, [(float("nan"), 0.0, 0.9)])
    with pytest.raises(ValueError, match="alpha must be positive"):
        bounds.theorem2_bound(2, 0.1, 10, float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        bounds.BoundReport(float("nan"), False, True)


# ---------------------------------------------------------------------------
# theorem and proposition evaluators
# ---------------------------------------------------------------------------

def test_theorem1_value():
    rep = bounds.theorem1_bound(2, 1, 5, 1000)
    want = 81 * pi**2 * 16 * 1 * 4 * 36 / (2 * 10**6)
    assert rep.value == pytest.approx(want)
    assert rep.value == pytest.approx(0.9210, abs=2e-4)
    assert rep.asymptotic_terms_dropped


def test_theorem1_scaling():
    a = bounds.theorem1_bound(2, 1, 5, 1000).value
    b = bounds.theorem1_bound(2, 1, 5, 10000).value
    c = bounds.theorem1_bound(2, 1, 5, 2000).value
    assert b == pytest.approx(a / 100)
    assert c == pytest.approx(a / 4)


def test_theorem2_value():
    rep = bounds.theorem2_bound(2, 0.25, 10**4, 0.1)
    want = 9 * 34 * 4 / 1 * (1e-4) ** 0.9
    assert rep.value == pytest.approx(want)
    assert not rep.preconditions_met  # n_alpha is existential


def test_theorem2_coefficient_d3():
    rep = bounds.theorem2_bound(3, 0.25, 100, 0.1)
    denom = (2 - 1.0) * 1 * 1 * 2  # prod_{j=1}^{3} (j-1)! = 2
    want = 9 * (9 - 3 + 32) * 3 ** ((9 - 3 + 2) / 2) / denom * (1 / 100) ** 0.9
    assert rep.value == pytest.approx(want)


def test_theorem2_divergence_near_half():
    v1 = bounds.theorem2_bound(2, 0.49, 100, 0.1).value
    v2 = bounds.theorem2_bound(2, 0.499, 100, 0.1).value
    assert v2 > v1 * 5
    with pytest.raises(ValueError):
        bounds.theorem2_bound(2, 0.5, 100, 0.1)


def test_prop1_values():
    assert bounds.prop1_lower(100, 1).value == pytest.approx(3.125e-6)
    assert bounds.prop1_lower(100, 100).value == pytest.approx(1 / (16e4 * 1.01))
    # monotone increasing in n_e
    vals = [bounds.prop1_lower(50, k).value for k in (1, 2, 5, 50)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_prop2_values():
    assert bounds.prop2_lower(100, 0.25).value == pytest.approx(0.25 / 4800)
    assert bounds.prop2_lower(100, 0.5).value == pytest.approx(1 / 6400)
    assert bounds.prop2_lower(100, 1e-9).value < 1e-12


def test_lemma4_values():
    assert bounds.lemma4_lower(2.0, 16.0).value == pytest.approx(1 / 64)
    assert bounds.lemma4_lower(0.0, 5.0).value == 0.0
    assert bounds.lemma4_lower(2.0, np.inf).value == 0.0


def test_fisher_weak_value():
    h = bounds.Hamiltonian.balanced_qubit()
    assert bounds.fisher_upper_weak(10, 1, h).value == pytest.approx(800.0)
    assert bounds.fisher_upper_weak(10, 10, h).value == pytest.approx(4 * 100 * 1.1)


def test_weak_bounds_reject_counts_out_of_range():
    # n_e = 0 divides by zero in 1 + 1/n_e, and n_e = -1 zeroes theorem 1's
    # (n_e + 1)^2; there n_e = 0 is the erasure-free case and stays valid
    h = bounds.Hamiltonian.balanced_qubit()
    for n, n_e in ((10, 0), (0, 1), (10, -1)):
        with pytest.raises(ValueError, match="must be positive"):
            bounds.fisher_upper_weak(n, n_e, h)
    with pytest.raises(ValueError, match="n_e non-negative"):
        bounds.theorem1_bound(2, -1, 5, 100)
    assert bounds.theorem1_bound(2, 0, 5, 100).value == pytest.approx(81 * pi**2 * 16 * 36 / (2 * 100**2))


def test_fisher_strong_value():
    assert bounds.fisher_upper_strong(10, 2.0, 0.5).value == pytest.approx(160.0)
    # linear in n
    assert bounds.fisher_upper_strong(20, 2.0, 0.5).value == pytest.approx(320.0)


@pytest.mark.parametrize("n", [0, -3])
def test_strong_bounds_reject_n_below_one(n):
    # like prop1_lower; n = 0 used to divide by zero or give a Fisher bound of 0
    for call in (lambda: bounds.prop2_lower(n, 0.2),
                 lambda: bounds.theorem2_bound(2, 0.2, n, 0.1),
                 lambda: bounds.fisher_upper_strong(n, 2.0, 0.2)):
        with pytest.raises(ValueError, match="n must be positive"):
            call()


def test_algebraic_chain_weak():
    # lemma4(fisher_weak) reproduces prop1 exactly for max = -min Hamiltonians
    h = bounds.Hamiltonian.balanced_qubit()
    for n in (7, 100, 1234):
        for n_e in (1, 2, 7):
            chained = bounds.lemma4_lower(h.delta, bounds.fisher_upper_weak(n, n_e, h).value)
            assert chained.value == bounds.prop1_lower(n, n_e).value


def test_algebraic_chain_strong():
    h = bounds.Hamiltonian.balanced_qubit()
    for n in (5, 80):
        for p_e in (0.1, 0.25, 0.49):
            chained = bounds.lemma4_lower(h.delta, bounds.fisher_upper_strong(n, h.delta, p_e).value)
            assert chained.value == pytest.approx(bounds.prop2_lower(n, p_e).value, rel=1e-14)


# ---------------------------------------------------------------------------
# Kraus machinery
# ---------------------------------------------------------------------------

def test_kraus_zero_check_qubit():
    h = bounds.Hamiltonian((1.0, -1.0))
    r0, r1 = bounds.kraus_zero_check(2, 1, h, 0.3)
    assert r0 <= 1e-9
    assert r1 <= 1e-9


def test_kraus_zero_check_n3():
    h = bounds.Hamiltonian((1.0, -1.0))
    r0, r1 = bounds.kraus_zero_check(3, 1, h, 0.7)
    assert r0 <= 1e-9 and r1 <= 1e-9


def test_kraus_zero_check_random_h_and_theta():
    # 5 random Hamiltonians x 5 random phases on the cheap configuration,
    # plus spot checks at every supported (n, n_e)
    rng = np.random.default_rng(2)
    hams = [bounds.Hamiltonian(tuple(rng.uniform(-1, 1, size=2))) for _ in range(5)]
    thetas = rng.uniform(0, 2, size=5)
    for h in hams:
        for theta in thetas:
            r0, r1 = bounds.kraus_zero_check(2, 1, h, float(theta))
            assert r0 <= 1e-9 and r1 <= 1e-9
    for n, n_e in ((3, 1), (4, 1), (3, 2), (4, 2)):
        r0, r1 = bounds.kraus_zero_check(n, n_e, hams[0], float(thetas[0]))
        assert r0 <= 1e-9 and r1 <= 1e-9


def test_kraus_family_with_p0():
    h = bounds.Hamiltonian((1.0, -1.0))
    r0, _ = bounds.kraus_zero_check(2, 1, h, 0.3, p_0=0.3)
    assert r0 <= 1e-9


@pytest.mark.parametrize("p_0", [-0.2, 1.5])
def test_kraus_family_rejects_p0_outside_unit_interval(p_0):
    with pytest.raises(ValueError, match="p_0"):
        bounds.erasure_kraus_family(2, 1, bounds.Hamiltonian.balanced_qubit(), 0.3, p_0=p_0)


def test_kraus_family_at_p0_one_is_the_rotation():
    h = bounds.Hamiltonian.balanced_qubit()
    kraus = bounds.erasure_kraus_family(2, 1, h, 0.3, p_0=1.0)
    assert len(kraus) == 1
    assert np.allclose(kraus[0].conj().T @ kraus[0], np.eye(9), atol=1e-14)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compression_small_values():
    assert bounds.compression_dims(2, 2) == (4, 8)
    assert bounds.compression_dims(2, 4) == (10, 27)


@pytest.mark.parametrize("d", [2, 3])
def test_compression_bound_dominates(d):
    for n_r in range(2, 41, 2):
        exact, bound = bounds.compression_dims(d, n_r)
        assert exact <= bound


# ---------------------------------------------------------------------------
# t-design machinery
# ---------------------------------------------------------------------------

def test_tdesign_count_formula():
    t = 1 + 2 // 2 + 1  # N=1, n_p=1, n_r=2
    want = 170000 * 1 * ceil(log(4 * t)) ** 2 * t**8.1 * (2 * 1 * t + 1 + log(2))
    assert bounds.tdesign_gate_count(1, 1, 2, 0.5) == ceil(want)


def test_tdesign_count_polynomial_growth():
    k1 = bounds.tdesign_gate_count(1, 1, 8, 0.1)
    k2 = bounds.tdesign_gate_count(1, 1, 16, 0.1)
    assert k2 / k1 <= 2**9.1 * 4  # ~t^8.1 with log^2 slack


def test_sampler_gates_are_su4():
    layers = bounds.local_circuit_sampler(4, 50, seed=9)
    assert len(layers) == 50
    for site, u in layers[:10]:
        assert 1 <= site <= 3
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)


def test_sampler_site_histogram_uniform():
    layers = bounds.local_circuit_sampler(5, 10000, seed=4)
    counts = np.bincount([s for s, _ in layers], minlength=5)[1:]
    expected = 10000 / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 3 + 3 * np.sqrt(6)  # 3 dof, 3 sigma


def test_sampler_deterministic():
    a = bounds.local_circuit_sampler(3, 5, seed=1)
    b = bounds.local_circuit_sampler(3, 5, seed=1)
    for (sa, ua), (sb, ub) in zip(a, b):
        assert sa == sb and np.array_equal(ua, ub)
