import collections
import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from covqec import channels as ch
from covqec import codes
from covqec import protocol as pr
from covqec import refframe as rf
from covqec import young

from conftest import _density_su2, rotated_five_qubit_code

IDENT = ch.identity_channel(2)
# the outcome density of a Haar guess: identically one
FLAT = rf.RefFrameSpec(2, 0, {(): 1.0})


# ---------------------------------------------------------------------------
# slow oracles
# ---------------------------------------------------------------------------

def _phi_weight(code, erased, us):
    """Phi+ weight F(U') = F_ent(M_{U'}, I) of the inner channel at each node.

    With W_b = U'_surv M_b, the Kraus operators of M_{U'} are
    U'^dag R_r W_b plus the off-support completion (junk -> maximally
    mixed), and F_ent = sum_K |Tr K|^2 / d^2.  The completion enters in
    closed form, (d - <W, P W>) / d, because sum_b ||W_b||^2 = d; its
    rank-one Kraus are never materialized, and <W, P W> = sum_r ||R_r W||^2
    because sum_r R_r^dag R_r = P.  U'_surv acts one qudit at a time, so
    U'^{(x) n_surv} is never formed either.  Each node is taken whole, with
    no use of the Euler grid's product structure.
    """
    d = code.d
    m_ops = codes.erased_restriction_kraus(code, erased)
    data_kraus, _ = codes.recovery_parts(code, erased)
    dim_s = m_ops[0].shape[0]
    m_cat = np.stack(m_ops, axis=1).reshape(dim_s, -1)          # (dim_s, n_b*d)
    r_cat = np.stack(data_kraus, axis=0).reshape(-1, dim_s)     # (n_r*d, dim_s)
    out = np.empty(len(us))
    chunk = 2048
    for start in range(0, len(us), chunk):
        ub = us[start:start + chunk]
        nb = ub.shape[0]
        w_all = np.broadcast_to(m_cat, (nb,) + m_cat.shape)
        u = ub[:, None, :, :, None]
        for left in d ** np.arange(code.n_p - len(erased)):
            # U' on one qudit: w[n, left, a, rest] = sum_b u[n, a, b] w[n, left, b, rest]
            w_all = w_all.reshape(nb, left, 1, d, -1)
            w_all = sum(u[:, :, :, b] * w_all[:, :, :, b] for b in range(d))
        x = np.matmul(r_cat, w_all.reshape(nb, dim_s, -1))     # (n, n_r*d, n_b*d)
        traces = np.einsum("nxy,nrxby->nrb", ub.conj(),
                           x.reshape(nb, len(data_kraus), d, len(m_ops), d), optimize=True)
        kept = np.sum(np.abs(x) ** 2, axis=(1, 2))
        data = np.sum(np.abs(traces) ** 2, axis=(1, 2))
        out[start:start + nb] = (data + (d - kept) / d) / d**2
    return out


def _full_grid_spectrum(code, pattern, order):
    """c_{2k} of `_phi_weight` on every node of the Euler grid of `order`:
    no half grid and no selection rule over alpha and gamma."""
    n_surv = code.n_p - len(set(pattern))
    quad = ch.haar_quadrature_su2(order)
    us = quad.matrices()
    wf = quad.weights * _phi_weight(code, sorted(set(pattern)), us)
    theta = ch.su2_eigenphase(us)
    return np.array([wf @ young.su2_character(2 * k, theta) for k in range(n_surv + 2)])


def _haar_guess_a(code, pattern):
    """a of the inner channel when no reference information survives: the
    density is identically one."""
    return pr.inner_channel(code, [FLAT], [pattern])[0][0, 0]


def _quadrature_a(code, spec, pattern):
    """a = 1 - int dU' p F by the 3-D Euler quadrature of p F itself.

    The order is max_gap + n_surv + 3, the highest per-axis frequency of
    p F plus two: no character spectrum and no class coefficient involved.
    """
    erased = sorted(set(pattern))
    n_surv = code.n_p - len(erased)
    quad = ch.haar_quadrature_su2(int(spec.gaps().max()) + n_surv + 3)
    us = quad.matrices()
    dens = _density_su2(spec, ch.su2_eigenphase(us))
    total = float(np.sum(quad.weights * dens))
    assert abs(total - 1.0) < 1e-10
    f_ent = float(np.sum(quad.weights * dens * _phi_weight(code, erased, us))) / total
    return min(1.0, max(0.0, 1.0 - f_ent))


def _reference_fidelity_hand_sum(spec, n_p):
    """Exact-character oracle for F_ent(int dU' p(U') U'_P (x) U'*_L, I).

    Expands the entanglement fidelity into Haar integrals of character
    products and counts them with Littlewood-Richardson combinatorics,
    fully independently of the quadrature path:

        F = 4^-(n_p+1) sum_{lam lam'} sqrt(q q') Int chi_lam chi_lam'
                                                     |chi_fund|^{2(n_p+1)}.
    """
    d = spec.d
    if d != 2:
        raise ValueError("hand sum wired for d = 2")

    def fund_power_decomp(k):
        dec = {(): 1}
        for _ in range(k):
            nxt: dict = {}
            for lam, mult in dec.items():
                for nu, c in young.tensor_decompose(lam, (1,), d).items():
                    nxt[nu] = nxt.get(nu, 0) + mult * c
            dec = nxt
        return dec

    # chi of U'_P (x) U'*_L = chi_fund^{n_p} chi_fund* ; |.|^2 gives
    # fund^{n_p+1} against its dual, and for SU(2) dual = fund
    dec = fund_power_decomp(n_p + 1)
    total = 0.0
    dim = 2 ** (n_p + 1)
    for lam, q in spec.weights.items():
        for lam2, q2 in spec.weights.items():
            # Int chi_lam chi_lam2* |chi_fund|^{2(n_p+1)}
            #   = sum_nu mult_nu(lam (x) fund^{n_p+1}) mult_nu(lam2 (x) fund^{n_p+1})
            acc = 0
            left: dict = {}
            for mu, m1 in dec.items():
                for nu, c in young.tensor_decompose(lam, mu, d).items():
                    left[nu] = left.get(nu, 0) + m1 * c
            for mu, m2 in dec.items():
                for nu, c in young.tensor_decompose(lam2, mu, d).items():
                    if nu in left:
                        acc += left[nu] * m2 * c
            total += np.sqrt(q * q2) * acc
    return float(total / dim**2)


_ORACLE_CACHE: dict = {}


def _oracle_for_term(code, label, weak_spec):
    """Oracle a of a weak report term, read off its label: 'no-phys-erasure'
    or 'phys:0,1'."""
    phys = tuple(int(i) for i in label.removeprefix("phys:").split(",")) if label.startswith("phys:") else ()
    return _quadrature_a(code, weak_spec, phys)


def _strong_oracle(code, k, phys):
    """Oracle a of the strong model's frame of k surviving copies (a Haar
    guess at k = 0) against physical pattern `phys`."""
    key = (code.name, k, phys)
    if key not in _ORACLE_CACHE:
        spec = rf.strong_combined_spec(2, k) if k else FLAT
        _ORACLE_CACHE[key] = _quadrature_a(code, spec, phys)
    return _ORACLE_CACHE[key]


# ---------------------------------------------------------------------------
# inner channel
# ---------------------------------------------------------------------------

def test_inner_trivial_code_is_identity():
    # for a single-qudit trivial code the physical and logical rotations
    # cancel exactly, whatever the reference does
    for spec in (rf.strong_combined_spec(2, 1), rf.weak_spec(2, 4)):
        a, diag = pr.inner_channel(codes.trivial_code(2), [spec], [set()])
        assert 1 - a[0, 0] == pytest.approx(1.0, abs=1e-12)
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
    got = _phi_weight(code, list(pattern), us)
    for u, f in zip(us, got):
        u_surv = pr._kron_power_batch(u[None], code.n_p - len(pattern))[0]
        ref = sum(
            abs(np.trace(u.conj().T @ k @ u_surv @ m)) ** 2 for k in r_ops for m in m_ops
        ) / 4
        assert f == pytest.approx(ref, abs=1e-12)


def test_inner_feels_the_reference_error_and_improves_with_m():
    code = codes.five_qubit_code()
    a, _ = pr.inner_channel(code, [rf.weak_spec(2, m) for m in (4, 10, 16)], [set()])
    vals = 1 - a[:, 0]
    assert vals[0] < vals[1] < vals[2] < 1.0


def test_inner_hand_sum_oracle():
    # quadrature fidelity of int dU' p U'_P (x) U'*_L against the exact
    # character-combinatorics hand sum, for the single-pair spec at n_p=1:
    # build the channel W on 2 qubits explicitly on the quadrature grid
    spec = rf.strong_combined_spec(2, 1)
    n_p = 1
    hand = _reference_fidelity_hand_sum(spec, n_p)
    quad = ch.haar_quadrature_su2(6)
    us = quad.matrices()
    dens = _density_su2(spec, ch.su2_eigenphase(us))
    dim = 2 ** (n_p + 1)
    acc = 0.0
    for u, w, p in zip(us, quad.weights, dens):
        big = np.kron(u, u.conj())
        acc += w * p * abs(np.trace(big)) ** 2 / dim**2
    assert acc == pytest.approx(hand, abs=1e-9)
    assert hand == pytest.approx(5 / 16, abs=1e-12)


def test_inner_hand_sum_oracle_weak_spec():
    spec = rf.weak_spec(2, 4)
    n_p = 1
    hand = _reference_fidelity_hand_sum(spec, n_p)
    quad = ch.haar_quadrature_su2(12)
    us = quad.matrices()
    dens = _density_su2(spec, ch.su2_eigenphase(us))
    acc = 0.0
    for u, w, p in zip(us, quad.weights, dens):
        acc += w * p * abs(np.trace(np.kron(u, u.conj()))) ** 2 / 16
    assert acc == pytest.approx(hand, abs=1e-6)


@pytest.mark.parametrize("spec,n_p", [
    (rf.strong_combined_spec(2, 1), 1),
    (rf.weak_spec(2, 4), 1),
    (rf.weak_spec(2, 8), 3),
])
def test_class_integrals_hand_sum_oracle(spec, n_p):
    # F_0(U') = |Tr U'|^{2(n_p+1)} / 4^{n_p+1} is the Phi+ weight of
    # U'_P (x) U'*_L; its spectrum (from the 3-D quadrature) folded with the
    # frame's class coefficients must reproduce the LR hand sum
    k = n_p + 1
    quad = ch.haar_quadrature_su2(2 * k + 4)
    theta = ch.su2_eigenphase(quad.matrices())
    wf = quad.weights * np.cos(theta) ** (2 * k)
    spectrum = np.array([wf @ young.su2_character(2 * j, theta) for j in range(k + 1)])
    overlaps = rf.class_coefficients(spec, 2 * k)[::2]
    total = overlaps[0]
    assert total == pytest.approx(1.0, abs=1e-12)
    assert spectrum @ overlaps == pytest.approx(_reference_fidelity_hand_sum(spec, n_p), abs=1e-12)


def test_haar_guess_channel_is_heavily_depolarizing():
    # trivial code: haar guess still cancels exactly
    assert 1 - _haar_guess_a(codes.trivial_code(2), set()) == pytest.approx(1.0, abs=1e-10)
    assert 1 - _haar_guess_a(codes.five_qubit_code(), set()) < 0.6


# ---------------------------------------------------------------------------
# the spectral path against the 3-D quadrature oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [4, 8, 12])
def test_spectral_inner_matches_quadrature_weak(m):
    code = codes.five_qubit_code()
    spec = rf.weak_spec(2, m)
    rep = pr.effective_channel(pr.ProtocolConfig(2, "weak", code, n_e=1, m=m,
                                                 pattern_dist="uniform_le"))
    assert len(rep.terms) == 6
    oracle = [_oracle_for_term(code, t.label, spec) for t in rep.terms]
    for t, a in zip(rep.terms, oracle):
        assert abs(t.params.a - a) < 1e-13, t.label
    assert abs(rep.mixture.a - sum(t.probability * a for t, a in zip(rep.terms, oracle))) < 1e-13


@pytest.mark.parametrize("code,s_r", [
    (codes.trivial_code(2), 3),
    (codes.trivial_code(2), 6),
    (codes.five_qubit_code(), 2),
    (codes.five_qubit_code(), 3),
])
def test_spectral_inner_matches_quadrature_strong(code, s_r):
    # every (k, P) cell of the table the strong report mixes over k; the
    # k = 0 row holds Haar guesses
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.2, s_r=s_r)
    phys = [tuple(sorted(p)) for _, _, p in pr._strong_terms(cfg)]
    a, _ = pr.inner_channel(code, [pr._frame(cfg, k) for k in range(s_r + 1)], phys)
    assert a.shape == (s_r + 1, 2**code.n_p)
    oracle = np.array([[_strong_oracle(code, k, p) for p in phys] for k in range(s_r + 1)])
    for (k, j), cell in np.ndenumerate(a):
        assert abs(cell - oracle[k, j]) < 1e-13, (k, phys[j])
    rep = pr.effective_channel(cfg)
    law = pr._survivor_law(s_r, (1 - 0.2) ** 2)
    assert abs(rep.mixture.a - sum(t.probability * (law @ oracle[:, j])
                                   for j, t in enumerate(rep.terms))) < 1e-13


@pytest.mark.parametrize("s_r", [0, 6, 256])
def test_strong_report_has_one_term_per_physical_pattern(s_r):
    code, p_e = codes.five_qubit_code(), 0.1
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=p_e, s_r=s_r)
    rep = pr.effective_channel(cfg)
    phys = [p for k in range(6) for p in itertools.combinations(range(5), k)]
    assert [t.label for t in rep.terms] == \
        ["phys:" + ",".join(map(str, p)) if p else "no-phys-erasure" for p in phys]
    # independent Bernoulli(p_e) erasure of each physical qudit
    for t, p in zip(rep.terms, phys):
        assert t.probability == pytest.approx(p_e ** len(p) * (1 - p_e) ** (5 - len(p)), rel=1e-15)
    # the survivor law is the binomial law of intact copies
    law = pr._survivor_law(s_r, (1 - p_e) ** 2)
    binom = [math.comb(s_r, k) * (1 - p_e) ** (2 * k) * (1 - (1 - p_e) ** 2) ** (s_r - k)
             for k in range(s_r + 1)]
    assert np.max(np.abs(np.array(law) - binom)) < 1e-14
    # each term's a is its column of the (k, P) table mixed over k
    a, _ = pr.inner_channel(code, [pr._frame(cfg, k) for k in range(s_r + 1)], phys)
    for t, column in zip(rep.terms, a.T):
        assert abs(t.params.a - sum(w * x for w, x in zip(law, column))) <= 1e-15, t.label


@pytest.mark.parametrize("pattern", [(), (0,), (0, 1), (0, 1, 2)])
def test_haar_guess_matches_quadrature(pattern):
    code = codes.five_qubit_code()
    assert abs(_haar_guess_a(code, pattern) - _quadrature_a(code, FLAT, pattern)) < 1e-13


def _phi_spectrum(code, pattern):
    order = pr._spectrum_order(code.n_p - len(set(pattern)))
    return pr._phi_spectrum(code, [pattern], ch.haar_quadrature_su2(order))[0]


_CODES = {"five_qubit": codes.five_qubit_code, "trivial": lambda: codes.trivial_code(2),
          "rotated": rotated_five_qubit_code}
# every erasure pattern of the five-qubit and trivial codes, and patterns
# of the rotated code that keep its rotated qubit, at s = 5..1 survivors;
# at even s the z-weight differences f and kappa are odd, so the alpha and
# gamma frequencies f/2 and kappa/2 are half-integers
_ALL_PATTERNS = [(name, p) for name, n_p in (("five_qubit", 5), ("trivial", 1))
                 for k in range(n_p + 1) for p in itertools.combinations(range(n_p), k)]
_ALL_PATTERNS += [("rotated", p) for p in [(), (1,), (2,), (1, 3), (1, 2, 4), (1, 2, 3, 4)]]


@pytest.mark.parametrize("name,pattern", _ALL_PATTERNS,
                         ids=[f"{name}:{','.join(map(str, p)) or '-'}" for name, p in _ALL_PATTERNS])
def test_factored_spectrum_matches_per_node_oracle(name, pattern):
    code = _CODES[name]()
    order = pr._spectrum_order(code.n_p - len(pattern))
    oracle = _full_grid_spectrum(code, pattern, order)
    assert np.max(np.abs(_phi_spectrum(code, pattern) - oracle)) < 1e-14


def test_batched_spectrum_equals_per_pattern_calls():
    # every erasure pattern of the strong five-qubit model, integrated in one
    # call per survivor count, bit for bit as one call per pattern
    code = codes.five_qubit_code()
    for k in range(code.n_p + 1):
        patterns = list(itertools.combinations(range(code.n_p), k))
        quad = ch.haar_quadrature_su2(pr._spectrum_order(code.n_p - k))
        batch = pr._phi_spectrum(code, patterns, quad)
        assert batch.shape == (len(patterns), code.n_p - k + 2)
        for row, pattern in zip(batch, patterns):
            assert np.array_equal(row, pr._phi_spectrum(code, [pattern], quad)[0]), pattern


_CONVERGED = [("five_qubit", ()), ("five_qubit", (0,)), ("five_qubit", (0, 1, 2)),
              ("rotated", ()), ("rotated", (1,)), ("rotated", (1, 2, 4)),
              ("trivial", ()), ("trivial", (0,))]


@pytest.mark.parametrize("name,pattern", _CONVERGED, ids=[f"pattern{i}" for i in range(len(_CONVERGED))])
def test_phi_spectrum_is_converged(name, pattern):
    # the rotated code breaks the five-qubit code's Z-parity structure (see
    # rotated_five_qubit_code); the trivial code runs at n_surv = 1 and 0
    code = _CODES[name]()
    exact = _phi_spectrum(code, pattern)
    n_surv = code.n_p - len(pattern)
    assert len(exact) == n_surv + 2
    # two orders finer, on the whole grid: no use of the U' -> -U' symmetry
    finer = _full_grid_spectrum(code, pattern, pr._spectrum_order(n_surv) + 2)
    assert np.max(np.abs(finer - exact)) < 1e-14


def test_wigner_diagonals_sum_to_the_character():
    # chi_{2j}(U) = sum_{m=-j..j} e^{-i m (alpha + gamma)} d^j_mm(beta) at
    # U = su2_from_euler(alpha, beta, gamma), with d^j_{-m,-m} = d^j_mm.  The
    # eigenphase is read off U as atan2(|(Im U00, U10)|, Re U00): arccos of
    # the trace loses ~1e-8 of theta near 0 and pi, which the character's
    # slope turns into ~1e-13
    rng = np.random.default_rng(43)
    alpha, beta, gamma = (rng.uniform(0, top, 200) for top in (2 * np.pi, np.pi, 4 * np.pi))
    u = ch.su2_from_euler(alpha, beta, gamma)
    theta = np.arctan2(np.hypot(u[:, 0, 0].imag, np.abs(u[:, 1, 0])), u[:, 0, 0].real)
    table = pr._wigner_diagonals(beta, 8)
    assert table.shape == (200, 9, 9)
    m = np.arange(-8, 9)
    for j in range(9):
        d_jj = np.where(np.abs(m) <= j, table[:, j, np.abs(m)], 0.0)
        chi = np.sum(np.exp(-1j * np.outer(alpha + gamma, m)) * d_jj, axis=1)
        assert np.max(np.abs(chi - young.su2_character(2 * j, theta))) < 1e-13, j
        assert not np.any(table[:, j, j + 1:])


def test_inner_channel_builds_one_quadrature_per_order(monkeypatch):
    built, integrated = [], []
    real_quad, real_spectrum = pr.haar_quadrature_su2, pr._phi_spectrum

    def counted_quad(order):
        built.append(order)
        return real_quad(order)

    def counted_spectrum(*args):
        integrated.append(args)
        return real_spectrum(*args)

    monkeypatch.setattr(pr, "_SPECTRA", {})
    monkeypatch.setattr(pr, "haar_quadrature_su2", counted_quad)
    monkeypatch.setattr(pr, "_phi_spectrum", counted_spectrum)
    code = codes.five_qubit_code()
    patterns = [frozenset(p) for k in range(6) for p in itertools.combinations(range(5), k)]
    _, diag = pr.inner_channel(code, [FLAT], patterns)
    assert sorted(built) == [pr._spectrum_order(s) for s in range(6)]
    # one kernel call per survivor count integrates all 32 patterns
    assert len(integrated) == 6 and diag["spectra_computed"] == 32
    assert sorted(len(args[1]) for args in integrated) == [1, 1, 5, 5, 10, 10]
    # a repeat call, here under another frame, takes every spectrum from the memo
    built.clear()
    integrated.clear()
    _, diag = pr.inner_channel(code, [rf.strong_combined_spec(2, 2)], patterns)
    assert built == [] and integrated == [] and diag["spectra_computed"] == 0
    assert diag["quad_order"] == pr._spectrum_order(5)


def test_weak_channel_leaves_numpy_polynomial_unimported():
    # the Gauss-Legendre rule is channels._gauss_legendre; under a numpy that
    # imports numpy.polynomial itself (1.x) this only checks covqec adds nothing
    script = ("import sys, numpy\n"
              "before = 'numpy.polynomial' in sys.modules\n"
              "from covqec import codes, protocol as pr\n"
              "pr.effective_channel(pr.ProtocolConfig(2, 'weak', codes.five_qubit_code(), n_e=1, m=4))\n"
              "print(before, 'numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    before, after = res.stdout.split()
    assert after == before


def test_inner_channel_table_matches_quadrature():
    # rows are reference frames, columns erasure patterns of different
    # survivor counts, all against the frames' class coefficients
    code = codes.five_qubit_code()
    specs = [FLAT, rf.strong_combined_spec(2, 3), rf.weak_spec(2, 8)]
    patterns = [(), (0,), (0, 1, 2)]
    a, diag = pr.inner_channel(code, specs, patterns)
    assert a.shape == (3, 3)
    for i, spec in enumerate(specs):
        for j, pattern in enumerate(patterns):
            assert abs(a[i, j] - _quadrature_a(code, spec, pattern)) < 1e-13, (i, j)
    assert diag["quad_order"] == pr._spectrum_order(code.n_p)
    assert abs(diag["normalization"] - 1.0) < 1e-10


@pytest.mark.parametrize("cfg", [
    pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=1, m=4, pattern_dist="uniform_le"),
    pr.ProtocolConfig(2, "strong", codes.five_qubit_code(), p_e=0.2, s_r=3),
], ids=["weak", "strong"])
def test_effective_channel_calls_inner_channel_once(monkeypatch, cfg):
    calls = []
    real = pr.inner_channel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pr, "inner_channel", counted)
    pr.effective_channel(cfg)
    assert len(calls) == 1


def test_survivor_law_in_log_space():
    # comb(s_r, k) * p**k overflows a float past s_r ~ 1030
    law = pr._survivor_law(5000, 0.81)
    assert abs(sum(law) - 1.0) < 1e-12
    for s_r in range(51):
        for p in (0.2601, 0.64, 0.81, 0.9801):
            exact = [math.comb(s_r, k) * p**k * (1 - p) ** (s_r - k) for k in range(s_r + 1)]
            assert np.max(np.abs(np.subtract(pr._survivor_law(s_r, p), exact))) < 1e-14, (s_r, p)


def test_inner_channel_follows_the_encoder():
    # a fixed non-Clifford rotation of qubit 0 changes the encoder but not
    # the CodeSpec's equality or hash, so no cache may key on the CodeSpec
    code = codes.five_qubit_code()
    rotated = rotated_five_qubit_code()
    assert rotated == code and hash(rotated) == hash(code)
    spec = rf.weak_spec(2, 4)
    got = [pr.inner_channel(c, [spec], [(1,)])[0][0, 0] for c in (code, rotated, code)]
    for c, a in zip((code, rotated, code), got):
        assert abs(a - _quadrature_a(c, spec, (1,))) < 1e-13
    assert abs(got[0] - got[1]) > 1e-3


_MEMO_CONFIGS = [
    pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=1, m=m, pattern_dist=dist)
    for m in (4, 8) for dist in ("exact_ne", "uniform_le")
] + [pr.ProtocolConfig(2, "strong", codes.five_qubit_code(), p_e=0.2, s_r=3)]


@pytest.mark.parametrize("cfg", _MEMO_CONFIGS, ids=["weak4e", "weak4u", "weak8e", "weak8u", "strong3"])
def test_memoized_spectra_are_bit_identical(monkeypatch, cfg):
    monkeypatch.setattr(pr, "_SPECTRA", {})
    cold = pr.effective_channel(cfg)
    # warm the memo under another frame of the same code and patterns
    monkeypatch.setattr(pr, "_SPECTRA", {})
    other = dataclasses.replace(cfg, m=cfg.m + 2) if cfg.model == "weak" else dataclasses.replace(cfg, s_r=5)
    pr.effective_channel(other)
    monkeypatch.setattr(pr, "_phi_spectrum", None)  # a warm call integrates nothing
    warm = pr.effective_channel(cfg)
    assert [t.params.a for t in warm.terms] == [t.params.a for t in cold.terms]
    assert warm.mixture.a == cold.mixture.a and warm.eps_cov == cold.eps_cov


def test_spectrum_memo_is_bounded(monkeypatch):
    # more distinct codes than the memo holds: trivial codes under random encoders
    monkeypatch.setattr(pr, "_SPECTRA", {})
    us = ch.haar_su2(np.random.default_rng(5), pr._SPECTRA_CAP + 10)
    trivial = [codes.CodeSpec(2, 1, u, "trivial", 1) for u in us]
    for code in trivial:
        _, diag = pr.inner_channel(code, [FLAT], [()])
        assert diag["spectra_computed"] == 1
        assert len(pr._SPECTRA) <= pr._SPECTRA_CAP
    assert len(pr._SPECTRA) == pr._SPECTRA_CAP
    assert not any(c.flags.writeable for c in pr._SPECTRA.values())
    # the newest spectrum is served from the memo, the oldest was dropped
    assert pr.inner_channel(trivial[-1], [FLAT], [()])[1]["spectra_computed"] == 0
    assert pr.inner_channel(trivial[0], [FLAT], [()])[1]["spectra_computed"] == 1


# ---------------------------------------------------------------------------
# effective channel
# ---------------------------------------------------------------------------

def test_effective_weak_no_error_distribution_decreasing_in_m():
    code = codes.five_qubit_code()
    eps = []
    for m in (8, 12, 16):
        cfg = pr.ProtocolConfig(2, "weak", code, n_e=0, m=m)
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
        v_chan = ch.KrausChannel(2, 2, [v])
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

def _shot_oracle(code, v, u, erased, u_rel):
    """One shot of the protocol with encoding rotation U and transversal gate
    V, scored on its explicit Kraus operators K = U^ R_r U'^{(x) s} M_b U^dag
    with U^ = V U U'^dag as sum_K |Tr(V^dag K)|^2 / d^2.  U'^{(x) s} comes
    from np.kron."""
    r_ops = np.stack(codes.recovery_on_survivors(code, erased))
    m_ops = np.stack(codes.erased_restriction_kraus(code, erased))
    u_hat = (v @ u) @ u_rel.conj().T
    mid = functools.reduce(np.kron, [u_rel] * (code.n_p - len(erased)), np.eye(1))
    kraus = np.einsum("rxs,bsy->rbxy", u_hat @ r_ops @ mid, m_ops) @ u.conj().T
    traces = np.einsum("xy,rbxy->rb", v.conj(), kraus)
    return np.sum(np.abs(traces) ** 2) / 4


@pytest.mark.parametrize("gated", [False, True])
def test_score_shots_matches_per_shot_oracle(gated):
    # the twirl identity per shot: scored on U' alone, each shot equals the
    # explicit Kraus score with a Haar encoding rotation U, and with V = I or
    # a Haar gate V, as (V U)^dag U^ = U'^dag.  Every five-qubit pattern of
    # size <= 3 and every trivial-code pattern, three shots each, scored in
    # one batch (shots of a pattern are not adjacent)
    rng = np.random.default_rng(41)
    for code in (codes.five_qubit_code(), codes.trivial_code(2)):
        patterns = [p for k in range(min(4, code.n_p + 1))
                    for p in itertools.combinations(range(code.n_p), k)] * 3
        phys = np.array([sum(1 << i for i in p) for p in patterns])
        us = ch.haar_su2(rng, len(patterns))
        u_rels = ch.haar_su2(rng, len(patterns))
        vs = (ch.haar_su2(rng, len(patterns)) if gated
              else np.broadcast_to(np.eye(2, dtype=complex), us.shape))
        got = pr._score_shots(code, phys, u_rels)
        for f, p, u, u_rel, v in zip(got, patterns, us, u_rels, vs):
            assert f == pytest.approx(_shot_oracle(code, v, u, list(p), u_rel), abs=1e-12)


def _gated_score_shots(v, rng):
    """A `_score_shots` stand-in for the covariant version of the gate V:
    each shot draws its own Haar encoding rotation U from `rng` and is scored
    on its explicit Kraus operators K = U^ R_r U'^{(x) s} M_b U^dag, with
    U^ = V U U'^dag, against V."""
    def score(code, phys, u_rels):
        us = ch.haar_su2(rng, len(u_rels))
        u_hats = v @ us @ u_rels.conj().transpose(0, 2, 1)
        out = np.empty(len(u_rels))
        for mask in np.flatnonzero(np.bincount(phys)):
            erased = [i for i in range(code.n_p) if mask >> i & 1]
            r_ops = np.stack(codes.recovery_on_survivors(code, erased))
            m_ops = np.stack(codes.erased_restriction_kraus(code, erased))
            n_b, dim_s = m_ops.shape[:2]
            m_cat = m_ops.transpose(1, 0, 2).reshape(dim_s, n_b * code.d)
            idx = np.flatnonzero(phys == mask)
            for start in range(0, len(idx), 256):
                sel = idx[start:start + 256]
                mid = pr._kron_power_batch(u_rels[sel], code.n_p - len(erased)) @ m_cat
                mid = mid.reshape(len(sel), dim_s, n_b, code.d)   # U'^{(x) s} M_b
                rw = np.tensordot(r_ops, mid, axes=([2], [1]))   # [r, x, shot, b, y]
                kraus = np.einsum("nwx,rxnbz,nyz->nrbwy", u_hats[sel], rw, us[sel].conj(),
                                  optimize=True)
                traces = np.einsum("xy,nrbxy->nrb", v.conj(), kraus)
                out[sel] = np.sum(np.abs(traces.reshape(len(sel), -1)) ** 2, axis=1) / code.d**2
        return out
    return score


def _kron_score_shots(code, phys, u_rels):
    """_score_shots with np.matmul on shot-first stacks: every shot's
    U'^{(x) s} formed by _kron_power_batch, then one matmul per shot."""
    d = code.d
    backs = u_rels.conj().transpose(0, 2, 1)
    out = np.empty(len(u_rels))
    for mask in np.flatnonzero(np.bincount(phys)):
        erased = [i for i in range(code.n_p) if mask >> i & 1]
        m_ops = codes.erased_restriction_kraus(code, erased)
        n_b, dim_s = m_ops.shape[:2]
        r_flat = codes.recovery_on_survivors(code, erased).reshape(-1, d * dim_s)
        m_cat = m_ops.transpose(1, 0, 2).reshape(dim_s, n_b * d)
        idx = np.flatnonzero(phys == mask)
        for start in range(0, len(idx), 256):
            sel = idx[start:start + 256]
            w = pr._kron_power_batch(u_rels[sel], code.n_p - len(erased)) @ m_cat
            g = w.reshape(len(sel), dim_s * n_b, d) @ backs[sel]
            g = g.reshape(len(sel), dim_s, n_b, d).transpose(0, 2, 3, 1)
            traces = g.reshape(len(sel) * n_b, d * dim_s) @ r_flat.T
            out[sel] = np.sum(np.abs(traces.reshape(len(sel), -1)) ** 2, axis=1) / d**2
    return out


@pytest.mark.parametrize("code", [codes.five_qubit_code(), codes.trivial_code(2)],
                         ids=["five_qubit", "trivial"])
@pytest.mark.parametrize("model", ["weak", "strong"])
def test_mc_matches_kron_power_scoring(monkeypatch, code, model):
    args = (dict(n_e=1, m=8, pattern_dist="exact_ne") if model == "weak"
            else dict(p_e=0.2, s_r=6))
    cfg = pr.ProtocolConfig(2, model, code, mc_samples=3000, seed=17, **args)
    est, err = pr.monte_carlo_epsilon(cfg)
    monkeypatch.setattr(pr, "_score_shots", _kron_score_shots)
    ref_est, ref_err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - ref_est) <= 1e-12 and abs(err - ref_err) <= 1e-12


def test_score_shots_chunking(monkeypatch):
    # chunks of two or three shots against one chunk per pattern.  Not bit
    # for bit: BLAS rounds the edge rows and columns of a GEMM with other
    # kernels, so a shot's traces depend in the last bit on where it falls
    code = codes.five_qubit_code()
    rng = np.random.default_rng(43)
    patterns = [p for k in range(4) for p in itertools.combinations(range(5), k)] * 12
    phys = np.array([sum(1 << i for i in p) for p in patterns])
    u_rels = ch.haar_su2(rng, len(patterns))
    monkeypatch.setattr(pr, "_SCORE_CHUNK_ENTRIES", 2**40)
    whole = pr._score_shots(code, phys, u_rels)
    monkeypatch.setattr(pr, "_SCORE_CHUNK_ENTRIES", 2**9)
    chunked = pr._score_shots(code, phys, u_rels)
    assert np.max(np.abs(chunked - whole)) <= 1e-14


@pytest.mark.parametrize("s", range(6))
def test_kron_power_apply_matches_kron_power_batch(s):
    rng = np.random.default_rng(9)
    us = ch.haar_su2(rng, 7)
    m = rng.standard_normal((7, 2**s, 3)) + 1j * rng.standard_normal((7, 2**s, 3))  # one per U
    got = ch._kron_power_apply(us.transpose(1, 2, 0), s, m.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert np.max(np.abs(got - pr._kron_power_batch(us, s) @ m)) <= 1e-14


def test_kron_power_batch_matches_np_kron():
    us = ch.haar_su2(np.random.default_rng(8), 3)
    got = pr._kron_power_batch(us, 4)
    for u, g in zip(us, got):
        assert np.array_equal(g, functools.reduce(np.kron, [u] * 4))


def _chi2_within_3_sigma(samples, law):
    """Pearson chi-square of sampled classes against an exact law, classes
    expected below five times pooled.  Passes below the 3 sigma point of
    the chi-square law in the Wilson-Hilferty cube-root normalization;
    dof + 3 sqrt(2 dof) sits near 2.3 sigma at dof = 9, since the
    chi-square tail is heavier than the normal one."""
    n = len(samples)
    observed = collections.Counter(samples)
    assert set(observed) <= set(law), set(observed) - set(law)
    keys = sorted(law)
    exp = np.array([n * law[k] for k in keys])
    obs = np.array([observed[k] for k in keys], dtype=float)
    big = exp >= 5
    exp = np.append(exp[big], exp[~big].sum())
    obs = np.append(obs[big], obs[~big].sum())
    if exp[-1] == 0:
        exp, obs = exp[:-1], obs[:-1]
    dof = len(exp) - 1
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    h = 2 / (9 * dof)
    assert chi2 < dof * (1 - h + 3 * np.sqrt(h)) ** 3, (chi2, dof)


def _weak_class_law(cfg):
    """(phys bitmask, surviving copies) law by enumerating every erasure
    pattern of an allowed size; its physical marginal must be _weak_terms."""
    n, n_p = cfg.n, cfg.code.n_p
    sizes = range(cfg.n_e + 1) if cfg.pattern_dist == "uniform_le" else [cfg.n_e]
    total = sum(math.comb(n, k) for k in sizes)
    law = collections.Counter()
    for k in sizes:
        for qs in itertools.combinations(range(n), k):
            mask = sum(1 << q for q in qs if q < n_p)
            hit = {(q - n_p) // (2 * cfg.m) for q in qs if q >= n_p}
            law[mask, cfg.n_e + 1 - len(hit)] += 1 / total
    marginal = collections.Counter()
    for (mask, _), p in law.items():
        marginal[mask] += p
    for _, p, phys in pr._weak_terms(cfg):
        assert marginal.pop(sum(1 << i for i in phys)) == pytest.approx(p, abs=1e-12)
    assert not marginal
    return law


@pytest.mark.parametrize("code,n_e,m", [
    (codes.five_qubit_code(), 1, 2),
    (codes.trivial_code(2), 2, 1),  # two reference erasures can hit one copy
    (codes.trivial_code(2), 3, 1),  # the third draw steps over two taken qudits
])
@pytest.mark.parametrize("dist", ["uniform_le", "exact_ne"])
def test_sample_patterns_weak_law(code, n_e, m, dist):
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=n_e, m=m, pattern_dist=dist)
    phys, survivors = pr._sample_patterns(cfg, np.random.default_rng(19), 20000)
    _chi2_within_3_sigma(list(zip(phys.tolist(), survivors.tolist())), _weak_class_law(cfg))


@pytest.mark.parametrize("code,p_e,s_r", [
    (codes.five_qubit_code(), 0.2, 3),
    (codes.trivial_code(2), 0.3, 4),
])
def test_sample_patterns_strong_law(code, p_e, s_r):
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=p_e, s_r=s_r)
    phys, survivors = pr._sample_patterns(cfg, np.random.default_rng(23), 20000)
    p_copy = (1 - p_e) ** 2
    law = {
        (mask, k): p_e ** bin(mask).count("1") * (1 - p_e) ** (code.n_p - bin(mask).count("1"))
        * math.comb(s_r, k) * p_copy**k * (1 - p_copy) ** (s_r - k)
        for mask in range(2**code.n_p) for k in range(s_r + 1)
    }
    _chi2_within_3_sigma(list(zip(phys.tolist(), survivors.tolist())), law)


def test_mc_matches_quadrature_weak():
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=40000, seed=13)
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 3 * err
    assert abs(est - rep.mixture.a) < 5 * err + 1e-12, "5 sigma divergence flags a fault"


def test_mc_matches_quadrature_weak_erasure_free():
    # n_e = 0: the erasure draw has zero width, so every shot erases nothing
    # and keeps its one copy
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=0, m=8, mc_samples=40000, seed=13)
    phys, survivors = pr._sample_patterns(cfg, np.random.default_rng(0), 1000)
    assert not phys.any() and (survivors == 1).all()
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 3 * err
    assert abs(est - rep.mixture.a) < 5 * err + 1e-12, "5 sigma divergence flags a fault"


def test_mc_matches_quadrature_strong():
    code = codes.trivial_code(2)
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.2, s_r=3, mc_samples=40000, seed=3)
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 3 * err


@pytest.mark.parametrize("code", [codes.five_qubit_code(), codes.trivial_code(2)],
                         ids=["five_qubit", "trivial"])
def test_mc_with_no_reference_copies(code):
    # s_r = 0: no shot has a survivor, and every one takes a Haar guess
    cfg = pr.ProtocolConfig(2, "strong", code, p_e=0.1, s_r=0, mc_samples=20000, seed=37)
    _, survivors = pr._sample_patterns(cfg, np.random.default_rng(0), 1000)
    assert survivors.shape == (1000,) and not survivors.any()
    rep = pr.effective_channel(cfg)
    est, err = pr.monte_carlo_epsilon(cfg)
    assert abs(est - rep.mixture.a) < 5 * err + 1e-12, "5 sigma divergence flags a fault"


def test_mc_covariant_gate_insertion(monkeypatch):
    # the covariant version of a Haar gate V (V applied transversally, V_L
    # the target, a Haar encoding rotation U per shot) on the same shots:
    # by covariance the estimate matches the V-free run, and as
    # (V U)^dag U^ = U'^dag the scores do not see V or U at all
    code = codes.five_qubit_code()
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=25000, seed=29)
    base, err_b = pr.monte_carlo_epsilon(cfg)
    v = ch.haar_su2(np.random.default_rng(5), 1)[0]
    monkeypatch.setattr(pr, "_score_shots", _gated_score_shots(v, np.random.default_rng(6)))
    gated, err_g = pr.monte_carlo_epsilon(cfg)
    assert abs(base - gated) < 3 * np.hypot(err_b, err_g)
    assert abs(base - gated) < 1e-12


@pytest.mark.parametrize("samples", [0, 1])
def test_config_rejects_fewer_than_two_mc_samples(samples):
    # one sample has no standard error; the 5 sigma check would pass on nan
    with pytest.raises(ValueError, match="mc_samples"):
        pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=1, m=8, mc_samples=samples)


def test_config_rejects_negative_s_r():
    with pytest.raises(ValueError, match="s_r"):
        pr.ProtocolConfig(2, "strong", codes.five_qubit_code(), p_e=0.1, s_r=-1)


def test_config_rejects_negative_n_e():
    with pytest.raises(ValueError, match="n_e must be non-negative"):
        pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=-1, m=8)


def test_mc_reproducible():
    for cfg in (
        pr.ProtocolConfig(2, "strong", codes.trivial_code(2), p_e=0.1, s_r=2, mc_samples=500, seed=10),
        pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=1, m=8, pattern_dist="exact_ne",
                          mc_samples=500, seed=10),
    ):
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


def test_sweep_strong_proxy_one_over_n_at_large_n():
    # criterion 7 reaches s' = 30; here s' = 256..1024 on the five-qubit
    # grid of the large-n sweep (slope -0.988)
    rows = pr.scaling_sweep("strong", [517, 1029, 2053], n_p=5, p_e=0.1)
    errs = [r.one_minus_fwc for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert -1.3 <= pr.loglog_slope([r.n for r in rows], errs) <= -0.7


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        pr.scaling_sweep("weak", [6], n_p=5, n_e=1)  # n_r = 1 not divisible by 4


def test_sweep_simulated_eps():
    rows = pr.scaling_sweep("weak", [5 + 4 * 8], n_p=5, n_e=1, simulate=True)
    assert rows[0].eps_cov > 0
    assert rows[0].eps_cov >= rows[0].lower_bound


def test_eps_cov_slope_on_the_criterion_6_grid():
    # the paper's 1/n^2 claim on the real channel, in criterion 6's window
    rows = pr.scaling_sweep("weak", [201, 297, 393, 585, 777, 1161], simulate=True)
    slope = pr.loglog_slope([r.n for r in rows], [r.eps_cov for r in rows])
    assert -2.3 <= slope <= -1.8
    # the bound sandwich on every row; theorem1_bound is below 1 only at 1161
    for r in rows:
        assert r.lower_bound <= r.eps_cov
        if r.upper_bound < 1:
            assert r.eps_cov <= r.upper_bound
    assert sum(r.upper_bound < 1 for r in rows) == 1


def test_weak_sandwich_where_theorem1_bites():
    # from n = 1161 on, theorem1_bound drops below 1 (0.689 and 0.173 here),
    # so the exact eps_cov is held between both analytic bounds
    rows = pr.scaling_sweep("weak", [1161, 2313], simulate=True)
    for r in rows:
        assert r.upper_bound < 1
        assert r.lower_bound <= r.eps_cov <= r.upper_bound


@pytest.mark.parametrize("xs", [[201], [201, 201]])
def test_loglog_slope_needs_two_distinct_x(xs):
    with pytest.raises(ValueError, match="two distinct"):
        pr.loglog_slope(xs, [0.1] * len(xs))


def test_eps_cov_strong_slope_on_the_real_channel():
    # the paper's 1/n claim on the real channel, five-qubit code at
    # p_e = 0.1, s_r = 16..256 (n = 37..517).  Uncorrectable physical
    # patterns leave the floor sum_j p_j (1 - F_ent(corrected_channel_j));
    # the reference-frame part eps_cov - floor falls in criterion 7's window.
    # theorem2_bound is above 1 on this whole grid, so it is not asserted
    code = codes.five_qubit_code()
    p_e = 0.1
    floor = sum(
        p_e ** k * (1 - p_e) ** (5 - k)
        * (1 - ch.entanglement_fidelity(codes.corrected_channel(code, s), IDENT))
        for k in range(6) for s in itertools.combinations(range(5), k)
    )
    assert floor == pytest.approx(0.00642, abs=1e-12)
    grid = [5 + 2 * s_r for s_r in (16, 32, 64, 128, 256)]
    rows = pr.scaling_sweep("strong", grid, n_p=5, p_e=p_e, simulate=True)
    assert all(r.lower_bound <= r.eps_cov for r in rows)
    slope = pr.loglog_slope(grid, [r.eps_cov - floor for r in rows])
    assert -1.3 <= slope <= -0.7


def test_eps_cov_is_a_to_solver_accuracy():
    # the mixture is covariant, so its diamond error is its parameter a: the
    # README weak grid (n = 201..1161) and the strong five-qubit grid at
    # p_e = 0.1 hold the SDP's eps_cov to 5e-8 relative
    code = codes.five_qubit_code()
    cfgs = [pr.ProtocolConfig(2, "weak", code, n_e=1, m=(n - 5) // 4, pattern_dist="exact_ne")
            for n in (201, 297, 393, 585, 777, 1161)]
    cfgs += [pr.ProtocolConfig(2, "strong", code, p_e=0.1, s_r=(n - 5) // 2)
             for n in (13, 37, 69, 133, 261)]
    for cfg in cfgs:
        rep = pr.effective_channel(cfg)
        assert abs(rep.eps_cov - rep.mixture.a) <= 5e-8 * rep.mixture.a, cfg


def test_eps_cov_is_a_to_round_off():
    # the mixture's diamond program starts at its certified optimum, so
    # eps_cov stays at a to 1e-9 relative down to a ~ 6e-6 (weak m = 4096),
    # where a solve from the generic start read 4.9e-6
    code = codes.five_qubit_code()
    cfgs = [pr.ProtocolConfig(2, "weak", code, n_e=1, m=m, pattern_dist="exact_ne")
            for m in (4, 16, 64, 256, 1024, 4096)]
    cfgs += [pr.ProtocolConfig(2, "weak", code, n_e=1, m=m, pattern_dist="uniform_le") for m in (4, 16, 64)]
    cfgs += [pr.ProtocolConfig(2, "strong", code, p_e=p_e, s_r=s_r)
             for s_r in (0, 1, 3, 6, 16, 64, 256) for p_e in (0.1, 0.2)]
    for cfg in cfgs:
        rep = pr.effective_channel(cfg)
        assert abs(rep.eps_cov - rep.mixture.a) <= 1e-9 * rep.mixture.a, cfg


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
    # U' = I: every shot of a correctable pattern recovers its logical state
    # exactly, so the Monte Carlo scoring gives F = 1
    code = codes.five_qubit_code()
    patterns = [p for k in range(3) for p in itertools.combinations(range(5), k)]
    phys = np.array([sum(1 << i for i in p) for p in patterns] * 4)
    u_rels = np.broadcast_to(np.eye(2, dtype=complex), (len(phys), 2, 2))
    got = pr._score_shots(code, phys, u_rels)
    assert np.max(np.abs(got - 1.0)) < 1e-12
