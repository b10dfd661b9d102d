import itertools
from fractions import Fraction

import numpy as np
import pytest

from covqec import young

import lr_oracle


# ---------------------------------------------------------------------------
# brute-force oracles, independent of the implementation paths they check
# ---------------------------------------------------------------------------

def character(lam, phases):
    """Character chi_lam at diag(exp(i theta_1), ..., exp(i theta_d)): the
    test-only oracle of `young.tensor_decompose`.

    Evaluated as the Schur polynomial of the eigenvalues (ratio of
    alternants).  Fully degenerate phase vectors are handled exactly;
    partially degenerate ones by an epsilon-perturbation with Richardson
    extrapolation.
    """
    lam = young.normalize(lam)
    d = len(phases)
    if len(lam) > d:
        raise ValueError(f"diagram {lam} has more than {d} rows")
    th = np.asarray(phases, dtype=float)
    lam_p = young.pad(lam, d)
    if d == 1:
        return complex(np.exp(1j * th[0] * lam_p[0]))
    if d == 2:
        # exact and stable for all phases; overall U(1) phase e^{i avg * |lam|}
        half = (th[0] - th[1]) / 2.0
        avg = (th[0] + th[1]) / 2.0
        return complex(np.exp(1j * avg * young.boxes(lam)) * young.su2_character(lam_p[0] - lam_p[1], half))

    z = np.exp(1j * th)
    spread = min(abs(z[i] - z[j]) for i in range(d) for j in range(i + 1, d))
    if spread < 1e-12:
        # all phases equal: chi = dim * exp(i theta |lam|)
        if max(abs(z[i] - z[0]) for i in range(d)) < 1e-12:
            return complex(young.weyl_dimension(lam, d) * np.exp(1j * th[0] * young.boxes(lam)))
    if spread > 1e-5:
        return _alternant_ratio(lam_p, th)
    # partial degeneracy: perturb along a traceless direction and extrapolate
    w = np.arange(1, d + 1, dtype=float)
    w -= w.mean()
    eps = 1e-5
    c1 = _alternant_ratio(lam_p, th + eps * w)
    c2 = _alternant_ratio(lam_p, th + (eps / 2) * w)
    return complex(2 * c2 - c1)


def _alternant_ratio(lam_p, th):
    d = len(th)
    exps = np.array([lam_p[j] + d - 1 - j for j in range(d)], dtype=float)
    rho = np.arange(d - 1, -1, -1, dtype=float)
    num = np.linalg.det(np.exp(1j * np.outer(th, exps)))
    den = np.linalg.det(np.exp(1j * np.outer(th, rho)))
    return complex(num / den)


def brute_partitions(n, d):
    """All partitions of n with at most d parts, by filtering compositions."""
    found = set()
    if n == 0:
        return {()}
    for cuts in itertools.product(range(n + 1), repeat=d):
        if sum(cuts) == n and all(cuts[i] >= cuts[i + 1] for i in range(d - 1)):
            found.add(young.normalize(cuts))
    return found


def brute_ssyt_count(lam, d):
    """Count semistandard tableaux of shape lam with entries in 1..d."""
    lam = young.normalize(lam)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    count = 0

    def rec(i, filling):
        nonlocal count
        if i == len(cells):
            count += 1
            return
        r, c = cells[i]
        lo = filling.get((r, c - 1), 1)
        above = filling.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, d + 1):
            filling[(r, c)] = v
            rec(i + 1, filling)
            del filling[(r, c)]

    rec(0, {})
    return count


def schur_via_tableaux(lam, z):
    """Schur polynomial as the SSYT monomial sum (degenerate-safe oracle)."""
    lam = young.normalize(lam)
    d = len(z)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    total = 0.0 + 0.0j

    def rec(i, filling, mono):
        nonlocal total
        if i == len(cells):
            total += mono
            return
        r, c = cells[i]
        lo = filling.get((r, c - 1), 1)
        above = filling.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, d + 1):
            filling[(r, c)] = v
            rec(i + 1, filling, mono * z[v - 1])
            del filling[(r, c)]

    rec(0, {}, 1.0 + 0.0j)
    return total


# ---------------------------------------------------------------------------
# enumerate_diagrams
# ---------------------------------------------------------------------------

def test_enumerate_empty():
    assert young.enumerate_diagrams(0, 2) == [()]


def test_enumerate_two_boxes():
    assert young.enumerate_diagrams(2, 2) == [(2,), (1, 1)]


def test_enumerate_five_boxes_three_rows():
    got = young.enumerate_diagrams(5, 3)
    assert len(got) == 5
    assert set(got) == brute_partitions(5, 3)


@pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (7, 2), (8, 3)])
def test_enumerate_matches_brute_force(n, d):
    got = young.enumerate_diagrams(n, d)
    assert len(got) == len(set(got))
    assert set(got) == brute_partitions(n, d)
    assert got == sorted(got, reverse=True)


# ---------------------------------------------------------------------------
# weyl_dimension
# ---------------------------------------------------------------------------

def test_weyl_dimension_fundamental():
    assert young.weyl_dimension((1,), 2) == 2


def test_weyl_dimension_triplet():
    assert young.weyl_dimension((2, 0), 2) == 3


def test_weyl_dimension_adjoint_su3():
    assert brute_ssyt_count((2, 1), 3) == 8
    assert young.weyl_dimension((2, 1, 0), 3) == 8


@pytest.mark.parametrize("d", [2, 3])
def test_weyl_dimension_counts_tableaux(d):
    for n in range(0, 6):
        for lam in young.enumerate_diagrams(n, d):
            assert young.weyl_dimension(lam, d) == brute_ssyt_count(lam, d)


def test_weyl_dimension_full_column_invariance():
    assert young.weyl_dimension((3, 1), 2) == young.weyl_dimension((4, 2), 2)
    assert young.weyl_dimension((2, 1, 1), 3) == young.weyl_dimension((1,), 3)


def test_weyl_dimension_too_many_rows():
    with pytest.raises(ValueError):
        young.weyl_dimension((1, 1, 1), 2)


# ---------------------------------------------------------------------------
# character
# ---------------------------------------------------------------------------

def test_character_identity_is_trace_of_identity():
    assert character((1,), (0.0, 0.0)) == pytest.approx(2.0)


def test_character_symmetric_square():
    # oracle: symmetric square of diag(e^{it}, e^{-it}) has eigenphases
    # (2t, 0, -2t), so the trace is 1 + 2cos(2t)
    for t in (0.3, np.pi / 3, 1.9):
        expect = 1 + 2 * np.cos(2 * t)
        assert character((2, 0), (t, -t)) == pytest.approx(expect, abs=1e-12)
    assert abs(character((2, 0), (np.pi / 3, -np.pi / 3))) < 1e-12


def test_character_determinant_rep_su2():
    for t in (0.0, 0.7, 2.0):
        assert character((1, 1), (t, -t)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_character_at_identity_equals_dimension(d):
    for n in range(0, 6):
        for lam in young.enumerate_diagrams(n, d):
            val = character(lam, (0.0,) * d)
            assert val == pytest.approx(young.weyl_dimension(lam, d), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_character_matches_tableau_sum(d):
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for lam in young.enumerate_diagrams(n, d):
            th = rng.uniform(-2, 2, size=d)
            th -= th.sum() / d
            expect = schur_via_tableaux(lam, np.exp(1j * th))
            assert character(lam, th) == pytest.approx(expect, abs=1e-9)


def test_character_degenerate_phases_su3():
    # two equal phases force the extrapolation path
    lam = (2, 1)
    t = 0.4
    th = (t, t, -2 * t)
    expect = schur_via_tableaux(lam, np.exp(1j * np.asarray(th)))
    assert character(lam, th) == pytest.approx(expect, abs=1e-7)


def test_character_bounded_by_dimension():
    rng = np.random.default_rng(1)
    for lam in [(3, 1), (5, 0), (4, 4)]:
        for _ in range(20):
            t = rng.uniform(0, np.pi)
            assert abs(character(lam, (t, -t))) <= young.weyl_dimension(lam, 2) + 1e-9


# ---------------------------------------------------------------------------
# tensor_decompose, against the backtracking tableau counter `lr_oracle`
# ---------------------------------------------------------------------------

def test_lr_squares_of_fundamental():
    assert lr_oracle.lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_oracle.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert young.tensor_decompose((1,), (1,), 3) == {(2,): 1, (1, 1): 1}


def test_lr_known_multiplicity_two():
    assert lr_oracle.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert young.tensor_decompose((2, 1), (2, 1), 3)[(3, 2, 1)] == 2


def test_lr_symmetry():
    shapes = [((2, 1), (3, 1)), ((2,), (2, 2)), ((3, 1), (1, 1))]
    for lam, mu in shapes:
        assert young.tensor_decompose(lam, mu, 4) == young.tensor_decompose(mu, lam, 4)


def test_lr_box_mismatch_is_zero():
    assert lr_oracle.lr_coefficient((2,), (1,), (2,)) == 0
    assert all(young.boxes(nu) == 3 for nu in young.tensor_decompose((2,), (1,), 2))


def _decompose_cases():
    # every lam of <= 7 boxes with every mu of <= 5 at d = 2 and 3 (<= 5
    # and <= 4 at d = 4): 952 pairs; then wide lam with every mu of <= 5
    for d, n_lam, n_mu in ((2, 7, 5), (3, 7, 5), (4, 5, 4)):
        lams = [lam for n in range(n_lam + 1) for lam in young.enumerate_diagrams(n, d)]
        mus = [mu for n in range(n_mu + 1) for mu in young.enumerate_diagrams(n, d)]
        yield d, lams, mus
    for lam, d in (((3000, 1000), 2), ((40, 40), 2), ((100, 60, 25), 3)):
        yield d, [lam], [mu for n in range(6) for mu in young.enumerate_diagrams(n, d)]


def test_tensor_decompose_equals_tableau_counter():
    pairs = 0
    for d, lams, mus in _decompose_cases():
        for lam in lams:
            for mu in mus:
                assert young.tensor_decompose(lam, mu, d) == lr_oracle.decompose(lam, mu, d), (lam, mu, d)
                pairs += 1
    assert pairs == 952 + 2 * 12 + 16


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_decompose_schur_product(d):
    # dual route: LR expansion must reproduce the product of Schur
    # polynomials at generic eigenphase points
    rng = np.random.default_rng(11)
    pairs = [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (1,)), ((2, 2), (2,))]
    for lam, mu in pairs:
        dec = young.tensor_decompose(lam, mu, d)
        for _ in range(3):
            th = rng.uniform(-2, 2, size=d)
            th -= th.sum() / d
            lhs = character(lam, th) * character(mu, th)
            rhs = sum(c * character(nu, th) for nu, c in dec.items())
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_tensor_decompose_su2_fundamental_square():
    assert young.tensor_decompose((1,), (1,), 2) == {(2,): 1, (1, 1): 1}


def test_tensor_decompose_triplet_times_fundamental():
    dec = young.tensor_decompose((2, 0), (1,), 2)
    assert dec == {(3,): 1, (2, 1): 1}
    assert sum(c * young.weyl_dimension(nu, 2) for nu, c in dec.items()) == 3 * 2


def test_tensor_decompose_with_trivial():
    assert young.tensor_decompose((3, 1), (), 2) == {(3, 1): 1}


@pytest.mark.parametrize("d", [2, 3])
def test_dimension_identity(d):
    for nl in range(0, 5):
        for nm in range(0, 4):
            for lam in young.enumerate_diagrams(nl, d):
                for mu in young.enumerate_diagrams(nm, d):
                    dec = young.tensor_decompose(lam, mu, d)
                    total = sum(c * young.weyl_dimension(nu, d) for nu, c in dec.items())
                    assert total == young.weyl_dimension(lam, d) * young.weyl_dimension(mu, d)


# ---------------------------------------------------------------------------
# dualize
# ---------------------------------------------------------------------------

def test_dualize_su2_fundamental_self_dual():
    assert young.dualize((1,), 2) == (1,)


def test_dualize_su3_fundamental():
    assert young.dualize((1,), 3) == (1, 1)


def test_dualize_adjoint_self_dual():
    assert young.dualize((2, 1, 0), 3) == (2, 1)


def test_dualize_involution_up_to_columns():
    for d in (2, 3):
        for n in range(0, 5):
            for lam in young.enumerate_diagrams(n, d):
                dd = young.dualize(young.dualize(lam, d), d)
                # equal as irreps: differ by full columns only
                a, b = young.pad(lam, d), young.pad(dd, d)
                gaps_a = [a[i] - a[i + 1] for i in range(d - 1)]
                gaps_b = [b[i] - b[i + 1] for i in range(d - 1)]
                assert gaps_a == gaps_b


# ---------------------------------------------------------------------------
# correlation_count
# ---------------------------------------------------------------------------

def test_correlation_count_diagonal():
    assert young.correlation_count((10, 0), (10, 0), (1,), (1,), 2) == 2


def test_correlation_count_shifted():
    assert young.correlation_count((10, 0), (9, 1), (1,), (1,), 2) == 1


def test_correlation_count_box_mismatch():
    assert young.correlation_count((3,), (2,), (1,), (1,), 2) == 0


def test_correlation_shift_identity():
    # sum over all shifts Delta of C^{lam, lam+Delta}_{mu, mu2} = dim(mu) dim(mu2)
    # for lam whose row gaps (and bottom row) comfortably exceed 4(|mu| + |mu2|),
    # so every shifted diagram is still a valid partition
    # box-preserving shifts force |mu| = |mu2| (as in a homogeneous cost set)
    d = 2
    lam = (60, 20)
    for mu, mu2 in [((1,), (1,)), ((2,), (1, 1)), ((2,), (2,)), ((2, 1), (2, 1)), ((3,), (2, 1))]:
        span = young.boxes(mu) + young.boxes(mu2)
        total = 0
        for delta in range(-span, span + 1):
            lam2 = (lam[0] + delta, lam[1] - delta)
            total += young.correlation_count(lam, lam2, mu, mu2, d)
        assert total == young.weyl_dimension(mu, d) * young.weyl_dimension(mu2, d)


# ---------------------------------------------------------------------------
# schur_weyl_prob
# ---------------------------------------------------------------------------

def test_schur_weyl_spot_values():
    assert young.schur_weyl_prob((2, 0), 2, 2) == Fraction(3, 4)
    assert young.schur_weyl_prob((1, 1), 2, 2) == Fraction(1, 4)


def test_schur_weyl_single_row_d1():
    assert young.schur_weyl_prob((5,), 5, 1) == 1


def test_schur_weyl_wrong_boxes():
    with pytest.raises(ValueError):
        young.schur_weyl_prob((2,), 3, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_schur_weyl_normalization_exact(d):
    for s in range(1, 9):
        total = sum(young.schur_weyl_prob(lam, s, d) for lam in young.enumerate_diagrams(s, d))
        assert total == 1
