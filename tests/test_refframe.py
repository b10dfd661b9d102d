import itertools
from fractions import Fraction
from math import cos, pi, sin

import numpy as np
import pytest

from covqec import channels as ch
from covqec import refframe as rf
from covqec import young

from conftest import _density_su2
import lr_oracle

# the outcome density of a Haar guess: identically one
FLAT = rf.RefFrameSpec(2, 0, {(): 1.0})

# ---------------------------------------------------------------------------
# g weights
# ---------------------------------------------------------------------------

def test_g_weight_values():
    assert rf.g_weight(1, 2) == pytest.approx(2 / 3, abs=1e-15)
    assert rf.g_weight(0, 2) == pytest.approx(1 / 6, abs=1e-15)


def test_g_weight_normalization():
    for big_m in (1, 2, 7, 50):
        assert sum(rf.g_weight(k, big_m) for k in range(big_m + 1)) == pytest.approx(1.0, abs=1e-12)


def test_g_weight_range_error():
    with pytest.raises(ValueError):
        rf.g_weight(3, 2)
    with pytest.raises(ValueError):
        rf.g_weight(-1, 2)


# ---------------------------------------------------------------------------
# weak-model spec
# ---------------------------------------------------------------------------

def paper_lattice(d, m):
    """Oracle: M = floor((2m/(d(d-1)) - 1)/3), m0 = m - d(d-1)(3M+1)/2 and the
    coordinate lt in {0..M}^(d-1) of each support diagram, from the paper's
    formulas in exact rationals."""
    big_m = int((Fraction(2 * m, d * (d - 1)) - 1) / 3)
    m0 = m - Fraction(d * (d - 1) * (3 * big_m + 1), 2)
    mu = [int(m0) // d + (i < int(m0) % d) for i in range(d)]
    labels = {}
    for lt in itertools.product(range(big_m + 1), repeat=d - 1):
        rows = [mu[i] + (2 * d - i - 2) * big_m + (d - i - 1) + lt[i] for i in range(d - 1)]
        labels[young.normalize(rows + [mu[-1] + (d - 1) * big_m - sum(lt)])] = lt
    return big_m, m0, labels


def test_weak_spec_m10():
    spec = rf.weak_spec(2, 10)
    assert rf._weak_lattice(2, 10) == (3, 0) == paper_lattice(2, 10)[:2]
    assert len(spec.weights) == 4


def test_weak_spec_m4():
    spec = rf.weak_spec(2, 4)
    assert rf._weak_lattice(2, 4) == (1, 0) == paper_lattice(2, 4)[:2]
    assert len(spec.weights) == 2


def test_weak_spec_too_small():
    with pytest.raises(rf.ConfigurationError):
        rf.weak_spec(2, 1)


@pytest.mark.parametrize("d,m", [(2, 4), (2, 10), (2, 22), (2, 49), (3, 30), (3, 100)])
def test_weak_spec_support_and_normalization(d, m):
    spec = rf.weak_spec(d, m)
    big_m, m0, labels = paper_lattice(d, m)
    assert rf._weak_lattice(d, m) == (big_m, m0)
    assert len(spec.weights) == (big_m + 1) ** (d - 1)
    assert sum(spec.weights.values()) == pytest.approx(1.0, abs=1e-12)
    # unique decode to the coordinate box
    assert set(labels) == set(spec.weights)
    for lam, lt in labels.items():
        assert young.boxes(lam) == m
        assert spec.weights[lam] == pytest.approx(
            np.prod([rf.g_weight(x, big_m) for x in lt]), abs=1e-15
        )


def test_weak_spec_relation_n_r():
    # n_e = 2 keeps three copies of 2m qudits, and the sweep's overlap proxy
    # takes n' = n_p + d - 1; the spec itself depends on d and m only
    from covqec import codes
    from covqec import protocol as pr

    cfg = pr.ProtocolConfig(2, "weak", codes.five_qubit_code(), n_e=2, m=10)
    assert cfg.n == 5 + 2 * 10 * 3
    row = pr.scaling_sweep("weak", [cfg.n, cfg.n + 6], n_p=5, n_e=2)[0]
    assert row.n_r == 60
    assert row.one_minus_fwc == 1.0 - rf.min_overlap(rf.weak_spec(2, 10), 6)


# ---------------------------------------------------------------------------
# strong-model spec
# ---------------------------------------------------------------------------

def test_strong_spec_single_copy():
    spec = rf.strong_combined_spec(2, 1)
    assert spec.weights == {(1,): 1.0}


def test_strong_spec_no_survivors_is_a_haar_guess():
    # the Schur-Weyl weight of the empty diagram is 1: the trivial frame,
    # whose outcome density is identically one
    for d in (2, 3):
        spec = rf.strong_combined_spec(d, 0)
        assert (spec.d, spec.m, spec.weights) == (d, 0, {(): 1.0})
    assert rf.class_coefficients(rf.strong_combined_spec(2, 0), 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        rf.strong_combined_spec(2, -1)


def test_strong_spec_two_copies():
    spec = rf.strong_combined_spec(2, 2)
    assert spec.weights[(2,)] == pytest.approx(3 / 4)
    assert spec.weights[(1, 1)] == pytest.approx(1 / 4)


def test_strong_spec_three_copies():
    spec = rf.strong_combined_spec(2, 3)
    assert spec.weights[(3,)] == pytest.approx(1 / 2)
    assert spec.weights[(2, 1)] == pytest.approx(1 / 2)


# ---------------------------------------------------------------------------
# outcome density
# ---------------------------------------------------------------------------

def test_density_single_pair_identity():
    spec = rf.strong_combined_spec(2, 1)
    assert _density_su2(spec, np.array([0.0]))[0] == pytest.approx(4.0)


def test_density_single_pair_orthogonal():
    spec = rf.strong_combined_spec(2, 1)
    assert _density_su2(spec, np.array([pi / 2]))[0] == pytest.approx(0.0, abs=1e-12)


def test_density_phase_negation_symmetry():
    spec = rf.weak_spec(2, 10)
    for t in (0.3, 1.2, 2.9):
        plus, minus = _density_su2(spec, np.array([t, -t]))
        assert plus == minus


@pytest.mark.parametrize("make", [
    lambda: rf.weak_spec(2, 4),
    lambda: rf.weak_spec(2, 10),
    lambda: rf.strong_combined_spec(2, 4),
])
def test_density_normalization_by_quadrature(make):
    spec = make()
    max_gap = int(spec.gaps().max())
    quad = ch.haar_quadrature_su2(max_gap + 2)
    theta = ch.su2_eigenphase(quad.matrices())
    vals = _density_su2(spec, theta)
    assert quad.integrate(vals) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# class coefficients
# ---------------------------------------------------------------------------

_COEFF_SPECS = {
    **{f"weak-m{m}": (lambda m=m: rf.weak_spec(2, m)) for m in (4, 8, 32, 128)},
    **{f"strong-s{s}": (lambda s=s: rf.strong_combined_spec(2, s)) for s in (1, 6, 64, 256)},
    "flat": lambda: FLAT,
}


def _midpoint_class_integrals(spec, g_max):
    """int dU p chi_g for g <= g_max on a midpoint grid in the rotation angle.

    A class function's Haar measure is (2/pi) sin^2(theta) dtheta on [0, pi],
    and p chi_g sin^2 is a cosine polynomial of degree 2 (max_gap + 1) + g,
    which the midpoint rule on n nodes integrates exactly below degree 2 n.
    """
    n = int(spec.gaps().max()) + g_max // 2 + 2
    theta = pi * (np.arange(n) + 0.5) / n
    wp = (2.0 / n) * np.sin(theta) ** 2 * _density_su2(spec, theta)
    return np.array([wp @ young.su2_character(g, theta) for g in range(g_max + 1)])


@pytest.mark.parametrize("name", list(_COEFF_SPECS))
def test_class_coefficients_match_midpoint_oracle(name):
    spec = _COEFF_SPECS[name]()
    c = rf.class_coefficients(spec, 12)
    assert c.shape == (13,)
    assert np.max(np.abs(c - _midpoint_class_integrals(spec, 12))) < 1e-12
    # every support gap has the parity of m, so no odd character occurs
    assert np.all(c[1::2] == 0.0)


@pytest.mark.parametrize("name", list(_COEFF_SPECS))
def test_class_coefficients_reconstruct_the_density(name):
    # p = sum_{g <= 2 max_gap} C_g chi_g exactly, C_0 = sum q = 1
    spec = _COEFF_SPECS[name]()
    c = rf.class_coefficients(spec, 2 * int(spec.gaps().max()))
    assert abs(c[0] - 1.0) < 1e-12
    theta = np.linspace(0.0, pi, 97)
    rec = sum(cg * young.su2_character(g, theta) for g, cg in enumerate(c))
    dens = _density_su2(spec, theta)
    assert np.max(np.abs(rec - dens)) < 1e-12 * dens.max()


def _weak_class_closed_form(m, j_max):
    """C_{2j}, j = 0..j_max, of weak_spec(2, m) by the lattice identity:
    C_{2j} = sum_{|delta| <= j} [(M + 1 - |delta|) cos(delta theta)
    + sin(|delta| theta) / sin(theta)] / (M + 1), theta = pi / (M + 1),
    the sum of sqrt(g_k g_{k+delta}) over the whole sine-squared lattice.
    It holds while the Clebsch-Gordan window is cut only by the lattice's
    ends."""
    n1 = rf._weak_lattice(2, m)[0] + 1
    theta = pi / n1
    delta = np.arange(j_max + 1)
    terms = ((n1 - delta) * np.cos(delta * theta) + np.sin(delta * theta) / sin(theta)) / n1
    return np.array([terms[0] + 2 * terms[1:j + 1].sum() for j in range(j_max + 1)])


def test_weak_class_coefficients_closed_form():
    # every m from 16 (M = 5) to 64 and a log grid to 8192 (M = 2730);
    # measured at most 3.6e-15
    for m in [*range(16, 65), *(2 ** k for k in range(7, 14))]:
        err = np.abs(_weak_class_closed_form(m, 6) - rf.class_coefficients(rf.weak_spec(2, m), 12)[::2]).max()
        assert err <= 1e-14, m
    # at m = 13 (M = 4) the window's lower cut a + b >= 2j bites at j = 6:
    # measured 3.8e-2
    err = np.abs(_weak_class_closed_form(13, 6) - rf.class_coefficients(rf.weak_spec(2, 13), 12)[::2]).max()
    assert err > 1e-2


def _small_angle_gaps(specs, scales, limit):
    """limit - r_j * scale / (j (j + 1)) for j = 1, 2, 3 (rows: specs), with
    r_j = 1 - C_{2j} / ((2j + 1) C_0).  As chi_{2j}(theta) / (2j + 1) ~
    1 - j (j + 1) theta^2 / 6, r_j * scale / (j (j + 1)) tends to
    scale * <theta^2> / 6."""
    j = np.arange(1, 4)
    gaps = []
    for spec, scale in zip(specs, scales):
        c = rf.class_coefficients(spec, 6)
        gaps.append(limit - (1 - c[2 * j] / ((2 * j + 1) * c[0])) * scale / (j * (j + 1)))
    return np.array(gaps)


@pytest.mark.parametrize("model", ["weak", "strong"])
def test_class_coefficients_small_angle_constants(model):
    # the frames' leading constants: <theta^2> = pi^2 / (M + 1)^2 for the
    # sine-squared weak frame (m = 385, 1537, 6145: M = 128, 512, 2048) and
    # 3 / s for the Schur-Weyl frame of s pairs, each approached from below
    # with an O(1/M) or O(1/s) gap, so 4x the scale cuts the gap ~4x
    if model == "weak":
        specs = [rf.weak_spec(2, 3 * big_m + 1) for big_m in (128, 512, 2048)]
        gaps = _small_angle_gaps(specs, [129**2, 513**2, 2049**2], pi**2 / 6)
    else:
        s_vals = [64, 256, 1024]
        gaps = _small_angle_gaps([rf.strong_combined_spec(2, s) for s in s_vals], s_vals, 0.5)
    assert np.all(gaps > 0)
    ratios = gaps[1:] / gaps[:-1]
    assert np.all((0.24 <= ratios) & (ratios <= 0.27))  # measured 0.247-0.260
    # measured 8.0e-4 to 1.5e-3 (weak, M = 2048) and 3.7e-4 to 1.6e-3 (strong, s = 1024)
    assert np.all(gaps[-1] < 2e-3)


def test_gaps_match_padded_rows():
    for spec in (FLAT, rf.strong_combined_spec(2, 5), rf.weak_spec(2, 22)):
        rows = [young.pad(lam, 2) for lam in spec.support()]
        assert spec.gaps().tolist() == [r[0] - r[1] for r in rows]
    assert rf.strong_combined_spec(2, 5).gaps().tolist() == [5, 3, 1]
    with pytest.raises(ValueError):
        rf.strong_combined_spec(3, 2).gaps()


# ---------------------------------------------------------------------------
# outcome sampling
# ---------------------------------------------------------------------------

_KS_CRIT_1PCT = 1.6276  # sqrt(n) D at the 1% level, Kolmogorov's limit law


def _ks_statistic(samples, cdf):
    x = np.sort(samples)
    n = len(x)
    f = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


def _angle_cdf_oracle(spec, n_grid=2**16):
    """CDF of the rotation half-angle: the cumulative trapezoid rule on
    (2/pi) sin^2(theta) p(theta), with p from the slow density oracle."""
    grid = np.linspace(0.0, pi, n_grid + 1)
    f = (2 / pi) * np.sin(grid) ** 2 * _density_su2(spec, grid)
    cdf = np.concatenate([[0.0], np.cumsum(f[1:] + f[:-1]) * (pi / (2 * n_grid))])
    assert abs(cdf[-1] - 1.0) < 1e-6
    return lambda t: np.interp(t, grid, cdf)


@pytest.mark.parametrize("make", [
    lambda: rf.weak_spec(2, 8),
    lambda: rf.weak_spec(2, 32),
    lambda: rf.strong_combined_spec(2, 6),
], ids=["weak-m8", "weak-m32", "strong-s6"])
def test_sampler_angle_ks(make):
    spec = make()
    n = 20000
    theta = ch.su2_eigenphase(rf.sample_relative_rotations(spec, n, np.random.default_rng(101)))
    assert _ks_statistic(theta, _angle_cdf_oracle(spec)) < _KS_CRIT_1PCT / np.sqrt(n)


def test_sampler_flat_spec_is_haar():
    n = 20000
    theta = ch.su2_eigenphase(rf.sample_relative_rotations(FLAT, n, np.random.default_rng(103)))

    def haar(t):
        return (t - np.sin(2 * t) / 2) / pi

    assert _ks_statistic(theta, haar) < _KS_CRIT_1PCT / np.sqrt(n)


_SAMPLER_SPECS = {
    "haar": lambda: FLAT,
    **{f"weak-m{m}": (lambda m=m: rf.weak_spec(2, m)) for m in (8, 64)},
    **{f"strong-s{s}": (lambda s=s: rf.strong_combined_spec(2, s)) for s in (1, 2, 3, 5, 6, 64)},
}


@pytest.mark.parametrize("name", list(_SAMPLER_SPECS))
def test_angle_series_matches_class_coefficients(name):
    # pi rho = w_0 + sum_k w_k cos(k theta) with w_k = C_k - C_{k-2}; a
    # circular FFT too short would fold the negative lags into the top half
    spec = _SAMPLER_SPECS[name]()
    c = rf.class_coefficients(spec, 2 * int(spec.gaps().max()))
    ref = np.pad(c, (0, 2)) - np.pad(c, (2, 0))
    w = rf._angle_series(spec)
    assert w.shape == ref.shape
    assert np.max(np.abs(w - ref)) <= 1e-14 * np.abs(ref).sum()
    assert np.all(w[1::2] == 0.0)


class _GivenUniforms:
    """A generator whose uniforms are given; every other draw comes from rng."""

    def __init__(self, uniforms, rng):
        self.uniforms, self.rng = uniforms, rng

    def random(self, size):
        assert size == len(self.uniforms)
        return self.uniforms.copy()

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _angle_cdf_series(spec, theta):
    """F(theta) = (1/pi) sum_g C_g [S_g - S_{g+2}], S_0 = theta,
    S_k = sin(k theta) / k, from the class coefficients."""
    c = rf.class_coefficients(spec, 2 * int(spec.gaps().max()))

    def s(k):
        return theta if k == 0 else np.sin(k * theta) / k

    return sum(cg * (s(g) - s(g + 2)) for g, cg in enumerate(c)) / pi


@pytest.mark.parametrize("name", list(_SAMPLER_SPECS))
def test_sampler_inverts_the_cdf(name):
    # every sampled angle sits where F meets its target, the targets
    # replayed from a copy of the generator; the end angles, where the
    # density vanishes, put targets in the first and last cells
    spec = _SAMPLER_SPECS[name]()
    c0 = rf.class_coefficients(spec, 0)[0]
    rng = np.random.default_rng(17)
    twin = np.random.default_rng(17)
    theta = ch.su2_eigenphase(rf.sample_relative_rotations(spec, 3000, rng))
    assert np.max(np.abs(_angle_cdf_series(spec, theta) - twin.random(3000) * c0)) <= 1e-12
    ends = np.array([0.0, 1e-9, 1e-6, 1e-4, 3e-4])
    ends = np.concatenate([ends, pi - ends])
    uniforms = _angle_cdf_series(spec, ends) / c0
    uniforms = uniforms[(0 <= uniforms) & (uniforms < 1)]
    given = _GivenUniforms(uniforms, np.random.default_rng(19))
    theta = ch.su2_eigenphase(rf.sample_relative_rotations(spec, len(uniforms), given))
    assert np.max(np.abs(_angle_cdf_series(spec, theta) - uniforms * c0)) <= 1e-12


def test_sampler_zero_samples():
    us = rf.sample_relative_rotations(rf.weak_spec(2, 8), 0, np.random.default_rng(0))
    assert us.shape == (0, 2, 2)


def test_sampler_returns_su2():
    us = rf.sample_relative_rotations(rf.weak_spec(2, 12), 500, np.random.default_rng(5))
    assert np.allclose(us @ us.conj().transpose(0, 2, 1), np.eye(2), atol=1e-12)
    assert np.allclose(np.linalg.det(us), 1.0, atol=1e-12)


def test_sampler_rotation_is_closed_form(monkeypatch):
    # cos(theta) I + i sin(theta) V sz V^dag from V's first column equals
    # V diag(e^{i theta}, e^{-i theta}) V^dag by matmul from the same Haar
    # draws V, with cos and sin(theta) >= 0 read back from the trace and the
    # traceless part (whose norm does not depend on V)
    drawn = []

    def record(rng, size):
        drawn.append(ch.haar_su2(rng, size))
        return drawn[-1]

    monkeypatch.setattr(rf, "haar_su2", record)
    us = rf.sample_relative_rotations(rf.weak_spec(2, 12), 2000, np.random.default_rng(5))
    (v,) = drawn
    cos = (us[:, 0, 0] + us[:, 1, 1]).real / 2
    sin = np.hypot(us[:, 0, 0].imag, np.abs(us[:, 0, 1]))
    phases = np.stack([cos + 1j * sin, cos - 1j * sin], axis=1)
    assert np.max(np.abs(us - (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1))) <= 1e-15
    eps = np.finfo(float).eps  # V is unitary to a few ulps, and U' inherits it
    assert np.max(np.abs(np.linalg.det(us) - 1)) <= 8 * eps
    assert np.max(np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(2))) <= 8 * eps


def test_sampler_matches_density_histogram():
    # chi^2 binned test of the sampled rotation angle: the target marginal
    # for the single-pair spec is (2/pi) sin^2(theta) * 4 cos^2(theta)
    # = (2/pi) sin^2(2 theta), with exact bin masses
    # (2/pi) [theta/2 - sin(4 theta)/8] between edges
    spec = rf.strong_combined_spec(2, 1)
    rng = np.random.default_rng(7)
    n = 40000
    us = rf.sample_relative_rotations(spec, n, rng)
    theta = ch.su2_eigenphase(us)
    edges = np.linspace(0, pi, 13)
    counts, _ = np.histogram(theta, bins=edges)

    def cdf(t):
        return (2 / pi) * (t / 2 - sin(4 * t) / 8)

    probs = np.array([cdf(b) - cdf(a) for a, b in zip(edges, edges[1:])])
    expected = n * probs
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 12 bins, 11 dof: mean 11, sd sqrt(22); 3 sigma above the mean
    assert chi2 < 11 + 3 * np.sqrt(22)


def test_sampler_mean_angle_concentrates_with_m():
    # the relative rotation concentrates near +-identity as M grows;
    # -I acts trivially as a correction (global phase) and the density has
    # the exact U -> -U symmetry, so the angle is folded at pi/2
    rng = np.random.default_rng(3)
    mean_angles = []
    for m in (4, 10, 22):
        spec = rf.weak_spec(2, m)
        us = rf.sample_relative_rotations(spec, 2000, rng)
        theta = ch.su2_eigenphase(us)
        mean_angles.append(float(np.minimum(theta, pi - theta).mean()))
    assert mean_angles[0] > mean_angles[1] > mean_angles[2]


# ---------------------------------------------------------------------------
# interior set and overlap bound
# ---------------------------------------------------------------------------

def test_interior_single_diagram():
    spec = rf.RefFrameSpec(2, 10, {(10,): 1.0})
    assert rf.interior_set(spec, 2) == {(10,)}
    assert rf.interior_set(spec, 3) == set()


def test_interior_weak_spec_gap_rule():
    # m=40: M=13, support gaps are 14 + 2*coord, so the 4n' = 24 cut keeps
    # exactly the coordinates >= 5
    spec = rf.weak_spec(2, 40)
    got = rf.interior_set(spec, 6)
    want = {lam for lam, lt in paper_lattice(2, 40)[2].items() if lt[0] >= 5}
    assert got == want


def test_min_overlap_single_diagram_interior():
    spec = rf.RefFrameSpec(2, 10, {(10,): 1.0})
    assert rf.min_overlap(spec, 1) == 0.0


def test_min_overlap_at_most_interior_mass():
    spec = rf.weak_spec(2, 22)
    interior = rf.interior_set(spec, 2)
    mass = sum(spec.weights[l] for l in interior)
    assert rf.min_overlap(spec, 2) <= mass + 1e-15


def test_min_overlap_monotone_in_n_prime():
    spec = rf.weak_spec(2, 49)
    vals = [rf.min_overlap(spec, np_) for np_ in (1, 2, 3, 4, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_min_overlap_eq30_shape():
    # 1 - min_overlap <= (d/2)(pi n'/(M+1))^2 + c M^-3 with one modest c
    n_prime = 6
    worst_c = 0.0
    for m in (49, 73, 97, 145):
        spec = rf.weak_spec(2, m)
        big_m = paper_lattice(2, m)[0]
        eps = 1.0 - rf.min_overlap(spec, n_prime)
        main = (pi * n_prime / (big_m + 1)) ** 2  # d/2 = 1
        worst_c = max(worst_c, (eps - main) * (big_m**3))
    assert worst_c < 50.0


# ---------------------------------------------------------------------------
# appendix E sums
# ---------------------------------------------------------------------------

def test_appendix_e_full_sum_is_one():
    assert rf.appendix_e_sum(100, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_appendix_e_closed_form_spot():
    got = rf.appendix_e_sum(100, 3, 0)
    assert got == pytest.approx(cos(3 * pi / 101), abs=1e-12)
    assert rf.appendix_e_closed_form(100, 3, 0) == pytest.approx(got, abs=1e-12)


def test_appendix_e_direct_equals_closed():
    for big_m in (5, 20, 101, 500):
        for delta in (0, 1, 3, 10):
            for n_lo in (0, 1, 5, 20):
                if n_lo + delta > big_m - n_lo:
                    continue
                a = rf.appendix_e_sum(big_m, delta, n_lo)
                b = rf.appendix_e_closed_form(big_m, delta, n_lo)
                assert a == pytest.approx(b, abs=1e-12)


def test_appendix_e_matches_g_weight_sum_when_in_range():
    # for delta <= n_lo the product sum is literally sum sqrt(g_k g_{k+delta})
    for big_m, delta, n_lo in [(20, 1, 5), (50, 3, 4), (101, 0, 0), (33, 2, 2)]:
        direct = sum(
            np.sqrt(rf.g_weight(k, big_m) * rf.g_weight(k + delta, big_m))
            for k in range(n_lo, big_m - n_lo + 1)
        )
        assert rf.appendix_e_sum(big_m, delta, n_lo) == pytest.approx(direct, abs=1e-13)


def test_appendix_e_empty_range():
    assert rf.appendix_e_sum(10, 0, 6) == 0.0


# ---------------------------------------------------------------------------
# strong-model fidelity
# ---------------------------------------------------------------------------

def test_cost_set_d2():
    assert rf.cost_set(2, 1) == [(2,), (1, 1)]


def test_cost_set_d3():
    assert rf.cost_set(3, 1) == [(2, 1), (1, 1, 1)]


def test_f_strong_single_survivor_grid_oracle():
    # brute-force grid over the 1-simplex
    cost, q = rf.strong_fidelity_form(2, 1, 2)
    grid = min(
        float(np.array([x, 1 - x]) @ q @ np.array([x, 1 - x]))
        for x in np.linspace(0, 1, 200001)
    )
    assert rf.f_strong(2, 1, 2) == pytest.approx(grid, abs=1e-6)
    assert rf.f_strong(2, 1, 2) == pytest.approx(2 / 9, abs=1e-12)


def test_f_strong_hand_sum_forced_weights():
    # s'=2, n_P=1, all weight on the two-row-free cost diagram (2,):
    # hand target (5 + sqrt(3)) / 18
    cost, q = rf.strong_fidelity_form(2, 2, 2)
    idx = cost.index((2,))
    w = np.zeros(len(cost))
    w[idx] = 1.0
    assert float(w @ q @ w) == pytest.approx((5 + np.sqrt(3)) / 18, abs=1e-9)


def test_f_strong_in_unit_interval_and_increasing():
    vals = [rf.f_strong(2, s, 2) for s in range(1, 12)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert b > a  # estimation improves with survivors


def test_f_strong_d3():
    v = rf.f_strong(3, 4, 3)
    assert 0.0 < v < 1.0


def _face_enumeration_min(q):
    # oracle: solve the KKT system on every face of the simplex and keep
    # the feasible face minimizers
    k = q.shape[0]
    best = np.inf
    for r in range(1, k + 1):
        for sub in itertools.combinations(range(k), r):
            qs = q[np.ix_(sub, sub)]
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = 2 * qs
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.zeros(r + 1)
            rhs[r] = 1.0
            w = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:r]
            if (w < -1e-9).any():
                continue
            w = np.clip(w, 0.0, None)
            if w.sum() <= 0:
                continue
            w = w / w.sum()
            best = min(best, float(w @ qs @ w))
    return max(0.0, min(1.0, best))


@pytest.mark.parametrize(
    "d, s, n_prime", [(2, 1, 6), (2, 4, 6), (2, 16, 6), (2, 1, 12), (3, 1, 7), (3, 2, 7)]
)
def test_f_strong_matches_face_enumeration(d, s, n_prime):
    # cost sets of 4 to 7 diagrams, where a projected gradient stops short
    _, q = rf.strong_fidelity_form(d, s, n_prime)
    assert q.shape[0] >= 4
    assert rf.f_strong(d, s, n_prime) == pytest.approx(_face_enumeration_min(q), abs=1e-12)


def test_f_strong_cost_cap():
    # n_P = 47 gives the first d = 2 cost set past the 24-diagram cap
    with pytest.raises(ValueError, match="cost set of size 25 exceeds the cap 24"):
        rf.f_strong(2, 1, 48)


def _strong_form_triple_loop(d, s, n_prime):
    # oracle: the backtracking tableau count of `lr_oracle` on every
    # (mu, nu, lam) triple, each entry summed over lam in the spec's order
    cost = rf.cost_set(d, n_prime - d + 1)
    p = rf.strong_combined_spec(d, s).weights
    dims = np.array([young.weyl_dimension(mu, d) for mu in cost], dtype=float)
    nus = young.enumerate_diagrams(s + n_prime, d)
    t_mat = np.zeros((len(cost), len(nus)))
    for a, mu in enumerate(cost):
        for b, nu in enumerate(nus):
            acc = 0.0
            for lam, pl in p.items():
                c = lr_oracle.lr_coefficient(lam, mu, nu)
                if c:
                    acc += np.sqrt(pl) * c
            t_mat[a, b] = acc
    return cost, (t_mat / dims[:, None]) @ (t_mat / dims[:, None]).T


def _gap(lam):
    lam = young.pad(lam, 2)
    return lam[0] - lam[1]


def _strong_form_triangle_rule(s, n_prime):
    # independent d = 2 oracle: c^nu_{lam mu} is the SU(2) triangle rule
    # |g_mu - g_lam| <= g_nu <= g_mu + g_lam on row gaps g
    cost = rf.cost_set(2, n_prime - 1)
    p = rf.strong_combined_spec(2, s).weights
    g_nu = np.array([_gap(nu) for nu in young.enumerate_diagrams(s + n_prime, 2)])
    t_mat = np.zeros((len(cost), len(g_nu)))
    for lam, pl in p.items():
        for a, mu in enumerate(cost):
            lo, hi = abs(_gap(mu) - _gap(lam)), _gap(mu) + _gap(lam)
            t_mat[a] += np.sqrt(pl) * ((lo <= g_nu) & (g_nu <= hi))
    dims = np.array([_gap(mu) + 1 for mu in cost], dtype=float)
    return cost, (t_mat / dims[:, None]) @ (t_mat / dims[:, None]).T


@pytest.mark.parametrize(
    "d, s, n_prime",
    [(2, s, n) for s in (1, 5, 16, 64) for n in (2, 6)]
    + [(3, s, n) for s in (4, 12) for n in (2, 3, 4)],
)
def test_strong_form_bit_equal_to_triple_loop(d, s, n_prime):
    cost, q = rf.strong_fidelity_form(d, s, n_prime)
    cost_o, q_o = _strong_form_triple_loop(d, s, n_prime)
    assert cost == cost_o
    assert q.tobytes() == q_o.tobytes()


@pytest.mark.parametrize("s, n_prime", [(s, n) for s in (1, 2, 5, 16, 64) for n in (1, 2, 6)])
def test_strong_form_matches_su2_triangle_rule(s, n_prime):
    cost, q = rf.strong_fidelity_form(2, s, n_prime)
    cost_o, q_o = _strong_form_triangle_rule(s, n_prime)
    assert cost == cost_o
    assert np.abs(q - q_o).max() == 0.0


def test_min_overlap_eq30_shape_d3():
    # same bound shape at d=3 (factor d/2 = 3/2), in the regime M >= 4n'
    # where the interior set supports every shift
    n_prime = 3
    fits = []
    for big_m in (12, 16, 24):
        m = 3 * (3 * big_m + 1)
        spec = rf.weak_spec(3, m)
        assert paper_lattice(3, m)[0] == big_m
        eps = 1.0 - rf.min_overlap(spec, n_prime)
        main = 1.5 * (pi * n_prime / (big_m + 1)) ** 2
        fits.append((eps - main) * big_m**3)
    assert max(fits) < 60.0


def test_min_overlap_vacuous_below_interior_regime():
    # at small M the interior band and the extreme shift are incompatible
    # and the lower bound gives exactly zero: vacuous but honest
    spec = rf.weak_spec(3, 75)
    assert rf.min_overlap(spec, 3) == 0.0


def test_sampling_unsupported_dimension():
    spec = rf.strong_combined_spec(3, 2)
    with pytest.raises(NotImplementedError):
        rf.sample_relative_rotations(spec, 1, np.random.default_rng(0))
