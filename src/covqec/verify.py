"""CI-scale invariant checks behind the `covqec verify` command.

Each check is a quick, self-contained verification of one module
invariant; the registry mirrors the property suites of the test tree at
sizes that keep the default run within a few minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from . import channels as ch
from . import refframe as rf
from . import sdp, young


@dataclass
class CheckResult:
    module: str
    name: str
    passed: bool
    witness: str = ""


def _random_channel(rng, d, n_kraus=3):
    a = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(a)
    return ch.KrausChannel(d, d, q.reshape(n_kraus, d, d))


def _check(module, name, passed, witness=""):
    return CheckResult(module, name, bool(passed), witness if not passed else "")


def _rep_checks():
    out = []
    ok = True
    witness = ""
    for d in (2, 3):
        for nl in range(0, 5):
            for nm in range(0, 4):
                for lam in young.enumerate_diagrams(nl, d):
                    for mu in young.enumerate_diagrams(nm, d):
                        dec = young.tensor_decompose(lam, mu, d)
                        lhs = sum(c * young.weyl_dimension(nu, d) for nu, c in dec.items())
                        rhs = young.weyl_dimension(lam, d) * young.weyl_dimension(mu, d)
                        if lhs != rhs:
                            ok, witness = False, f"{lam} x {mu} at d={d}: {lhs} != {rhs}"
    out.append(_check("rep", "tensor dimension identity", ok, witness))

    ok = True
    witness = ""
    for d in (2, 3):
        for s in range(1, 9):
            total = sum(young.schur_weyl_prob(l, s, d) for l in young.enumerate_diagrams(s, d))
            if total != Fraction(1):
                ok, witness = False, f"d={d}, s={s}: sum={total}"
    out.append(_check("rep", "Schur-Weyl normalization (exact)", ok, witness))

    lam = (60, 20)
    total = sum(
        young.correlation_count(lam, (lam[0] + t, lam[1] - t), (2,), (1, 1), 2)
        for t in range(-4, 5)
    )
    out.append(_check("rep", "correlation shift identity", total == 3, f"sum={total}"))

    quad = ch.haar_quadrature_su2(8)
    theta = ch.su2_eigenphase(quad.matrices())
    worst = 0.0
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            val = quad.integrate(young.su2_character(g1, theta) * young.su2_character(g2, theta))
            worst = max(worst, abs(val - (1.0 if g1 == g2 else 0.0)))
    out.append(_check("rep", "character orthonormality (quadrature)", worst < 1e-8, f"worst={worst:.2e}"))
    return out


def _refframe_checks():
    out = []
    ok, witness = True, ""
    for d, m in ((2, 10), (2, 22), (3, 30)):
        spec = rf.weak_spec(d, m)
        if len(spec.weights) != (rf._weak_lattice(d, m)[0] + 1) ** (d - 1):
            ok, witness = False, f"support size at d={d}, m={m}"
        if abs(sum(spec.weights.values()) - 1) > 1e-12:
            ok, witness = False, f"normalization at d={d}, m={m}"
    out.append(_check("refframe", "weak spec support and normalization", ok, witness))

    spec = rf.weak_spec(2, 10)
    g_max = 2 * int(spec.gaps().max())
    quad = ch.haar_quadrature_su2(g_max + 2)  # exact for p chi_g, g <= g_max
    theta = ch.su2_eigenphase(quad.matrices())
    dens = sum(np.sqrt(spec.weights[lam]) * young.su2_character(int(gap), theta)
               for lam, gap in zip(spec.support(), spec.gaps())) ** 2
    ref = [quad.integrate(dens * young.su2_character(g, theta)) for g in range(g_max + 1)]
    worst = float(np.max(np.abs(rf.class_coefficients(spec, g_max) - ref)))
    out.append(_check("refframe", "class coefficients = int p chi_g (quadrature)", worst < 1e-10,
                      f"worst={worst:.1e}"))

    worst = 0.0
    for big_m in (20, 101):
        for delta in (0, 3):
            for n_lo in (0, 5):
                if n_lo + delta > big_m - n_lo:
                    continue
                diff = abs(rf.appendix_e_sum(big_m, delta, n_lo) - rf.appendix_e_closed_form(big_m, delta, n_lo))
                worst = max(worst, diff)
    out.append(_check("refframe", "g-sum closed form", worst < 1e-12, f"worst={worst:.2e}"))

    vals = [rf.min_overlap(rf.weak_spec(2, m), 6) for m in (49, 97)]
    out.append(_check("refframe", "min_overlap improves with m", vals[1] > vals[0], f"{vals}"))
    return out


def _channels_checks():
    rng = np.random.default_rng(42)
    out = []
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        sig = b @ b.conj().T
        sig /= np.trace(sig)
        f = ch.uhlmann_fidelity(rho, sig)
        t = 0.5 * ch.trace_norm(rho - sig)
        worst = max(worst, (1 - np.sqrt(f)) - t, t - np.sqrt(1 - f))
    out.append(_check("channels", "Fuchs-van de Graaf", worst < 1e-9, f"worst={worst:.2e}"))

    ok, witness = True, ""
    for a in (0.0, 0.3, 0.9):
        back = ch.covariant_params(ch.covariant_choi(ch.CovariantParams(2, a))).a
        if abs(back - a) > 1e-12:
            ok, witness = False, f"a={a} -> {back}"
    out.append(_check("channels", "covariant roundtrip", ok, witness))

    worst = 0.0
    quad = ch.haar_quadrature_su2(4)
    us = quad.matrices()
    for _ in range(20):
        n = _random_channel(rng, 2)
        j = n.choi().mat
        acc = np.zeros_like(j)
        for u, w in zip(us, quad.weights):
            k = np.kron(u, u.conj())
            acc += w * (k @ j @ k.conj().T)
        a_quad = ch.covariant_params(ch.ChoiMatrix(2, 2, acc), tol=1e-6).a
        worst = max(worst, abs(1 - ch.entanglement_fidelity(n, ch.identity_channel(2)) - a_quad))
    out.append(_check("channels", "twirl equals quadrature twirl", worst < 1e-6, f"worst={worst:.2e}"))
    return out


def sdp_checks(pairs: int = 15, seed: int = 5):
    """The SDP battery of `verify` and `sdp-check`: sqrt(F_wc) against the
    depolarizing closed form, and the diamond bracket on `pairs` random pairs."""
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for p in (0.1, 0.2, 0.4, 0.6, 0.8):
        f = sdp.sqrt_fwc(ch.identity_channel(2).choi(), ch.depolarizing_channel(p).choi())
        worst = max(worst, abs(f - np.sqrt(1 - 3 * p / 4)))
    out.append(_check("sdp", "fidelity SDP vs covariant closed form", worst < 1e-6, f"worst={worst:.2e}"))

    ok, witness = True, ""
    for _ in range(pairs):
        a, b = _random_channel(rng, 2), _random_channel(rng, 2)
        lo = ch.entanglement_error(a, b)
        eps = sdp.diamond_error(a.choi(), b.choi())
        if not (lo - 1e-6 <= eps <= 2 * lo + 1e-6):
            ok, witness = False, f"eps={eps}, eps_ent={lo}"
    out.append(_check("sdp", f"diamond error brackets on {pairs} random pairs", ok, witness))
    return out


def _codes_checks():
    import itertools

    from . import codes

    out = []
    code = codes.five_qubit_code()
    worst = 0.0
    for k in (1, 2):
        for pattern in itertools.combinations(range(5), k):
            comp = codes.corrected_channel(code, pattern)
            worst = max(worst, 1 - ch.entanglement_fidelity(comp, ch.identity_channel(2)))
    out.append(_check("codes", "five-qubit code corrects <= 2 erasures", worst < 1e-9, f"worst={worst:.2e}"))
    return out


def _protocol_checks():
    from . import codes
    from . import protocol as pr

    out = []
    code = codes.five_qubit_code()
    spec = rf.weak_spec(2, 8)
    mass = pr.inner_channel(code, [spec], [set()])[1]["normalization"]
    out.append(_check("protocol", "inner frame mass C_0 = sum q", abs(mass - 1) < 1e-10, f"mass={mass}"))
    cfg = pr.ProtocolConfig(2, "weak", code, n_e=1, m=8, pattern_dist="exact_ne",
                            mc_samples=1500, seed=11)
    rep = pr.effective_channel(cfg)
    a_sum = sum(t.probability * t.params.a for t in rep.terms)
    out.append(_check("protocol", "mixture additivity", abs(rep.mixture.a - a_sum) < 1e-10))
    est, err = pr.monte_carlo_epsilon(cfg)
    sig = abs(est - rep.mixture.a) / max(err, 1e-12)
    out.append(_check("protocol", "Monte Carlo vs exact channel (3 sigma)", sig < 3, f"{sig:.2f} sigma"))
    return out


def _bounds_checks():
    out = []
    h = bounds_mod.Hamiltonian.balanced_qubit()
    ok = all(
        bounds_mod.lemma4_lower(h.delta, bounds_mod.fisher_upper_weak(n, k, h).value).value
        == bounds_mod.prop1_lower(n, k).value
        for n in (10, 100)
        for k in (1, 3)
    )
    out.append(_check("bounds", "weak Fisher chain closes", ok))

    r0, r1 = bounds_mod.kraus_zero_check(2, 1, h, 0.3)
    out.append(_check("bounds", "Kraus zero identity", max(r0, r1) < 1e-9, f"residuals=({r0:.1e},{r1:.1e})"))

    ok, witness = True, ""
    for d in (2, 3):
        for n_r in range(2, 31, 2):
            exact, bound = bounds_mod.compression_dims(d, n_r)
            if exact > bound:
                ok, witness = False, f"d={d}, n_r={n_r}"
    out.append(_check("bounds", "compression exact <= bound", ok, witness))
    return out


_REGISTRY = {
    "rep": _rep_checks,
    "refframe": _refframe_checks,
    "channels": _channels_checks,
    "sdp": sdp_checks,
    "codes": _codes_checks,
    "protocol": _protocol_checks,
    "bounds": _bounds_checks,
}


def run(only: str | None = None) -> list[CheckResult]:
    """Results of every registered module's checks, or of module `only`."""
    modules = [only] if only else list(_REGISTRY)
    if only and only not in _REGISTRY:
        raise ValueError(f"unknown module {only!r}; choose from {sorted(_REGISTRY)}")
    results = []
    for mod in modules:
        results.extend(_REGISTRY[mod]())
    return results
