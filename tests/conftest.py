"""Shared builders for channel-level tests, and the slow outcome-density oracle."""

import numpy as np
import pytest

from covqec import channels as ch
from covqec import codes
from covqec import sdp
from covqec import young


def _density_su2(spec, theta):
    """Vectorized SU(2) outcome density at rotation half-angles theta."""
    amps = np.sqrt(np.array([spec.weights[l] for l in spec.support()]))
    gaps = spec.gaps()
    # chi_lam carries a U(1) phase from the total box count, common to all
    # support diagrams (fixed m), so it cancels inside |.|^2
    acc = np.zeros_like(theta, dtype=float)
    for a, gap in zip(amps, gaps):
        acc = acc + a * young.su2_character(int(gap), theta)
    return acc**2


def rotated_five_qubit_code():
    """The five-qubit code with a fixed non-Clifford rotation on qubit 0.

    The rotation breaks the code's Z-parity structure, under which every
    z-weight difference f that contributes to one trace is the same mod 4."""
    code = codes.five_qubit_code()
    u0 = ch.su2_from_euler(0.3, 0.7, 1.1)
    return codes.CodeSpec(2, 5, np.kron(u0, np.eye(16)) @ code.encoder, code.name, code.distance)


def spin1_wigner(u):
    """3x3 irrep of SU(2) carried by the symmetric subspace of u (x) u."""
    iso = np.zeros((4, 3), dtype=complex)
    iso[0, 0] = 1.0
    iso[1, 1] = iso[2, 1] = 1 / np.sqrt(2)
    iso[3, 2] = 1.0
    return iso.conj().T @ np.kron(u, u) @ iso


def block_unitary(block_dims, u):
    """Direct sum of irrep images of u for blocks of dimension 1, 2 or 3."""
    mats = []
    for dim in block_dims:
        if dim == 1:
            mats.append(np.ones((1, 1), dtype=complex))
        elif dim == 2:
            mats.append(u)
        elif dim == 3:
            mats.append(spin1_wigner(u))
        else:
            raise ValueError("only block dimensions 1, 2, 3 are wired up")
    n = sum(block_dims)
    out = np.zeros((n, n), dtype=complex)
    o = 0
    for m in mats:
        k = m.shape[0]
        out[o:o + k, o:o + k] = m
        o += k
    return out


def block_covariant_choi(block_dims, weights, order=8):
    """Choi of int du p(u) V(u) . V(u)^dag with V = (+) U_lam and a
    conjugation-invariant density p(u) = |sum_k sqrt(w_k) chi_k(u)|^2.

    `weights` assigns probability to SU(2) gaps (0, 1, 2, ...); the
    quadrature order is chosen high enough that the construction is exact,
    so the resulting channel is exactly block-covariant.
    """
    quad = ch.haar_quadrature_su2(order)
    us = quad.matrices()
    theta = ch.su2_eigenphase(us)
    amp = np.zeros_like(theta, dtype=complex)
    for gap, w in weights.items():
        amp = amp + np.sqrt(w) * young.su2_character(gap, theta)
    dens = np.abs(amp) ** 2
    n = sum(block_dims)
    j = np.zeros((n * n, n * n), dtype=complex)
    for u, wq, p in zip(us, quad.weights, dens):
        v = block_unitary(block_dims, u).reshape(-1)
        j += (wq * p) * np.outer(v, v.conj())
    return ch.ChoiMatrix(n, n, j / n)


def standard_program(sizes, objective, rows):
    """An SDP written straight into `sdp._zero_program`'s arrays: named
    blocks of the given sizes, the objective {block: C_j} and the equality
    rows ({block: A_kj}, b_k), each coefficient's Hermitian part set at its
    block's span."""
    prog = sdp._zero_program(sizes, len(rows))
    for out, coeffs in zip([prog.C, *prog.A3], [objective, *(c for c, _ in rows)]):
        for name, a in coeffs.items():
            out[prog.spans[name], prog.spans[name]] = sdp._hermitize(np.asarray(a, dtype=complex))
    prog.b[:] = [rhs for _, rhs in rows]
    return prog


def assert_strictly_feasible(prog):
    """The program's start (X, y): A(X) = b to round-off, and X and
    Z = C - A^T y Hermitian, positive definite on every block and zero off
    the blocks."""
    X, y = prog.start
    m, total = len(prog.b), len(prog.C)
    A = prog.A3.reshape(m, -1)
    residual = prog.b - (A.conj() @ X.reshape(-1)).real
    assert np.linalg.norm(residual) <= 1e-12 * (1 + np.linalg.norm(prog.b))
    Z = prog.C - (y @ A).reshape(total, total)
    off_blocks = np.ones((total, total), dtype=bool)
    for sl in prog.spans.values():
        off_blocks[sl, sl] = False
    for mat in (X, Z):
        assert np.array_equal(mat, mat.conj().T)
        assert not mat[off_blocks].any()
        for sl in prog.spans.values():
            assert np.linalg.eigvalsh(mat[sl, sl]).min() > 0


def generic_diamond_program(choi_a, choi_b):
    """sdp._diamond_program with its entanglement bracket never closing, so
    it starts at Y = c I, as every program whose bracket stays open."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_BRACKET_TOL", -1.0)
        return sdp._diamond_program(choi_a, choi_b)


def assert_starts_at_optimum(choi_a, choi_b, value):
    """The diamond program of (A, B) starts strictly feasible (see
    assert_strictly_feasible) at its optimum, with |A(X) - b| <= 1e-13, and
    its solve certifies it after one iteration: the diamond error is within
    1e-12 of `value` and within 1e-8 of the same program solved from the
    generic start."""
    prog = sdp._diamond_program(choi_a, choi_b)
    assert_strictly_feasible(prog)
    A = prog.A3.reshape(len(prog.b), -1)
    assert np.abs(prog.b - (A.conj() @ prog.start[0].reshape(-1)).real).max() <= 1e-13
    res = sdp.solve(prog)
    assert (res.status, res.iterations) == ("optimal", 1)
    generic = sdp.solve(generic_diamond_program(choi_a, choi_b))
    assert generic.status == "optimal" and generic.iterations > 1
    assert abs(res.value - generic.value) / 2 <= 1e-8
    assert abs(res.value / 2 - value) <= 1e-12


def assert_keeps_generic_start(choi_a, choi_b):
    """An open bracket: the diamond program of (A, B), its start included,
    and its solve are bit for bit those of the generic start."""
    prog, generic = sdp._diamond_program(choi_a, choi_b), generic_diamond_program(choi_a, choi_b)
    assert prog.b.tobytes() == generic.b.tobytes()
    assert all(x.tobytes() == g.tobytes() for x, g in zip(prog.start, generic.start))
    want, got = sdp.solve(generic), sdp.solve(prog)
    assert (want.value, want.gap, want.status, want.iterations) == \
        (got.value, got.gap, got.status, got.iterations)
    assert got.iterations > 1
    assert all(want.blocks[n].tobytes() == got.blocks[n].tobytes() for n in want.blocks)
