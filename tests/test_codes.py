import itertools

import numpy as np
import pytest

from covqec import channels as ch
from covqec import codes

from conftest import rotated_five_qubit_code


def apply(chan, rho):
    return sum(k @ rho @ k.conj().T for k in chan.kraus)


# ---------------------------------------------------------------------------
# flagged erasure oracle: erasure modelled literally on (C^{d+1})^n, with
# erased qudits replaced by an orthogonal flag level
# ---------------------------------------------------------------------------

def erase(n, d, pattern):
    """Erasure of the qudits in `pattern`: (C^d)^n -> (C^{d+1})^n.

    Unerased qudits are embedded (data levels 0..d-1); erased ones are
    traced out and replaced by the flag level d.
    """
    erased = sorted(set(int(i) for i in pattern))
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    flag = np.zeros(d + 1, dtype=complex)
    flag[d] = 1.0
    kraus = []
    for basis in itertools.product(range(d), repeat=len(erased)):
        op = np.ones((1, 1), dtype=complex)
        k = 0
        for site in range(n):
            if site in erased:
                op = np.kron(op, np.outer(flag, np.eye(d)[basis[k]]))
                k += 1
            else:
                op = np.kron(op, embed)
        kraus.append(op)
    return ch.KrausChannel(d**n, (d + 1) ** n, kraus)


def erasure_recovery(code, pattern):
    """Location-aware recovery on the flagged space, (C^{d+1})^n_p -> C^d.

    A strip stage per qudit (erased slots traced out; survivor flag
    amplitude recycled to level 0) followed by the survivor-space recovery.
    """
    d, n = code.d, code.n_p
    erased = sorted(set(int(i) for i in pattern))
    keep_data = np.zeros((d, d + 1), dtype=complex)
    keep_data[:, :d] = np.eye(d)
    flag_to_zero = np.zeros((d, d + 1), dtype=complex)
    flag_to_zero[0, d] = 1.0
    trace_out = [np.eye(d + 1, dtype=complex)[[lvl]] for lvl in range(d + 1)]
    slot_choices = [trace_out if site in erased else [keep_data, flag_to_zero] for site in range(n)]
    strip_kraus = []
    for combo in itertools.product(*slot_choices):
        op = combo[0]
        for f in combo[1:]:
            op = np.kron(op, f)
        strip_kraus.append(op)
    strip = ch.KrausChannel((d + 1) ** n, d ** (n - len(erased)), strip_kraus)
    rec = ch.KrausChannel(strip.dim_out, d, codes.recovery_on_survivors(code, erased))
    return ch.compose(rec, strip)


def flagged_composite(code, pattern):
    return ch.compose(
        erasure_recovery(code, pattern),
        ch.compose(erase(code.n_p, code.d, pattern), ch.KrausChannel(code.d, code.d ** code.n_p, [code.encoder])),
    )


# ---------------------------------------------------------------------------
# code constructions
# ---------------------------------------------------------------------------

def test_five_qubit_isometry():
    code = codes.five_qubit_code()
    v = code.encoder
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_five_qubit_codewords_orthogonal():
    v = codes.five_qubit_code().encoder
    assert abs(v[:, 0].conj() @ v[:, 1]) < 1e-12


def test_five_qubit_stabilizers_fix_codewords():
    code = codes.five_qubit_code()
    for g in ["xzzxi", "ixzzx", "xixzz", "zxixz"]:
        s = codes._pauli_string(g)
        assert np.max(np.abs(s @ code.encoder - code.encoder)) < 1e-12


def test_trivial_code():
    code = codes.trivial_code(2)
    assert np.allclose(code.encoder, np.eye(2))
    comp = codes.corrected_channel(code, set())
    assert ch.entanglement_fidelity(comp, ch.identity_channel(2)) == pytest.approx(1.0, abs=1e-12)


def test_trivial_code_single_erasure_destroys_everything():
    code = codes.trivial_code(2)
    comp = codes.corrected_channel(code, {0})
    # output is independent of the input; recovery dumps to I/2
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(apply(comp, rho0), apply(comp, rho1), atol=1e-12)
    assert ch.entanglement_fidelity(comp, ch.identity_channel(2)) == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# erase channel
# ---------------------------------------------------------------------------

def test_erase_no_pattern_is_embedding():
    chan = erase(2, 2, set())
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[0, 3] = 0.5
    rho[3, 0] = 0.5
    rho[3, 3] = 0.5  # |Phi+><Phi+|
    out = apply(chan, rho)
    # embedded support: levels {0,1} of each qutrit slot
    idx = [0 * 3 + 0, 1 * 3 + 1]
    sub = out[np.ix_(idx, idx)]
    assert np.allclose(sub, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
    assert np.trace(out) == pytest.approx(1.0)


def test_erase_all_gives_flag_product():
    chan = erase(2, 2, {0, 1})
    rho = np.full((4, 4), 0.25, dtype=complex)
    out = apply(chan, rho)
    flag_idx = 2 * 3 + 2
    assert out[flag_idx, flag_idx] == pytest.approx(1.0)


def test_erase_one_qubit_of_bell_pair():
    chan = erase(2, 2, {0})
    phi = ch.max_entangled_state(2)
    out = apply(chan, phi)
    # remaining (second) qubit maximally mixed, first slot flagged
    marg = out.reshape(3, 3, 3, 3)
    reduced = np.einsum("abad->bd", marg)
    assert np.allclose(reduced[:2, :2], np.eye(2) / 2, atol=1e-12)


def test_erased_marginal_carries_no_data():
    chan = erase(2, 2, {1})
    for vec in (np.array([1, 0, 0, 0]), np.array([0.5, 0.5, 0.5, 0.5])):
        rho = np.outer(vec, vec.conj()).astype(complex)
        out = apply(chan, rho)
        marg = np.einsum("abad->bd", out.reshape(3, 3, 3, 3))
        flag = np.zeros((3, 3))
        flag[2, 2] = 1.0
        assert np.allclose(marg, flag, atol=1e-12)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern", [set()] + [{i} for i in range(5)])
def test_five_qubit_corrects_single_erasures(pattern):
    code = codes.five_qubit_code()
    comp = codes.corrected_channel(code, pattern)
    assert ch.entanglement_fidelity(comp, ch.identity_channel(2)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("pattern", [set(p) for p in itertools.combinations(range(5), 2)])
def test_five_qubit_corrects_double_erasures(pattern):
    code = codes.five_qubit_code()
    comp = codes.corrected_channel(code, pattern)
    assert ch.entanglement_fidelity(comp, ch.identity_channel(2)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("pattern", [(), (0,), (0, 1), (0, 1, 2)])
def test_recovery_parts_off_support_basis(pattern):
    # orthonormal columns that every data Kraus annihilates, completing the
    # data support to the whole survivor space
    code = codes.five_qubit_code()
    data, off = codes.recovery_parts(code, pattern)
    dim_s = 2 ** (5 - len(pattern))
    assert off.shape[0] == dim_s
    assert np.allclose(off.conj().T @ off, np.eye(off.shape[1]), atol=1e-12)
    assert max(np.abs(r @ off).max(initial=0.0) for r in data) < 1e-12
    support = sum(r.conj().T @ r for r in data)
    assert np.allclose(support + off @ off.conj().T, np.eye(dim_s), atol=1e-10)


def _fresh_recovery_parts(code, pattern, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(codes, "_RECOVERY", {})
        return codes.recovery_parts(code, pattern)


def test_recovery_parts_memo_is_read_only_and_bit_identical(monkeypatch):
    # a hit returns the stored arrays, read-only, equal bit for bit to a
    # computation on an empty memo
    monkeypatch.setattr(codes, "_RECOVERY", {})
    code = codes.five_qubit_code()
    for pattern in [(), (0,), (1, 3), (0, 2, 4)]:
        first = codes.recovery_parts(code, pattern)
        again = codes.recovery_parts(codes.five_qubit_code(), tuple(reversed(pattern)))
        assert all(a is b for a, b in zip(first, again))
        for got, ref in zip(first, _fresh_recovery_parts(code, pattern, monkeypatch)):
            assert not got.flags.writeable
            assert np.array_equal(got, ref)
        with pytest.raises(ValueError, match="read-only"):
            first[0][...] = 0.0


def test_recovery_parts_memo_keys_on_the_encoder(monkeypatch):
    # the rotated code compares equal to the five-qubit CodeSpec, whose
    # encoder field is excluded from ==, yet must get its own entries
    monkeypatch.setattr(codes, "_RECOVERY", {})
    code, rotated = codes.five_qubit_code(), rotated_five_qubit_code()
    assert rotated == code
    for pattern in [(0,), (1, 2)]:
        plain = codes.recovery_parts(code, pattern)[0]
        got = codes.recovery_parts(rotated, pattern)[0]
        assert not np.allclose(got, plain)
        assert np.array_equal(got, _fresh_recovery_parts(rotated, pattern, monkeypatch)[0])


def test_recovery_parts_memo_stays_within_its_cap(monkeypatch):
    # past the cap the oldest entry goes first
    monkeypatch.setattr(codes, "_RECOVERY", {})
    monkeypatch.setattr(codes, "_RECOVERY_CAP", 3)
    code = codes.five_qubit_code()
    first = codes.recovery_parts(code, (0,))
    for i in range(1, 5):
        codes.recovery_parts(code, (i,))
        assert len(codes._RECOVERY) <= 3
    assert codes.recovery_parts(code, (0,))[0] is not first[0]
    assert len(codes._RECOVERY) == 3


def test_recovery_trace_preserving_beyond_distance():
    code = codes.five_qubit_code()
    rec = codes.recovery_on_survivors(code, {0, 1, 2})
    acc = sum(k.conj().T @ k for k in rec)
    assert np.allclose(acc, np.eye(2**2), atol=1e-9)


@pytest.mark.parametrize("pattern", [(), (0,), (0, 1), (0, 1, 2), (1, 3, 4)])
def test_recovery_stack_is_data_then_outer_product_completion(pattern):
    # the stack is the data Kraus followed by |l><v| / sqrt(d) for each
    # off-support column v (outer) and logical level l (inner), bit for bit
    code = codes.five_qubit_code()
    data, off = codes.recovery_parts(code, pattern)
    oracle = list(data) + [np.outer(level, v.conj()) / np.sqrt(code.d)
                           for v in off.T for level in np.eye(code.d)]
    rec = codes.recovery_on_survivors(code, pattern)
    assert rec.shape == (len(oracle), code.d, 2 ** (5 - len(pattern)))
    assert np.array_equal(rec, np.array(oracle))


def test_recovery_stack_shapes():
    code = codes.five_qubit_code()
    ms = codes.erased_restriction_kraus(code, (1, 3))
    assert ms.shape == (4, 8, 2) and ms.flags.c_contiguous
    assert not np.shares_memory(codes.erased_restriction_kraus(code, ()), code.encoder)
    data, off = codes.recovery_parts(code, (1, 3))
    assert data.shape == (4, 2, 8) and off.shape == (8, 0)
    assert len(codes.corrected_channel(code, (1, 3)).kraus) == 16


def test_recovery_rejects_a_non_trace_preserving_completion(monkeypatch):
    # drop one data Kraus operator: the recovery check must fire, also under -O
    parts = codes.recovery_parts
    monkeypatch.setattr(codes, "recovery_parts", lambda code, pattern: (
        parts(code, pattern)[0][1:], parts(code, pattern)[1]))
    with pytest.raises(RuntimeError, match="not trace preserving"):
        codes.recovery_on_survivors(codes.five_qubit_code(), (0,))


def test_code_error_builds_each_choi_once(monkeypatch):
    # the corrected channel's Choi and the identity's, for both eps_ent and the SDP
    calls = []
    choi = ch.KrausChannel.choi
    monkeypatch.setattr(ch.KrausChannel, "choi", lambda self: calls.append(len(self.kraus)) or choi(self))
    assert codes.code_error(codes.five_qubit_code(), (0, 1, 2)) > 0.1
    assert sorted(calls) == [1, 64]


@pytest.mark.parametrize(
    "pattern",
    [p for k in (0, 1, 2) for p in itertools.combinations(range(5), k)] + [(0, 1, 2), (0, 2, 4)],
)
def test_corrected_channel_matches_flagged_oracle(pattern):
    code = codes.five_qubit_code()
    survivor = codes.corrected_channel(code, pattern).choi().mat
    flagged = flagged_composite(code, pattern).choi().mat
    assert np.max(np.abs(survivor - flagged)) < 1e-12


def test_code_error_zero_on_correctable():
    code = codes.five_qubit_code()
    assert codes.code_error(code, {2}) <= 1e-8
    assert codes.code_error(code, set()) <= 1e-10


def test_code_error_three_erasures_vs_scan_oracle():
    # worst-case input scan over pure logical states gives a lower bound on
    # the diamond error; the SDP value must dominate it and stay in (0, 1]
    code = codes.five_qubit_code()
    pattern = {0, 1, 2}
    comp = codes.corrected_channel(code, pattern)
    err = codes.code_error(code, pattern)
    scan = 0.0
    for t in np.linspace(0, np.pi, 41):
        for p in np.linspace(0, 2 * np.pi, 41):
            psi = np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
            rho = np.outer(psi, psi.conj())
            scan = max(scan, 0.5 * ch.trace_norm(apply(comp, rho) - rho))
    assert 0.0 < err <= 1.0
    assert err >= scan - 1e-6
    # three erased qubits leak real information: the error is macroscopic
    assert err > 0.1


# the Bell basis (sigma (x) I)|Phi+> in the Choi ordering out (x) in: vec(sigma)/sqrt(2)
_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
_BELL = _PAULIS.reshape(4, 4).T / np.sqrt(2)


@pytest.mark.parametrize("make", [codes.five_qubit_code, rotated_five_qubit_code,
                                  lambda: codes.trivial_code(2)],
                         ids=["five_qubit", "rotated", "trivial"])
def test_corrected_channel_is_pauli_and_code_error_is_one_minus_p_identity(make):
    # on every pattern of at most three erasures the corrected channel is a
    # Pauli channel (Bell-diagonal Choi), so Phi+ is a worst input and its
    # diamond error is 1 - p_I: a closed-form oracle for the SDP, whose
    # programs here have real data and run in real arithmetic
    code = make()
    for k in range(min(3, code.n_p) + 1):
        for pattern in itertools.combinations(range(code.n_p), k):
            bell = _BELL.conj().T @ codes.corrected_channel(code, pattern).choi().mat @ _BELL
            off = bell - np.diag(np.diag(bell))
            assert np.max(np.abs(off)) <= 1e-12, pattern
            p_identity = bell[0, 0].real
            assert codes.code_error(code, set(pattern)) == pytest.approx(1.0 - p_identity, abs=1e-8)


def test_erase_qutrit():
    chan = erase(2, 3, {1})
    rho = np.zeros((9, 9), dtype=complex)
    rho[1, 1] = 1.0  # |0>|1>
    out = apply(chan, rho)
    # slot 0 keeps |0>, slot 1 flagged at level 3
    idx = 0 * 4 + 3
    assert out[idx, idx] == pytest.approx(1.0)
    assert np.trace(out) == pytest.approx(1.0)
