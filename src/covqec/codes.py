"""Small exact erasure-correcting codes and location-aware recovery.

Erasure locations are known, so erasure is modelled on the surviving
qudits: the erased ones are traced out, and the noise output lives on
(C^d)^{(x) survivors} (`erased_restriction_kraus`).  Every Kraus family
here is one complex (K, d_out, d_in) array, as `KrausChannel` holds it.

Recovery for a known erasure pattern goes through the transpose (Petz)
channel of the erased-restriction map taken at the maximally mixed code
input.  For patterns below the code distance this inverts the noise
exactly; beyond the distance it degrades gracefully while staying trace
preserving (off-support weight is dumped to the maximally mixed logical
state).  Each pattern's completed recovery is built, checked and memoized
once per process (`recovery_on_survivors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .channels import KrausChannel, compose, entanglement_error, identity_channel

__all__ = [
    "CodeSpec",
    "five_qubit_code",
    "trivial_code",
    "recovery_on_survivors",
    "erased_restriction_kraus",
    "corrected_channel",
    "code_error",
]

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class CodeSpec:
    d: int
    n_p: int
    encoder: np.ndarray = field(compare=False)  # d^n_p x d isometry
    name: str = "code"
    distance: int = 1

    def __post_init__(self) -> None:
        v = np.asarray(self.encoder, dtype=complex)
        if v.shape != (self.d**self.n_p, self.d):
            raise ValueError("encoder has the wrong shape")
        if not np.max(np.abs(v.conj().T @ v - np.eye(self.d))) <= 1e-10:
            raise ValueError("encoder is not an isometry")


def _pauli_string(s: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in s:
        out = np.kron(out, _PAULI[c])
    return out


def five_qubit_code() -> CodeSpec:
    """The [[5, 1, 3]] stabilizer code; corrects any two erasures.

    Generators XZZXI, IXZZX, XIXZZ, ZXIXZ; logical operators are the
    transversal X and Z strings.
    """
    gens = ["xzzxi", "ixzzx", "xixzz", "zxixz"]
    proj = np.eye(32, dtype=complex)
    for g in gens:
        proj = proj @ (np.eye(32) + _pauli_string(g)) / 2
    zero = proj @ np.eye(32, dtype=complex)[:, 0]
    zero /= np.linalg.norm(zero)
    one = _pauli_string("xxxxx") @ zero
    encoder = np.stack([zero, one], axis=1)
    code = CodeSpec(2, 5, encoder, name="five_qubit", distance=3)
    checks = [(_pauli_string(g), _PAULI["i"]) for g in gens] + [(_pauli_string("zzzzz"), _PAULI["z"])]
    if not all(np.max(np.abs(op @ encoder - encoder @ logical)) < 1e-12 for op, logical in checks):
        raise RuntimeError("five-qubit encoder fails a stabilizer or its logical-Z check")
    return code


def trivial_code(d: int) -> CodeSpec:
    """Identity encoder on a single qudit (distance 1)."""
    return CodeSpec(d, 1, np.eye(d, dtype=complex), name="trivial", distance=1)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def erased_restriction_kraus(code: CodeSpec, pattern) -> np.ndarray:
    """Kraus stack (d^|pattern|, d^survivors, d) of the logical -> survivors
    map after erasing `pattern`.

    M_b = (<b|_erased (x) I_survivors) V for each erased-slot basis vector b.
    """
    erased = sorted(set(int(i) for i in pattern))
    if erased and (erased[0] < 0 or erased[-1] >= code.n_p):
        raise ValueError("pattern must address physical qudits")
    d, n = code.d, code.n_p
    v = code.encoder.reshape((d,) * n + (d,))
    survivors = [i for i in range(n) if i not in erased]
    perm = erased + survivors + [n]
    return np.array(np.transpose(v, perm).reshape(d ** len(erased), d ** len(survivors), d))


def _code_key(code: CodeSpec) -> tuple:
    """(d, n_p, encoder dtype, encoder bytes): the part of a per-code memo
    key that names the code, as a CodeSpec compares and hashes equal
    whatever its encoder."""
    return (code.d, code.n_p, code.encoder.dtype.str, code.encoder.tobytes())


def _memo_put(memo: dict, cap: int, key, value):
    """Store `value` at `key`, first dropping the oldest entry of a full memo."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


# completed recovery Kraus stacks by code key and erased set, oldest first;
# a stack depends on nothing else
_RECOVERY: dict = {}
_RECOVERY_CAP = 256


def _recovery_parts(code: CodeSpec, pattern) -> tuple[np.ndarray, np.ndarray]:
    """Data Kraus stack of the survivor-space recovery, and an orthonormal
    basis (columns) of the survivor space off their support, from one
    eigendecomposition.

    The data Kraus are the transpose channel of the erased restriction at
    the maximally mixed logical input, R_b = M_b^dag rho_out^{-1/2}/sqrt(d)
    on the support of rho_out; the recovery is completed off the support by
    dumping to the maximally mixed logical state (see recovery_on_survivors).
    """
    d = code.d
    ms = erased_restriction_kraus(code, pattern)
    ms_dag = ms.conj().transpose(0, 2, 1)
    rho_out = np.sum(ms @ ms_dag, axis=0) / d
    w, u = np.linalg.eigh(rho_out)
    keep = w > 1e-12
    inv_half = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    return (ms_dag @ inv_half) / np.sqrt(d), u[:, ~keep]


def recovery_on_survivors(code: CodeSpec, pattern) -> np.ndarray:
    """Kraus stack of the recovery map (C^d)^(survivors) -> logical.

    Exact inverse of the erasure whenever |pattern| < distance; beyond
    that a trace-preserving best effort.  The first d^|pattern| operators
    are the data Kraus of `_recovery_parts`; the completion follows them,
    |l><v| / sqrt(d) for each off-support basis vector v and logical level
    l, at index (v, l).

    The stack is memoized per process, so the exact channel's spectra,
    the Monte Carlo scorer and `corrected_channel` share one recovery per
    pattern: keyed on the encoder's bytes (`_code_key`), in a module memo
    of at most `_RECOVERY_CAP` entries that drops its oldest entry first.
    Its trace-preservation check runs once, when the stack is built.  The
    array returned is read-only and shared between callers.
    """
    key = _code_key(code) + (frozenset(int(i) for i in pattern),)
    kraus = _RECOVERY.get(key)
    if kraus is not None:
        return kraus
    d = code.d
    data, off = _recovery_parts(code, pattern)
    junk = np.eye(d)[None, :, :, None] * off.T.conj()[:, None, None, :] / np.sqrt(d)
    kraus = np.concatenate([data, junk.reshape(-1, d, len(off))])
    flat = kraus.reshape(-1, len(off))  # sum_k K^dag K = flat^dag flat
    if not np.max(np.abs(flat.conj().T @ flat - np.eye(len(off)))) < 1e-9:
        raise RuntimeError("survivor-space recovery is not trace preserving")
    kraus.setflags(write=False)
    return _memo_put(_RECOVERY, _RECOVERY_CAP, key, kraus)


def corrected_channel(code: CodeSpec, pattern) -> KrausChannel:
    """recover . erase . encode for a known pattern, as a map logical -> logical."""
    erase = erased_restriction_kraus(code, pattern)
    dim_s = erase.shape[1]
    return compose(
        KrausChannel(dim_s, code.d, recovery_on_survivors(code, pattern)),
        KrausChannel(code.d, dim_s, erase),
    )


def code_error(code: CodeSpec, pattern) -> float:
    """Worst-case error of recover . erase . encode against the identity.

    Below 1e-8, the diamond program's default tolerance, the certified
    bound eps_wc <= d eps_ent is returned without a solve.  Above it the
    diamond program runs; the transpose recovery makes the corrected
    channel unital, and for a stabilizer code Pauli, so for a qubit code
    its entanglement bracket closes, the program starts at its optimum
    (1 - p_I for a Pauli channel) and the solve certifies it after one
    iteration.
    """
    noisy = corrected_channel(code, pattern).choi()
    ident = identity_channel(code.d).choi()
    upper = code.d * entanglement_error(noisy, ident)
    if upper < 1e-8:
        return upper
    return sdp.diamond_error(noisy, ident)
