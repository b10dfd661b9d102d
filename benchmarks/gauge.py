"""A fixed reference kernel that measures how fast the host runs right now.

The host that runs this benchmark (a 2-core VM on a shared machine) runs
the same code up to ~1.5x slower for spells of seconds to minutes, with
no CPU steal to show for it: the process's CPU time grows with its wall
time.  The worker therefore times this kernel before the first op and
after every op of a pass, and divides each op's time by the mean of the
two readings around it.  The quotient is the op's cost in units of the
kernel, which the host's speed cancels out of; multiplied by ``REF_S``
it reads as seconds on a host running at reference speed.

The kernel mixes the four kinds of work the workloads spend their time
in: interpreter loops (the Monte Carlo shot loop), many numpy calls on
tiny complex matrices (the channel algebra), batched complex matmuls
over a working set larger than the L2 cache (the quadrature chunks of
``inner_channel``) and LAPACK on a mid-sized Hermitian matrix (the SDP
solver).  Contention from other tenants slows these by different
amounts; in a trial under load the sum of the four followed each op's
time about as well as the best single part for that op, or better.  The inputs are fixed and independent of the
workload seed, and the kernel calls nothing in covqec, so a change to
the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# About the median gauge reading on the 2-core reference host (Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  A constant: it only sets the
# scale of the scaled metrics.
REF_S = 0.032

_RNG = np.random.default_rng(20070915)
_SMALL = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(8)]
_BIG = _RNG.standard_normal((150, 150)) + 1j * _RNG.standard_normal((150, 150))
_BIG = _BIG + _BIG.conj().T
_BATCH = _RNG.standard_normal((2048, 16, 16)) + 1j * _RNG.standard_normal((2048, 16, 16))
_WEIGHTS = _RNG.random(2048)


def _kernel() -> float:
    s = 0.0
    table: dict = {}
    for i in range(40000):
        s += i * 0.5
        table[i & 255] = s
    for k in range(160):
        m = _SMALL[k % 8]
        s += float(np.linalg.eigvalsh(m + m.conj().T)[0]) + float((m @ m.conj().T).trace().real)
    prod = np.matmul(_BATCH, _BATCH)
    s += float(np.einsum("n,nab,nab->", _WEIGHTS, prod, prod.conj(), optimize=True).real)
    s += float(np.linalg.eigh(_BIG)[0][0])
    return s


def gauge() -> float:
    """Seconds one run of the kernel takes now: the faster of two runs back
    to back.  The first run after an op finds the kernel's arrays evicted
    by the op's own; the second finds them cached, as the reading before
    the first op of a pass does, so every reading is taken warm.  The
    faster of two also drops a spike shorter than a run."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


_kernel()  # first-call costs (lazy numpy/LAPACK set-up) stay out of every reading
