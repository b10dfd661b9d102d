"""Test-only oracle for `young.tensor_decompose`: Littlewood-Richardson
coefficients by backtracking over the cells of one skew shape.

Independent of the strip-by-strip enumeration it checks: it fills nu/lam
cell by cell in reverse reading order (rows top to bottom, cells right to
left) and tests the row, column and lattice conditions on each cell.
"""

from covqec import young


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lam, mu}.

    Counts LR skew tableaux of shape nu/lam and content mu: semistandard
    fillings whose reverse reading word is a lattice word.  Zero whenever
    the box counts do not match or nu does not contain lam.
    """
    lam, mu, nu = young.normalize(lam), young.normalize(mu), young.normalize(nu)
    if young.boxes(lam) + young.boxes(mu) != young.boxes(nu):
        return 0
    rows = len(nu)
    lam_p = lam + (0,) * (rows - len(lam))
    if len(lam) > rows or any(nu[i] < lam_p[i] for i in range(rows)):
        return 0
    if not mu:
        return 1
    n_mu = len(mu)
    cells = [(r, c) for r in range(rows) for c in range(nu[r] - 1, lam_p[r] - 1, -1)]
    filling = {}
    counts = [0] * (n_mu + 1)
    total = 0

    def rec(i):
        nonlocal total
        if i == len(cells):
            total += 1
            return
        r, c = cells[i]
        hi = filling.get((r, c + 1), n_mu)            # row weakly increasing
        above = filling.get((r - 1, c))               # column strictly increasing
        lo = 1 if above is None else above + 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:  # lattice word condition
                continue
            filling[(r, c)] = v
            counts[v] += 1
            rec(i + 1)
            counts[v] -= 1
            del filling[(r, c)]

    rec(0)
    return total


def decompose(lam, mu, d):
    """{nu: c^nu_{lam,mu}} over every diagram nu of |lam| + |mu| boxes and
    at most d rows, each coefficient counted by `lr_coefficient`."""
    n = young.boxes(lam) + young.boxes(mu)
    out = {}
    for nu in young.enumerate_diagrams(n, d):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out
