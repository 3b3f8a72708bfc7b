"""Independent oracles and helpers shared by several test files.

rank_mod_prime is a numpy elimination over GF(p), a route that shares no
code with perdom's exact rational rank; the tests compare the two.  Over a
large prime the ranks agree on the small integer matrices the tests build.
"""

import math
from fractions import Fraction

import numpy as np

_NP_LIMIT = 2**31  # residues below this keep every int64 product exact


def _primitive(row) -> list[int]:
    """Clear denominators and divide by the gcd, so that reducing mod p does
    not lose a row whose entries share the factor p."""
    row = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rank_mod_prime(rows, p: int) -> int:
    """Rank over GF(p) of dense rows; a lower bound for the rational rank."""
    if p >= _NP_LIMIT:
        raise ValueError("prime too large for the int64 modular elimination")
    mat = [[x % p for x in _primitive(r)] for r in rows if any(r)]
    mat = [r for r in mat if any(r)]
    if not mat:
        return 0
    a = np.array(mat, dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if a[i, c]:
                sel = i
                break
        if sel is None:
            continue
        a[[rank, sel]] = a[[sel, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        col = a[rank + 1 :, c].copy()
        nz = np.nonzero(col)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz] - np.outer(col[nz], a[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def from_cycle(d: int, cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of 1..d sending cycle[j] to cycle[j+1], in one-line notation."""
    w = list(range(1, d + 1))
    for j, x in enumerate(cycle):
        w[x - 1] = cycle[(j + 1) % len(cycle)]
    return tuple(w)
