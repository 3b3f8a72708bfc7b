"""Independent oracles and helpers shared by several test files.

rank_mod_prime is a numpy elimination over GF(p), a route that shares no
code with perdom's exact rational rank; the tests compare the two.  Over a
large prime the ranks agree on the small integer matrices the tests build.
kernel_intersection is the kernel route to a subspace intersection over
GF(q), the one perdom used before its single-echelon (Zassenhaus) route.
containment_by_sum is the containment test perdom used before it listed
the subspaces inside each subspace: A lies in B iff A + B is B.
matrix_from_rows builds perdom's sparse MatrixQ from dense test rows.
count_points_every_flag and stalk_counts_every_flag classify every flag one
by one, as perdom did before it classified one flag per Frobenius orbit and
counted the flags under a certified largest member without building them;
count_points_every_flag also judges each flag through the induced type's
Fraction degree, not count_points' integer scaled degree.
dim_v_by_moebius is the 2^m-term Moebius sum over the supersets of a
reflection set, the route perdom took to a generalized Steinberg dimension
before it grouped the terms by their largest kept cut.
"""

import math
from itertools import combinations

import numpy as np

from perdom.cohomology import dim_induced
from perdom.complexes import stalk_report
from perdom.exactalg.rational import MatrixQ
from perdom.exactalg.subspaces import SubspaceGF, rref
from perdom.flagenum import CountReport, enumerate_flags, rational_subspaces
from perdom.slopes import induced_type

_NP_LIMIT = 2**31  # residues below this keep every int64 product exact


def _primitive(row) -> list[int]:
    """Divide by the gcd, so that reducing mod p does not lose a row whose
    entries share the factor p."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
        hits = rank + np.flatnonzero(a[rank:, c])
        if not hits.size:
            continue
        # pivot on the sparsest candidate row: less fill-in, ten times faster
        # on the 2080-column induction-complex maps
        sel = int(hits[np.argmin(np.count_nonzero(a[hits, c:], axis=1))])
        a[[rank, sel]] = a[[sel, rank]]
        # columns left of c are zero from row rank down, so only c: changes
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, c])
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[rank, c:])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_from_rows(dense) -> MatrixQ:
    """MatrixQ from nonempty dense rows of ints, all one length."""
    dense = [tuple(r) for r in dense]
    if not dense or any(len(r) != len(dense[0]) for r in dense):
        raise ValueError("need nonempty rows of one length")
    if not all(isinstance(x, int) for r in dense for x in r):
        raise TypeError("matrix entries must be int")
    entries = tuple({c: x for c, x in enumerate(r) if x} for r in dense)
    return MatrixQ(len(entries), len(dense[0]), entries)


def from_cycle(d: int, cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of 1..d sending cycle[j] to cycle[j+1], in one-line notation."""
    w = list(range(1, d + 1))
    for j, x in enumerate(cycle):
        w[x - 1] = cycle[(j + 1) % len(cycle)]
    return tuple(w)


def right_kernel(field, rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : rows . x = 0} (column-vector kernel)."""
    red, pivots = rref(field, rows) if rows else ((), ())
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(red[r][f])
        basis.append(tuple(vec))
    return tuple(basis)


def kernel_intersection(a: SubspaceGF, b: SubspaceGF) -> SubspaceGF:
    """A meet B from the coefficient vectors (c, c') with c.A + c'.B = 0,
    recombined as c.A and brought to echelon form."""
    field, d = a.field, a.ambient_dim
    stacked = a.basis + b.basis
    vecs = []
    for coeffs in right_kernel(field, tuple(zip(*stacked)), len(stacked)):
        vec = [0] * d
        for ci, row in zip(coeffs[: a.dim], a.basis):
            vec = [field.add(x, field.mul(ci, y)) for x, y in zip(vec, row)]
        vecs.append(tuple(vec))
    return SubspaceGF.from_rows(field, d, vecs)


def containment_by_sum(a: SubspaceGF, b: SubspaceGF) -> bool:
    """A inside B iff the canonical echelon basis of A + B is that of B."""
    return a.sum_with(b) == b


def count_points_every_flag(g, family, p: int, n: int) -> CountReport:
    """count_points without orbits: classify each flag of type g over GF(p^n)."""
    subspaces = rational_subspaces(p, g.d)
    total = in_y = 0
    for flag in enumerate_flags(g, p, n):
        total += 1
        if any(family.contains(induced_type(flag, u)) for u in subspaces):
            in_y += 1
    return CountReport(total=total, in_y=in_y, in_open=total - in_y)


def stalk_counts_every_flag(g, family, p: int, n: int) -> tuple[int, int, int]:
    """stalk_counts without orbits: one stalk report per flag."""
    flags = in_y = failed = 0
    for flag in enumerate_flags(g, p, n):
        rep = stalk_report(flag, family)
        flags += 1
        in_y += rep.in_y
        failed += not rep.passed
    return flags, in_y, failed


def dim_v_by_moebius(parabolic, q: int) -> int:
    """dim v_P: the sum, over the reflection sets J that contain P's, of
    (-1)^|J - P| times the number of partial flags of J's block type."""
    missing = parabolic.complement()
    total = 0
    for r in range(len(missing) + 1):
        for extra in combinations(missing, r):
            total += (-1) ** r * dim_induced(parabolic.union(extra), q)
    return total
