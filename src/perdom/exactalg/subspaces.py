"""Subspace calculus over GF(q): echelon forms, lattice operations, enumeration.

A subspace is stored by its reduced row echelon basis, which is a canonical
form: two subspaces are equal iff their stored bases are identical tuples.
That makes SubspaceGF hashable and lets enumeration produce each subspace
exactly once without deduplication.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from ..errors import ConfigError
from ..records import Record, setfield
from .gf import FieldSpec, make_field
from .qcount import q_binomial


def rref(field: FieldSpec, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for sel in range(r, nrows):
            if mat[sel][c]:
                break
        else:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        # rows r.. are zero left of column c, so only columns c.. change
        piv = mat[r][c:] = field.scale(field.inv(mat[r][c]), mat[r][c:])
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i][c:] = field.axpy(mat[i][c:], field.neg(f), piv)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _reduce(field: FieldSpec, row, basis):
    """row minus its components along a reduced echelon basis: each basis row
    clears its pivot column (its leading 1), so the result is zero iff row lies
    in the span."""
    for b in basis:
        f = row[b.index(1)]
        if f:
            row = field.axpy(row, field.neg(f), b)
    return row


def mat_mul(field: FieldSpec, a, b) -> tuple[tuple[int, ...], ...]:
    """Product of matrices with entries in `field` (rows of tuples)."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                acc = field.axpy(acc, x, brow)
        out.append(tuple(acc))
    return tuple(out)


class SubspaceGF(Record):
    """A subspace of GF(q)^d in canonical (reduced echelon) form."""

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: tuple[tuple[int, ...], ...]):
        setfield(self, "field", field)
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "basis", basis)

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient_dim: int, rows) -> "SubspaceGF":
        red, _ = rref(field, rows)
        return cls(field, ambient_dim, red)

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "SubspaceGF":
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(field, ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compatible(self, other: "SubspaceGF"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ConfigError("subspace operation across different ambients")

    def sum_with(self, other: "SubspaceGF") -> "SubspaceGF":
        self._check_compatible(other)
        return SubspaceGF.from_rows(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "SubspaceGF") -> "SubspaceGF":
        # Zassenhaus: in the echelon form of the rows (a | a) over (b | 0), a row
        # with its pivot in the right half reads (a + b | a) = (0 | a), a in both;
        # those right halves are the reduced echelon basis of the intersection.
        # The rows (b | 0) are already reduced, so reduce the left half of every
        # (a | a) against them and echelon only those rows
        self._check_compatible(other)
        field, d = self.field, self.ambient_dim
        rows = [(*_reduce(field, a, other.basis), *a) for a in self.basis]
        red, pivots = rref(field, rows)
        basis = tuple(row[d:] for row, c in zip(red, pivots) if c >= d)
        return SubspaceGF(field, d, basis)

    def sort_key(self):
        return (self.dim, self.basis)


def _rref_rows(field: FieldSpec, d: int, k: int):
    """Yield every reduced echelon basis of a k-subspace of field^d once."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(d), k):
        free_pos = []
        pivot_set = set(pivots)
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, d):
                if c not in pivot_set:
                    free_pos.append((r, c))
        for values in product(range(field.order), repeat=len(free_pos)):
            rows = [[0] * d for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_pos, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def enumerate_subspaces(field: FieldSpec, d: int, dim: int) -> tuple[SubspaceGF, ...]:
    """All dim-dimensional subspaces of field^d, canonically ordered."""
    if not 0 <= dim <= d:
        raise ConfigError(f"dimension {dim} out of range for ambient {d}")
    out = tuple(
        sorted(
            (SubspaceGF(field, d, rows) for rows in _rref_rows(field, d, dim)),
            key=SubspaceGF.sort_key,
        )
    )
    assert len(out) == q_binomial(d, dim, field.order)
    return out


@lru_cache(maxsize=None)
def rational_subspaces(p: int, d: int) -> tuple[SubspaceGF, ...]:
    """All proper nonzero subspaces of GF(p)^d, canonically ordered."""
    field = make_field(p, 1)
    out: list[SubspaceGF] = []
    for dim in range(1, d):
        out.extend(enumerate_subspaces(field, d, dim))
    return tuple(out)


@lru_cache(maxsize=None)
def rational_positions(p: int, d: int) -> dict:
    """The position of each proper nonzero subspace of GF(p)^d in
    `rational_subspaces(p, d)`, keyed by its basis."""
    return {u.basis: i for i, u in enumerate(rational_subspaces(p, d))}


@lru_cache(maxsize=None)
def _coordinate_rows(field: FieldSpec, m: int, k: int) -> tuple:
    """Every reduced echelon basis of a k-subspace of field^m, built once."""
    return tuple(_rref_rows(field, m, k))


@lru_cache(maxsize=None)
def _subspace_index(field: FieldSpec, d: int, c: int) -> dict:
    """The index of each c-subspace of field^d in `enumerate_subspaces`,
    keyed by its basis."""
    return {u.basis: i for i, u in enumerate(enumerate_subspaces(field, d, c))}


@lru_cache(maxsize=None)
def subspaces_within(field: FieldSpec, d: int, k: int, i: int, c: int) -> tuple[int, ...]:
    """The ascending indices in `enumerate_subspaces(field, d, c)` of the
    c-subspaces of the i-th k-subspace W of field^d.  A reduced echelon
    coordinate matrix times W's basis is a reduced echelon basis, so each is
    looked up as built; only dims c and k of field^d are ever enumerated."""
    basis = enumerate_subspaces(field, d, k)[i].basis
    index = _subspace_index(field, d, c)
    coordinates = _coordinate_rows(field, k, c)
    return tuple(sorted(index[mat_mul(field, rows, basis)] for rows in coordinates))


def _chains_within(field: FieldSpec, ambient_dim: int, span_rows, dims, expand=None, state=None):
    """Chains of subspaces of the row space of span_rows, given in ambient
    coordinates, with prescribed increasing dims, largest member first.
    span_rows is reduced echelon, and a full-rank reduced echelon coordinate
    matrix times it is again reduced echelon, so each member's basis is
    canonical as built.  In the whole space the members are their own
    coordinate rows and stream (at the field order bound there can be about
    10^6 of them); inner levels build their coordinate rows once per
    (field, m, k).  Given `expand`, expand(member, state) gets the state of
    the node above and returns the state for the members below, or None to
    leave out every chain through the member."""
    if not dims:
        yield ()
        return
    m, k = len(span_rows), dims[-1]
    whole = m == ambient_dim
    for coords in _rref_rows(field, m, k) if whole else _coordinate_rows(field, m, k):
        basis = coords if whole else mat_mul(field, coords, span_rows)
        member = SubspaceGF(field, ambient_dim, basis)
        below = state if expand is None else expand(member, state)
        if expand is None or below is not None:
            for prefix in _chains_within(field, ambient_dim, basis, dims[:-1], expand, below):
                yield prefix + (member,)


def enumerate_chains(field: FieldSpec, d: int, dims: tuple[int, ...], expand=None):
    """All chains W_1 < W_2 < ... of subspaces of field^d with the given
    strictly increasing proper dimensions, each chain exactly once; given
    `expand`, only those through members it returns a state for (see
    `_chains_within`; a largest member gets state None)."""
    for dim in dims:
        if not 0 < dim < d:
            raise ConfigError(f"chain dimension {dim} must be proper in ambient {d}")
    if list(dims) != sorted(set(dims)):
        raise ConfigError("chain dimensions must be strictly increasing")
    full = SubspaceGF.full(field, d)
    yield from _chains_within(field, d, full.basis, tuple(dims), expand)
