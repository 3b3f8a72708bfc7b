"""Subspace calculus over GF(q): echelon forms, lattice operations, enumeration.

A subspace is stored by its reduced row echelon basis, which is a canonical
form: two subspaces are equal iff their stored bases are identical tuples.
That makes SubspaceGF hashable and lets enumeration produce each subspace
exactly once without deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from ..errors import ConfigError
from .gf import FieldSpec
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


@dataclass(frozen=True)
class SubspaceGF:
    """A subspace of GF(q)^d in canonical (reduced echelon) form."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

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

    def is_subspace_of(self, other: "SubspaceGF") -> bool:
        return self.sum_with(other) == other

    def sum_with(self, other: "SubspaceGF") -> "SubspaceGF":
        self._check_compatible(other)
        return SubspaceGF.from_rows(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "SubspaceGF") -> "SubspaceGF":
        # Zassenhaus: in the echelon form of the rows (a | a) over (b | 0), a row
        # with its pivot in the right half reads (a + b | a) = (0 | a), a in both;
        # those right halves are the reduced echelon basis of the intersection.
        # The rows (b | 0) are already reduced, so clear their pivot columns
        # (each row's leading 1) from every (a | a) and echelon only those rows
        self._check_compatible(other)
        field, d = self.field, self.ambient_dim
        rows = []
        for a in self.basis:
            left = a
            for b in other.basis:
                f = left[b.index(1)]
                if f:
                    left = field.axpy(left, field.neg(f), b)
            rows.append((*left, *a))
        red, pivots = rref(field, rows)
        basis = tuple(row[d:] for row, c in zip(red, pivots) if c >= d)
        return SubspaceGF(field, d, basis)

    def extend_scalars(self, target: FieldSpec) -> "SubspaceGF":
        """Reinterpret the echelon basis over an extension of the prime field."""
        if not target.is_extension_of(self.field):
            if target == self.field:
                return self
            raise ConfigError(
                f"{target!r} is not an extension of {self.field!r} supported here"
            )
        # prime-field elements are the constants 0..p-1 in the extension,
        # and a reduced echelon basis stays reduced echelon under relabelling
        return SubspaceGF(target, self.ambient_dim, self.basis)

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


def _chains_within(field: FieldSpec, ambient_dim: int, span_rows, dims):
    """Chains of subspaces of the row space of span_rows, given in ambient
    coordinates, with prescribed increasing dims."""
    if not dims:
        yield ()
        return
    m = len(span_rows)
    k = dims[-1]
    for coord_rows in _rref_rows(field, m, k):
        amb_rows = mat_mul(field, coord_rows, span_rows)
        member = SubspaceGF.from_rows(field, ambient_dim, amb_rows)
        for prefix in _chains_within(field, ambient_dim, amb_rows, dims[:-1]):
            yield prefix + (member,)


def enumerate_chains(field: FieldSpec, d: int, dims: tuple[int, ...]):
    """All chains W_1 < W_2 < ... of subspaces of field^d with the given
    strictly increasing proper dimensions, each chain exactly once."""
    for dim in dims:
        if not 0 < dim < d:
            raise ConfigError(f"chain dimension {dim} must be proper in ambient {d}")
    if list(dims) != sorted(set(dims)):
        raise ConfigError("chain dimensions must be strictly increasing")
    full = SubspaceGF.full(field, d)
    yield from _chains_within(field, d, full.basis, tuple(dims))
