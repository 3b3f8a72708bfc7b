"""Exact linear algebra over the rationals.

Matrices are stored as sparse rows, one dict {column: nonzero int} per row.
rational_rank runs a fraction-free elimination on gcd-normalized rows, so
every arithmetic step is exact; no floating point anywhere.
"""

from __future__ import annotations

import math

from ..errors import InternalCheckError
from ..records import Record


def _primitive(row: dict) -> dict:
    """A new row: row divided by the gcd of its entries.  It is copied even
    when the gcd is 1, since `_reduce` edits the rows it gets in place."""
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else dict(row)


def _reduce(row: dict, pivot: dict, c: int) -> dict:
    """Clear column c of row with pivot, fraction-free: row <- a*row - m*pivot."""
    a, m = pivot[c], row[c]
    if m % a == 0:
        a, m = 1, m // a
    else:
        g = math.gcd(a, m)
        a, m = a // g, m // g
        row = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        x = row.get(k, 0) - m * v
        if x:
            row[k] = x
        else:
            del row[k]
    if a != 1:
        row = _primitive(row)
    return row


def rational_rank(rows) -> int:
    """Exact rank over Q of a matrix given as sparse rows {column: entry}.

    Each row is reduced against the pivot rows by its leading column until
    it vanishes or opens a new pivot column; a +-1 entry displaces a larger
    pivot so that most eliminations need no scaling.  Rows go last to first:
    the complexes number rows and columns in one point order, and first to
    last the leading columns pile fill-in onto a few pivots (kcomplex_d4's
    12 maps: 220,695 row reductions that way, 15,194 last to first).
    """
    pivots: dict[int, dict] = {}
    for row in reversed(rows):
        row = _primitive(row)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            if abs(row[c]) == 1 and abs(pivot[c]) != 1:
                pivots[c], row, pivot = row, pivot, row
            row = _reduce(row, pivot, c)
    return len(pivots)


class MatrixQ(Record):
    """Immutable exact matrix as sparse rows {column: nonzero int}."""

    def __init__(self, rows: int, cols: int, entries: tuple[dict, ...]):
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    def rank(self) -> int:
        return rational_rank(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)


def mat_mul_exact(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Exact sparse product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    out = []
    for row in a.entries:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b.entries[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return MatrixQ(a.rows, b.cols, tuple(out))


class ChainComplexQ(Record):
    """A finite cochain complex of exact matrices.

    Term j has dimension dims[j] and sits in degree j - 1; maps[j]
    sends term j to term j+1 and has shape (dims[j+1], dims[j]) acting on
    column vectors.  Validation checks shapes and that consecutive maps
    compose to zero.
    """

    def __init__(self, dims: tuple[int, ...], maps: tuple[MatrixQ, ...]):
        self.__dict__.update(dims=dims, maps=maps)

    def homology_dims(self) -> tuple[int, ...]:
        ranks = [m.rank() for m in self.maps]
        out = []
        for j, dim in enumerate(self.dims):
            below = ranks[j - 1] if j > 0 else 0
            above = ranks[j] if j < len(self.maps) else 0
            out.append(dim - below - above)
        return tuple(out)


def chain_complex(dims, maps) -> ChainComplexQ:
    """Build and validate a ChainComplexQ; raises on nonzero composition."""
    dims = tuple(dims)
    maps = tuple(maps)
    if len(maps) != max(len(dims) - 1, 0):
        raise ValueError("need exactly one map between consecutive terms")
    for j, m in enumerate(maps):
        if (m.rows, m.cols) != (dims[j + 1], dims[j]):
            raise ValueError(
                f"map {j} has shape {m.rows}x{m.cols}, expected {dims[j+1]}x{dims[j]}"
            )
    for j in range(len(maps) - 1):
        if not mat_mul_exact(maps[j + 1], maps[j]).is_zero():
            raise InternalCheckError(
                f"differentials {j} and {j+1} do not compose to zero"
            )
    return ChainComplexQ(dims, maps)

