import math
import random
from fractions import Fraction

import pytest
import sympy

from perdom import complexes as cx
from perdom.errors import InternalCheckError
from oracles import matrix_from_rows, rank_mod_prime
from perdom.exactalg import rational
from perdom.exactalg.rational import chain_complex, mat_mul_exact, rational_rank
from perdom.weyl import parabolic_types


def rank(dense):
    return matrix_from_rows(dense).rank()


def integer_row(values) -> list[int]:
    """values, ints or Fractions, times the lcm of their denominators: the
    integer row spanning the same line, as MatrixQ holds int entries only."""
    values = [Fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def test_rank_basics():
    assert rank([[1, 1], [1, 1]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[3, 2], [9, 6]]) == 1  # (1/2, 1/3) and (3/2, 1), times 6


def test_identity_complex_has_no_homology():
    m = matrix_from_rows([[1]])
    c = chain_complex((1, 1), (m,))
    assert c.homology_dims() == (0, 0)


def test_kernel_dimension_complex():
    m = matrix_from_rows([[1, 1]])
    c = chain_complex((2, 1), (m,))
    assert c.homology_dims() == (1, 0)


def test_composition_nonzero_is_trapped():
    a = matrix_from_rows([[1, 0], [0, 1]])
    with pytest.raises(InternalCheckError):
        chain_complex((2, 2, 2), (a, a))


def test_shape_mismatch_rejected():
    a = matrix_from_rows([[1, 0]])
    with pytest.raises(ValueError):
        chain_complex((3, 1), (a,))


def sparse_signed_matrix(rng):
    """A 0/+-1 matrix with at most three entries per row, some rows planted
    as the negative of another row or the sum of two rows with disjoint
    supports (the shape of pullback and boundary matrices)."""
    rows, cols = rng.randrange(2, 16), rng.randrange(1, 16)
    mat = [[0] * cols for _ in range(rows)]
    for r in mat:
        for c in rng.sample(range(cols), min(cols, rng.randrange(1, 4))):
            r[c] = rng.choice((1, -1))
    for _ in range(rows // 3):
        i, j, k = (rng.randrange(rows) for _ in range(3))
        if all(x == 0 or y == 0 for x, y in zip(mat[i], mat[j])):
            mat[k] = [x + y for x, y in zip(mat[i], mat[j])]
        else:
            mat[k] = [-x for x in mat[i]]
    return mat


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy_on_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randrange(1, 8)
    cols = rng.randrange(1, 8)
    mat = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
    # plant a dependency now and then
    if rows >= 2 and rng.random() < 0.5:
        mat[-1] = [3 * x for x in mat[0]]
    for m in (mat, sparse_signed_matrix(rng)):
        expected = sympy.Matrix(m).rank()
        assert rank(m) == expected
        assert rank_mod_prime(m, 1_073_741_789) == expected


def test_rank_with_fractions_matches_sympy():
    rng = random.Random(99)
    mat = [
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(5)]
        for _ in range(4)
    ]
    assert rank([integer_row(r) for r in mat]) == sympy.Matrix(mat).rank()


def test_rank_survives_entry_growth():
    # the Hilbert matrix, scaled to integers, forces large intermediate entries
    n = 7
    scale = math.lcm(*range(1, 2 * n))
    mat = [[scale // (i + j + 1) for j in range(n)] for i in range(n)]
    assert rank(mat) == n
    mat[-1] = [sum(row[j] for row in mat[:-1]) for j in range(n)]
    assert rank(mat) == n - 1


def test_rank_handles_big_integer_entries():
    big = 10**30
    mat = [[big, big + 1], [1, 1]]
    assert rank(mat) == 2
    mat = [[big, 2 * big], [3, 6]]
    assert rank(mat) == 1


def test_mat_mul_exact_paths_agree():
    a = [[2, -1], [0, 3]]
    b = matrix_from_rows([[1, 4], [5, -2]])
    small = mat_mul_exact(matrix_from_rows(a), b)
    big = mat_mul_exact(matrix_from_rows([[x * 10**20 for x in r] for r in a]), b)
    assert small == matrix_from_rows([[-3, 10], [15, -6]])
    assert big == matrix_from_rows([[-3 * 10**20, 10**21], [15 * 10**20, -6 * 10**20]])


def euler_characteristic(dims) -> int:
    """Alternating sum of dimensions, term j in degree j - 1."""
    return sum((-1) ** (j - 1) * dim for j, dim in enumerate(dims))


def test_euler_characteristic_respects_offset():
    # every complex starts in degree -1, for its terms and for its homology
    m = matrix_from_rows([[1, 1]])
    c = chain_complex((2, 1), (m,))
    assert euler_characteristic(c.dims) == -2 + 1 == euler_characteristic(c.homology_dims())


def k_maps(d: int, q: int) -> list[tuple[dict, ...]]:
    """The rows of every map of the induction complex of every proper I0."""
    return [m.entries for i0 in parabolic_types(d) if not i0.is_full for m in cx.build_K(i0, q).maps]


@pytest.mark.parametrize("d,q", [(d, q) for d in (2, 3, 4) for q in (2, 3)])
def test_row_order_does_not_change_rank(d, q):
    # rational_rank takes rows last to first; rows[::-1] restores the old
    # first-to-last order, and the modular oracle shares no code with either
    for rows in k_maps(d, q):
        cols = 1 + max(c for row in rows for c in row)
        dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
        assert rational_rank(rows) == rational_rank(rows[::-1]) == rank_mod_prime(dense, 1_073_741_789)


def test_kcomplex_d4_rank_work_guard(monkeypatch):
    # last to first, the 12 maps of kcomplex --d 4 --q 3 take 15,194 row
    # reductions; first to last they take 220,695
    maps = k_maps(4, 3)
    assert len(maps) == 12
    calls = []
    reduce = rational._reduce
    monkeypatch.setattr(rational, "_reduce", lambda *args: calls.append(1) or reduce(*args))
    for rows in maps:
        rational_rank(rows)
    assert len(calls) <= 20_000


def test_primitive_divides_int_rows_and_returns_a_copy():
    row = {0: 6, 3: -4, 5: 10}
    out = rational._primitive(row)
    assert out == {0: 3, 3: -2, 5: 5} and row == {0: 6, 3: -4, 5: 10}
    coprime = {1: 3, 2: -5}
    out = rational._primitive(coprime)
    assert out == coprime and out is not coprime
    assert all(type(x) is int for x in out.values())


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_modular_oracle_on_int_fraction_and_mixed_rows(seed):
    # rows of each kind, some with a common factor or a planted dependency,
    # fraction and mixed rows scaled to integer rows; rank() must not edit
    # the matrix it reads
    rng = random.Random(seed)
    cols = rng.randrange(2, 9)
    dense = []
    for _ in range(rng.randrange(2, 9)):
        kind = rng.choice(("int", "fraction", "mixed"))
        scale = rng.choice((1, 2, 6, 10**12))
        row = [scale * rng.randrange(-4, 5) for _ in range(cols)]
        if kind != "int":
            row = integer_row(
                Fraction(x, rng.randrange(1, 7)) if kind == "fraction" or rng.random() < 0.5 else x
                for x in row
            )
        dense.append(row)
    if len(dense) >= 3:
        dense[-1] = [a + 3 * b for a, b in zip(dense[0], dense[1])]
    matrix = matrix_from_rows(dense)
    before = [dict(row) for row in matrix.entries]
    assert matrix.rank() == rank_mod_prime(dense, 1_073_741_789) == sympy.Matrix(dense).rank()
    assert [dict(row) for row in matrix.entries] == before
