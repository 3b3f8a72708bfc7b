import random

import pytest

from oracles import kernel_intersection
from perdom.errors import ConfigError
from perdom.exactalg.gf import make_field
from perdom.exactalg.qcount import q_binomial, q_multinomial
from perdom.exactalg.subspaces import (
    SubspaceGF,
    enumerate_chains,
    enumerate_subspaces,
    rref,
)


def gaussian_oracle(d, k, q):
    """Independent product-formula count of k-subspaces of GF(q)^d."""
    num = den = 1
    for i in range(k):
        num *= q**d - q**i
        den *= q**k - q**i
    return num // den if k else 1


def span(field, d, rows):
    return SubspaceGF.from_rows(field, d, rows)


def e_basis(d, *indices):
    return tuple(tuple(1 if c == i - 1 else 0 for c in range(d)) for i in indices)


def test_rref_is_canonical_under_row_shuffles():
    rng = random.Random(7)
    f = make_field(3, 1)
    for _ in range(50):
        rows = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(3)]
        red, _ = rref(f, rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        red2, _ = rref(f, shuffled)
        assert red == red2


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumeration_counts_match_gaussian_binomials(d, q):
    f = make_field(q, 1)
    for k in range(d + 1):
        subs = enumerate_subspaces(f, d, k)
        assert len(subs) == gaussian_oracle(d, k, q) == q_binomial(d, k, q)
        assert len(set(subs)) == len(subs)


def test_zero_dim_is_the_zero_subspace():
    f = make_field(5, 1)
    assert enumerate_subspaces(f, 3, 0) == (SubspaceGF(f, 3, ()),)


def test_coordinate_plane_intersection_in_dim_four():
    f = make_field(2, 1)
    a = span(f, 4, e_basis(4, 1, 2))
    b = span(f, 4, e_basis(4, 2, 3))
    assert a.intersect(b) == span(f, 4, e_basis(4, 2))


def test_two_distinct_planes_in_dim_three_meet_in_a_line():
    f = make_field(2, 1)
    planes = enumerate_subspaces(f, 3, 2)
    for a in planes:
        for b in planes:
            if a != b:
                assert a.intersect(b).dim == 1


def test_idempotence():
    f = make_field(3, 1)
    for a in enumerate_subspaces(f, 3, 2):
        assert a.sum_with(a) == a
        assert a.intersect(a) == a


@pytest.mark.parametrize("d,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_modular_dimension_law_all_pairs(d, q):
    f = make_field(q, 1)
    all_subs = [s for k in range(d + 1) for s in enumerate_subspaces(f, d, k)]
    for a in all_subs:
        for b in all_subs:
            s = a.sum_with(b)
            i = a.intersect(b)
            assert s.dim + i.dim == a.dim + b.dim
            assert i.is_subspace_of(a) and i.is_subspace_of(b)
            assert a.is_subspace_of(s) and b.is_subspace_of(s)


def test_ambient_mismatch_rejected():
    f = make_field(2, 1)
    with pytest.raises(ConfigError):
        span(f, 3, e_basis(3, 1)).sum_with(span(f, 4, e_basis(4, 1)))


def test_extend_scalars_examples():
    f2, f4 = make_field(2, 1), make_field(2, 2)
    line = span(f2, 3, e_basis(3, 1))
    ext = line.extend_scalars(f4)
    assert ext.dim == 1 and ext.field == f4 and ext.basis == line.basis
    full = SubspaceGF.full(f2, 3)
    assert full.extend_scalars(f4) == SubspaceGF.full(f4, 3)


@pytest.mark.parametrize("d,q,n", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2), (2, 2, 3)])
def test_extend_scalars_preserves_dim_exhaustively(d, q, n):
    base = make_field(q, 1)
    ext = make_field(q, n)
    for k in range(d + 1):
        for u in enumerate_subspaces(base, d, k):
            assert u.extend_scalars(ext).dim == k


def test_extend_scalars_rejects_unrelated_fields():
    with pytest.raises(ConfigError):
        span(make_field(2, 1), 2, e_basis(2, 1)).extend_scalars(make_field(3, 1))


def test_contains_vector():
    f = make_field(2, 1)
    plane = span(f, 3, ((1, 0, 1), (0, 1, 1)))
    assert span(f, 3, [(1, 1, 0)]).is_subspace_of(plane)
    assert not span(f, 3, [(1, 0, 0)]).is_subspace_of(plane)


@pytest.mark.parametrize("p,n,d", [(2, 1, 4), (3, 1, 3), (2, 2, 3)])
def test_intersect_matches_kernel_oracle_all_pairs(p, n, d):
    f = make_field(p, n)
    all_subs = [s for k in range(d + 1) for s in enumerate_subspaces(f, d, k)]
    for a in all_subs:
        for b in all_subs:
            meet = a.intersect(b)
            assert meet == kernel_intersection(a, b)
            assert meet == span(f, d, meet.basis)


def test_intersect_matches_kernel_oracle_without_tables():
    # GF(2^10) is above the table limit, so every row operation runs per entry
    f, d = make_field(2, 10), 4
    rng = random.Random(10)

    def random_subspace():
        rows = [[rng.randrange(f.order) for _ in range(d)] for _ in range(rng.randint(0, d))]
        return span(f, d, rows)

    for _ in range(200):
        a, b = random_subspace(), random_subspace()
        assert a.intersect(b) == kernel_intersection(a, b)


@pytest.mark.parametrize(
    "q,dims,parts",
    [(2, (1, 2), (1, 1, 1)), (4, (1,), (1, 1)), (2, (2,), (2, 2)), (3, (1, 3), (1, 2, 1))],
)
def test_chain_enumeration_counts(q, dims, parts):
    # parts are the successive quotient dims of the chain completed by the
    # full space; the count is the q-multinomial
    p, n = (2, 2) if q == 4 else (q, 1)
    f = make_field(p, n)
    d = sum(parts)
    chains = list(enumerate_chains(f, d, dims))
    assert len(chains) == q_multinomial(parts, q)
    assert len(set(chains)) == len(chains)
    for chain in chains:
        assert tuple(m.dim for m in chain) == dims
        for a, b in zip(chain, chain[1:]):
            assert a.is_subspace_of(b)
