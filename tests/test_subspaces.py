import random
from itertools import combinations

import pytest

from oracles import containment_by_sum, kernel_intersection
from perdom.errors import ConfigError
from perdom.exactalg.gf import make_field
from perdom.exactalg.qcount import q_binomial, q_multinomial
from perdom.exactalg.subspaces import (
    SubspaceGF,
    enumerate_chains,
    enumerate_subspaces,
    rref,
    subspaces_within,
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
            assert containment_by_sum(i, a) and containment_by_sum(i, b)
            assert containment_by_sum(a, s) and containment_by_sum(b, s)


def test_ambient_mismatch_rejected():
    f2, f3 = make_field(2, 1), make_field(3, 1)
    line = span(f2, 3, e_basis(3, 1))
    with pytest.raises(ConfigError):
        line.sum_with(span(f2, 4, e_basis(4, 1)))
    for other in (span(f2, 4, e_basis(4, 1, 2)), span(f3, 3, e_basis(3, 1, 2))):
        with pytest.raises(ConfigError):
            containment_by_sum(line, other)
        with pytest.raises(ConfigError):
            containment_by_sum(other, line)


@pytest.mark.parametrize("p,n,d", [(2, 1, 4), (3, 1, 3), (2, 2, 3)])
def test_containment_matches_sum_oracle_all_pairs(p, n, d):
    # the c-subspaces listed inside each k-subspace W are those A with
    # A + W = W; no subspace lies inside one of smaller dim
    f = make_field(p, n)
    for k in range(d + 1):
        for i, w in enumerate(enumerate_subspaces(f, d, k)):
            for c in range(k + 1):
                subs = enumerate_subspaces(f, d, c)
                inside = tuple(j for j, a in enumerate(subs) if containment_by_sum(a, w))
                assert subspaces_within(f, d, k, i, c) == inside


@pytest.mark.parametrize("d,q,n", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2), (2, 2, 3)])
def test_extend_scalars_preserves_dim_exhaustively(d, q, n):
    # GF(q) embeds in GF(q^n) as the constants 0..q-1, so a reduced echelon
    # basis over GF(q), read over GF(q^n), is already the reduced echelon
    # basis of U (x) GF(q^n): the classification kernel relies on this
    base = make_field(q, 1)
    ext = make_field(q, n)
    for k in range(d + 1):
        for u in enumerate_subspaces(base, d, k):
            uk = SubspaceGF(ext, d, u.basis)
            assert uk == SubspaceGF.from_rows(ext, d, u.basis) and uk.dim == k


def test_contains_vector():
    f = make_field(2, 1)
    plane = span(f, 3, ((1, 0, 1), (0, 1, 1)))
    assert containment_by_sum(span(f, 3, [(1, 1, 0)]), plane)
    assert not containment_by_sum(span(f, 3, [(1, 0, 0)]), plane)


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
            assert containment_by_sum(a, b)


@pytest.mark.parametrize("p,n,d", [(2, 1, 4), (3, 1, 4), (2, 2, 3)])
def test_chain_members_are_canonical_as_built(p, n, d):
    # members are products of reduced echelon matrices, not re-echeloned
    f = make_field(p, n)
    for r in range(1, d):
        for dims in combinations(range(1, d), r):
            for chain in enumerate_chains(f, d, dims):
                for member in chain:
                    assert member == SubspaceGF.from_rows(f, d, member.basis)


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 2)])
def test_frobenius_image_of_a_subspace_is_canonical(p, n, d):
    f = make_field(p, n)
    for k in range(d + 1):
        subspaces = enumerate_subspaces(f, d, k)
        images = [SubspaceGF(f, d, f.frobenius(w.basis)) for w in subspaces]
        for image in images:
            assert image == SubspaceGF.from_rows(f, d, image.basis)
        assert sorted(images, key=SubspaceGF.sort_key) == list(subspaces)
