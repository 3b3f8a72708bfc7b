import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_cycle, kernel_intersection
from perdom.checks import dominates, enumerate_B, h_w_i, kappa
from perdom.cohomology import kostant_cells
from perdom.errors import ConfigError
from perdom.exactalg.gf import make_field
from perdom.exactalg.subspaces import SubspaceGF, enumerate_subspaces, rational_positions, rref
from perdom.flagenum import enumerate_flags, rational_subspaces
from perdom.slopes import (
    ClosedFamily,
    FilteredSpace,
    UNKNOWN,
    MeetStore,
    SlopeFunction,
    Subfunction,
    drinfeld,
    from_values,
    induced_degree,
    induced_type,
    parse_family,
    random_slope_function,
    scaled_degrees,
    subfunction,
    validate,
)
from perdom.weyl import identity, kostant_reps

F = Fraction


# -- oracles: direct readings of the definitions, used only by these tests ------


def leq(h: Subfunction, other: Subfunction) -> bool:
    return dominates(other, h)


def enumerate_B_all(g: SlopeFunction) -> tuple[Subfunction, ...]:
    """Every subfunction of g, by length."""
    return tuple(h for i in range(1, g.d) for h in enumerate_B(g, i))


def is_semistable(flag: FilteredSpace, rational_subspaces) -> bool:
    """No proper nonzero prime-field subspace of positive degree."""
    return all(induced_degree(flag, u) <= 0 for u in rational_subspaces)


def in_open_stratum(flag: FilteredSpace, family: ClosedFamily, rational_subspaces) -> bool:
    """True iff no rational subspace has induced type inside the family."""
    return not any(family.contains(induced_type(flag, u)) for u in rational_subspaces)


def induced_type_per_member(flag: FilteredSpace, u: SubspaceGF) -> Subfunction:
    """The induced type from dim(U (x) k meet F_j), one kernel-route
    intersection per proper flag member, independent of the chained route;
    U (x) k is brought to echelon form over the flag's field afresh."""
    uk = SubspaceGF.from_rows(flag.field, u.ambient_dim, u.basis)
    dims = [kernel_intersection(uk, member).dim for member in flag.members[:-1]] + [uk.dim]
    values, prev = [], 0
    for value, cur in zip(flag.slope.values, dims):
        values.extend([value] * (cur - prev))
        prev = cur
    return subfunction(values)


def random_flag(rng, g: SlopeFunction, field) -> FilteredSpace:
    """Spans of the first c_j rows of a random invertible matrix."""
    d = g.d
    while True:
        rows = tuple(tuple(rng.randrange(field.order) for _ in range(d)) for _ in range(d))
        if len(rref(field, rows)[0]) == d:
            break
    members = tuple(SubspaceGF.from_rows(field, d, rows[:c]) for c in g.cumulative_dims())
    return FilteredSpace(field, g, members)


def I_w_oracle(w, mu, family: ClosedFamily) -> tuple[int, ...]:
    """I_w from its definition: the s_i whose prefix subfunction h_w_i is
    outside the family, tested on the subfunction itself."""
    return tuple(i for i in range(1, len(mu)) if not family.contains(h_w_i(mu, w, i)))


def test_validate_examples():
    g = validate([(2, 1), (1, 1), (-3, 1)])
    assert g.d == 3 and g.mu == (F(2), F(1), F(-3))
    g2 = validate([(1, 2), (-1, 2)])
    assert g2.d == 4 and g2.mu == (F(1), F(1), F(-1), F(-1))
    with pytest.raises(ConfigError):
        validate([(1, 1), (1, 1)])  # duplicate values
    with pytest.raises(ConfigError):
        validate([(1, 1), (-1, 2)])  # weighted sum nonzero
    with pytest.raises(ConfigError):
        validate([(1, 0), (0, 3)])  # nonpositive multiplicity


def test_from_values_infers_multiplicities():
    g = from_values([1, 1, -2])
    assert g.pairs == ((F(1), 2), (F(-2), 1))


def test_drinfeld_shape():
    g = drinfeld(4)
    assert g.pairs == ((F(3), 1), (F(-1), 3))


def test_subfunction_degree_and_order():
    h = subfunction([2, 1])
    assert h.degree == 3 and h.length == 2
    assert dominates(subfunction([2, 1]), subfunction([2, -3]))
    a, b = subfunction([2, -3]), subfunction([1, 1])
    assert not dominates(a, b) and not dominates(b, a)
    assert leq(subfunction([2, -3]), subfunction([2, 1]))
    with pytest.raises(ConfigError):
        dominates(subfunction([1]), subfunction([1, 2]))


def test_enumerate_B_examples():
    g = from_values([2, 1, -3])
    assert [h.values for h in enumerate_B(g, 1)] == [(F(2),), (F(1),), (F(-3),)]
    assert len(enumerate_B(g, 2)) == 3
    g2 = from_values([1, 1, -2])
    assert len(enumerate_B(g2, 1)) == 2
    with pytest.raises(ConfigError):
        enumerate_B(g, 3)


def test_h_w_i_examples():
    mu = tuple(map(F, (4, 3, 2, 1, -10)))
    for w in ((1, 2, 3, 4, 5), from_cycle(5, (2, 3, 4))):
        assert h_w_i(mu, w, 0).values == ()
    assert h_w_i(mu, from_cycle(5, (2, 3, 4)), 2) == subfunction([4, 1])
    mu3 = tuple(map(F, (2, 1, -3)))
    assert h_w_i(mu3, identity(3), 2) == subfunction([2, 1])
    assert h_w_i(mu3, identity(3), 3) == subfunction([2, 1, -3])  # whole function


def test_kappa_examples_and_checks():
    mapping = kappa(1, (F(1), F(-1)))
    assert mapping[(1, 2)] == subfunction([1])
    assert mapping[(2, 1)] == subfunction([-1])
    mu = tuple(map(F, (2, 1, -3)))
    assert set(h.values for h in kappa(1, mu).values()) == {(F(2),), (F(1),), (F(-3),)}
    kappa(2, mu)  # raises if not bijective or not order-reversing


@pytest.mark.parametrize("seed", range(6))
def test_kappa_on_random_cocharacters(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 5)
    g = random_slope_function(rng, d)
    for i in range(1, d):
        kappa(i, g.mu)


def kostant_i_w(g: SlopeFunction, family: ClosedFamily) -> dict:
    """I_w of every Kostant representative, as `kostant_cells` stores it."""
    return {w: iw for w, _lw, iw in kostant_cells(g, family)}


def test_I_w_rank_five_example():
    i_w = kostant_i_w(from_values([4, 3, 2, 1, -10]), ClosedFamily.semistable())
    assert i_w[from_cycle(5, (2, 3, 4))].complement() == (1, 2, 3, 4)
    assert i_w[from_cycle(5, (2, 3, 4, 5))].complement() == (1,)
    assert i_w[identity(5)].gens == ()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_I_w_matches_prefix_sum_formula(d):
    """I_w, read off the integer prefix sums of w acting on the scaled mu,
    against its definition on the prefix subfunctions, for ss and several
    threshold families, strict and non-strict fractional ones among them."""
    rng = random.Random(d)
    specs = ("ss", "ge:0", "ge:1/2", "ge:1", "ge:3", "ge:-2", "ge:5/3")
    families = [parse_family(spec) for spec in specs]
    families += [ClosedFamily(F(1), strict=True), ClosedFamily(F(2, 3), strict=True)]
    for _ in range(3):
        g = random_slope_function(rng, d)
        for family in families:
            i_w = kostant_i_w(g, family)
            assert set(i_w) == set(kostant_reps(g.mults))
            for w, iw in i_w.items():
                assert iw.gens == I_w_oracle(w, g.mu, family)


def test_I_w_oracle_catches_a_threshold_one_too_high(monkeypatch):
    """Negative control: under ge:1 the prefix sum 1 of (1, 2, -3) sits
    exactly on the threshold; a least scaled degree one too high moves it
    out of the family, and the oracle sees that."""
    g, family = from_values([2, 1, -3]), parse_family("ge:1")
    assert all(iw.gens == I_w_oracle(w, g.mu, family) for w, iw in kostant_i_w(g, family).items())
    least = ClosedFamily.least_scaled_degree
    monkeypatch.setattr(ClosedFamily, "least_scaled_degree",
                        lambda self, scale: least(self, scale) + 1)
    kostant_cells.cache_clear()
    try:
        i_w = kostant_i_w(g, family)
    finally:
        kostant_cells.cache_clear()
    assert i_w[(2, 1, 3)].gens == (1,)
    assert I_w_oracle((2, 1, 3), g.mu, family) == ()


def test_family_membership_and_ss():
    ss = ClosedFamily.semistable()
    assert ss.contains(subfunction([2, 1]))
    assert not ss.contains(subfunction([1, -1]))
    ge = ClosedFamily(F(3), strict=False)
    assert ge.contains(subfunction([2, 1])) and not ge.contains(subfunction([2]))
    assert ss.within_ss and ClosedFamily(F(1, 2), False).within_ss
    assert not ClosedFamily(F(0), False).within_ss
    assert not ClosedFamily(F(-1), True).within_ss


def test_parse_family_forms():
    assert parse_family("ss") == ClosedFamily.semistable()
    assert parse_family("ge:1/2") == ClosedFamily(F(1, 2), strict=False)
    for bad in ("gt:1", "ge:x", {"threshold": [1]}, 17):
        with pytest.raises(ConfigError):
            parse_family(bad)


@pytest.mark.parametrize("values", [[2, 1, -3], [1, 1, -2], [1, 1, -1, -1], [3, 1, 0, -4]])
def test_every_closed_subset_is_a_threshold_family(values):
    g = from_values(values)
    B = enumerate_B_all(g)

    def is_closed(subset):
        return all(
            (hp in subset) for h in subset for hp in B if hp.degree >= h.degree
        )

    # upward degree closures of arbitrary seeds exhaust the closed subsets
    rng = random.Random(11)
    seeds = [frozenset([h]) for h in B] + [
        frozenset(rng.sample(B, rng.randint(1, len(B)))) for _ in range(10)
    ]
    for seed in seeds:
        closure = frozenset(
            hp for hp in B if any(hp.degree >= h.degree for h in seed)
        )
        assert is_closed(closure)
        threshold = min(h.degree for h in seed)
        fam = ClosedFamily(threshold, strict=False)
        assert closure == frozenset(h for h in B if fam.contains(h))
    # threshold families are closed, strict or not
    for h in B:
        for strict in (False, True):
            fam = ClosedFamily(h.degree, strict)
            assert is_closed(frozenset(hp for hp in B if fam.contains(hp)))


def frame(field, d, *rows):
    return SubspaceGF.from_rows(field, d, rows)


def standard_flag_gf2():
    """Type (2,1,-3) flag over GF(2): spans of e1 and e1,e2."""
    g = from_values([2, 1, -3])
    f = make_field(2, 1)
    members = (
        frame(f, 3, (1, 0, 0)),
        frame(f, 3, (1, 0, 0), (0, 1, 0)),
        SubspaceGF.full(f, 3),
    )
    return FilteredSpace(f, g, members)


def test_induced_type_examples():
    flag = standard_flag_gf2()
    f = flag.field
    assert induced_type(flag, frame(f, 3, (0, 1, 0))) == subfunction([1])
    assert induced_degree(flag, frame(f, 3, (0, 1, 0))) == 1
    assert induced_type(flag, frame(f, 3, (1, 0, 0))) == subfunction([2])
    # contained in the smallest member: top value with full multiplicity
    assert induced_type(flag, flag.members[0]) == subfunction([2])
    # the whole space recovers the slope function, degree zero
    assert induced_type(flag, SubspaceGF.full(f, 3)).values == flag.slope.mu
    assert induced_degree(flag, SubspaceGF.full(f, 3)) == 0
    with pytest.raises(ConfigError):
        induced_type(flag, SubspaceGF(f, 3, ()))


def test_projective_line_semistability():
    g = from_values([1, -1])
    subs = rational_subspaces(2, 2)
    rational = [flag for flag in enumerate_flags(g, 2, 1)]
    assert all(not is_semistable(flag, subs) for flag in rational)
    over_gf4 = list(enumerate_flags(g, 2, 2))
    semis = [flag for flag in over_gf4 if is_semistable(flag, subs)]
    assert len(semis) == 2  # the non-rational points of the line over GF(4)
    ss = ClosedFamily.semistable()
    for flag in over_gf4:
        assert in_open_stratum(flag, ss, subs) == is_semistable(flag, subs)


@pytest.mark.parametrize("values,n", [([2, 1, -3], 2), ([1, 1, -1, -1], 1), ([1, -1], 3)])
def test_whole_space_has_degree_zero_for_every_flag(values, n):
    g = from_values(values)
    full = SubspaceGF.full(make_field(2, 1), g.d)
    for flag in enumerate_flags(g, 2, n):
        assert induced_type(flag, full).values == g.mu
        assert induced_degree(flag, full) == 0


def test_base_field_flags_with_two_jumps_are_never_semistable():
    for values in ([2, 1, -3], [1, 1, -2]):
        g = from_values(values)
        subs = rational_subspaces(2, g.d)
        for flag in enumerate_flags(g, 2, 1):
            assert not is_semistable(flag, subs)


@pytest.mark.parametrize("values,n", [([1, -1], 2), ([2, 1, -3], 1), ([2, 1, -3], 2)])
def test_degree_submodularity(values, n):
    g = from_values(values)
    subs = rational_subspaces(2, g.d)
    for flag in enumerate_flags(g, 2, n):
        for u1 in subs:
            for u2 in subs:
                s = u1.sum_with(u2)
                i = u1.intersect(u2)
                deg_s = induced_degree(flag, s) if s.dim else F(0)
                deg_i = induced_degree(flag, i) if i.dim else F(0)
                assert deg_s >= induced_degree(flag, u1) + induced_degree(flag, u2) - deg_i


@pytest.mark.parametrize(
    "values,p,n",
    [
        ([2, 1, -3], 2, 2),
        ([1, 1, -2], 3, 1),
        ([3, 1, -1, -3], 2, 1),
        ([2, 1, -3], 2, 3),
        ([1, 1, -2], 3, 2),
    ],
)
def test_induced_type_matches_per_member_intersections(values, p, n):
    g = from_values(values)
    subs = rational_subspaces(p, g.d)
    for flag in enumerate_flags(g, p, n):
        for u in subs:
            assert induced_type(flag, u) == induced_type_per_member(flag, u)


@pytest.mark.parametrize("values,p,n", [([2, 1, -3], 2, 2), ([3, 1, -1, -3], 2, 1)])
def test_shared_meet_table_does_not_depend_on_visiting_order(values, p, n):
    # flags of one enumeration share their meet table; visiting them in reverse
    # fills it in another order, and a flag with a fresh table must agree
    g = from_values(values)
    flags = list(enumerate_flags(g, p, n))
    assert flags[0].store is flags[-1].store
    for flag in reversed(flags):
        fresh = FilteredSpace(flag.field, flag.slope, flag.members, MeetStore(flag.field, g))
        for u in rational_subspaces(p, g.d):
            assert induced_type(flag, u) == induced_type(fresh, u)


@pytest.mark.parametrize(
    "values,p,n",
    # (1,1,-2) has one proper member, and its flags share one store all the same
    [([2, 1, -3], 2, 3), ([1, 1, -1, -1], 2, 2), ([1, 1, -2], 2, 1), ([1, 1, -2], 2, 2)],
)
def test_frobenius_images_of_a_member_share_its_meet_table(values, p, n):
    g = from_values(values)
    flags = list(enumerate_flags(g, p, n))
    for flag in flags[::7]:
        for u in rational_subspaces(p, g.d):
            induced_type(flag, u)
    store, field = flags[0].store, flags[0].field
    assert all(flag.store is store for flag in flags)
    subs = rational_subspaces(p, g.d)
    for basis, (images, row) in store.entries.items():
        # the images start at the key, each is the Frobenius of the one before,
        # and each image's orbit is the same orbit rotated, with the same row
        assert len(images) == n and images[0] == basis
        assert [field.frobenius(b) for b in images] == [*images[1:], basis]
        for k, image in enumerate(images):
            assert store.orbit(image) == images[k:] + images[:k]
            assert store.row(image) is row
        assert len(row) == len(subs)
        member = SubspaceGF(field, g.d, basis)
        for u, dim in zip(subs, row):
            if dim != UNKNOWN:
                uk = SubspaceGF.from_rows(field, g.d, u.basis)
                assert kernel_intersection(uk, member).dim == dim
    assert any(dim != UNKNOWN for _images, row in store.entries.values() for dim in row)


@pytest.mark.parametrize("values,p,n", [([2, 1, -3], 2, 2), ([1, 1, -2], 2, 1)])
def test_one_enumeration_shares_one_store_from_the_start(values, p, n):
    # the store is still empty when the first flag takes it, and every flag
    # keeps the store it is given; the hook gets each member itself
    g = from_values(values)
    members = []
    flags = list(enumerate_flags(g, p, n, expand=lambda member, state: members.append(member) or 1))
    store = flags[0].store
    assert store.entries == {} and len(members) > 1
    assert all(flag.store is store for flag in flags)
    assert {m for flag in flags for m in flag.members[:-1]} == set(members)
    given = MeetStore(flags[0].field, g)
    assert all(flag.store is given for flag in enumerate_flags(g, p, n, None, given))
    fresh = [FilteredSpace(flags[0].field, g, flags[0].members) for _ in range(2)]
    assert fresh[0].store.entries == {} and fresh[0].store is not fresh[1].store
    assert all(space.store is not store for space in fresh)


@pytest.mark.parametrize("known", [False, True])
@pytest.mark.parametrize("values,p", [([1, 1, -2], 2), ([1, 1, -2], 3), ([2, 1, 1, -4], 2)])
def test_a_meet_over_the_prime_field_mirrors_only_into_member_dims(values, p, known):
    # over GF(p) one meet(W, U) fills W's row at U and, exactly when dim U is
    # a member dim of the type (U can then be a member), U's row at W; the
    # lines of GF(p)^3 under (1,1,-2) and the planes of GF(2)^4 under
    # (2,1,1,-4) are never members, so they get no row
    g, field = from_values(values), make_field(p, 1)
    member_dims = set(g.cumulative_dims()[:-1])
    subs, positions = rational_subspaces(p, g.d), rational_positions(p, g.d)
    for w in (s for s in subs if s.dim in member_dims):
        for u in subs:
            store, dim = MeetStore(field, g), kernel_intersection(u, w).dim
            assert store.meet(w, u, dim if known else None) == dim
            assert store.row(w.basis)[positions[u.basis]] == dim
            filled = [(b, i) for b, (_, row) in store.entries.items()
                      for i, entry in enumerate(row) if entry != UNKNOWN]
            if u.dim in member_dims and u != w:
                assert filled == [(w.basis, positions[u.basis]), (u.basis, positions[w.basis])]
                assert store.row(u.basis)[positions[w.basis]] == dim
            else:
                assert filled == [(w.basis, positions[u.basis])]


@pytest.mark.parametrize("values,p,n", [([2, 1, -3], 2, 3), ([1, 1, -2], 3, 2)])
def test_a_meet_over_an_extension_fills_one_row_for_every_image(values, p, n):
    # over GF(p^n), n > 1, a member is not rational, so meet(W, U) files no
    # row for U; the sigma-images of W share W's row, and the dims read there
    # are those of each image's own intersection, since sigma fixes U
    g, field = from_values(values), make_field(p, n)
    subs = rational_subspaces(p, g.d)
    w = next(s for s in enumerate_subspaces(field, g.d, g.cumulative_dims()[0])
             if len(set(MeetStore(field, g).orbit(s.basis))) == n)
    store = MeetStore(field, g)
    images = store.orbit(w.basis)
    for u in subs:
        store.meet(w, u)
    assert set(store.entries) == set(images)
    for image in images:
        member = SubspaceGF(field, g.d, image)
        assert store.row(image) is store.row(w.basis)
        dims = [kernel_intersection(SubspaceGF.from_rows(field, g.d, u.basis), member).dim
                for u in subs]
        assert [store.meet(member, u) for u in subs] == list(store.row(image)) == dims


@pytest.mark.parametrize("filled", [False, True])
def test_non_rational_subspaces_are_refused(filled):
    # the kernel takes nonzero subspaces of GF(p)^d over GF(p) only: a flag
    # member over GF(p^n), a subspace over another prime and one of another
    # ambient are refused, on a cold store and after it has filled
    for values, n in (([2, 1, -3], 2), ([3, 1, -1, -3], 1)):
        g = from_values(values)
        flag = next(iter(enumerate_flags(g, 2, n)))
        if filled:
            for u in rational_subspaces(2, g.d):
                induced_type(flag, u)
            assert all(UNKNOWN not in row for row in flag.rows)
        e = [tuple(int(i == j) for j in range(g.d)) for i in range(g.d)]
        line = frame(make_field(2, 1), g.d, e[0])
        plane = frame(make_field(2, 1), g.d, e[0], tuple(x + y for x, y in zip(e[1], e[2])))
        refused = (
            *(flag.members if n > 1 else ()),  # over GF(2), members are rational
            SubspaceGF(make_field(2, 2), g.d, line.basis),
            SubspaceGF(make_field(3, 1), g.d, line.basis),
            SubspaceGF(make_field(3, 1), g.d, plane.basis),  # same basis as a rational plane
            SubspaceGF.full(make_field(3, 1), g.d),
            rational_subspaces(2, g.d - 1)[0],
            rational_subspaces(2, g.d + 1)[0],
            rational_subspaces(2, g.d + 1)[-1],  # as many dims as the flag's space
            SubspaceGF(make_field(2, 1), g.d, ()),
        )
        for u in refused:
            with pytest.raises(ConfigError):
                induced_type(flag, u)
            with pytest.raises(ConfigError):
                induced_degree(flag, u)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 2))
def test_induced_degree_is_the_degree_of_the_induced_type(seed, d, n):
    # random_slope_function shifts integers by their mean: fractional values.
    # Three routes to scale * deg U: the degree vector read from the filled
    # rows, the per-subspace integer degree (on a fresh store, with its early
    # exit) and the Fraction degree of the induced type
    rng = random.Random(seed)
    g = random_slope_function(rng, d)
    flag = random_flag(rng, g, make_field(2, n))
    fresh = FilteredSpace(flag.field, flag.slope, flag.members, MeetStore(flag.field, g))
    subs = rational_subspaces(2, d)
    degrees = [induced_degree(fresh, u) for u in subs]
    assert scaled_degrees(flag) == degrees
    assert degrees == [g.scale * induced_type(flag, u).degree for u in subs]


def test_random_slope_functions_are_admissible():
    rng = random.Random(5)
    for _ in range(50):
        g = random_slope_function(rng, rng.randint(2, 6))
        assert len(g.pairs) >= 2
        assert sum(x * m for x, m in g.pairs) == 0
        validate(g.pairs)
