import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_cycle, kernel_intersection
from perdom.errors import ConfigError
from perdom.exactalg.gf import make_field
from perdom.exactalg.subspaces import SubspaceGF, rref
from perdom.flagenum import enumerate_flags, rational_subspaces
from perdom.slopes import (
    ClosedFamily,
    FilteredSpace,
    I_w,
    SlopeFunction,
    Subfunction,
    delta_w,
    dominates,
    drinfeld,
    enumerate_B,
    from_values,
    h_w_i,
    induced_degree,
    induced_type,
    kappa,
    parse_family,
    parse_g_config,
    random_slope_function,
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
    intersection per proper flag member, independent of the chained route."""
    uk = u.extend_scalars(flag.field)
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


def test_parse_g_config():
    g = parse_g_config([[3, 2, 2], [-3, 1, 1]])
    assert g.mu == (F(3, 2), F(3, 2), F(-3))
    with pytest.raises(ConfigError):
        parse_g_config([[1, 0, 1]])


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


def test_I_w_rank_five_example():
    mu = tuple(map(F, (4, 3, 2, 1, -10)))
    ss = ClosedFamily.semistable()
    assert delta_w(from_cycle(5, (2, 3, 4)), mu, ss) == (1, 2, 3, 4)
    assert delta_w(from_cycle(5, (2, 3, 4, 5)), mu, ss) == (1,)
    assert I_w(identity(5), mu, ss).gens == ()


def test_I_w_requires_minimal_representative():
    mu = (F(1), F(1), F(-2))
    with pytest.raises(ConfigError):
        I_w((2, 1, 3), mu, ClosedFamily.semistable())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_I_w_matches_prefix_sum_formula(d):
    """I_w, read off the prefix sums of w.mu, against its definition on the
    prefix subfunctions, for ss and several threshold families."""
    rng = random.Random(d)
    families = [parse_family(spec) for spec in ("ss", "ge:0", "ge:1/2", "ge:1", "ge:3", "ge:-2")]
    families.append(ClosedFamily(F(1), strict=True))
    for _ in range(3):
        g = random_slope_function(rng, d)
        for w in kostant_reps(g.mu):
            for family in families:
                assert I_w(w, g.mu, family).gens == I_w_oracle(w, g.mu, family)


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
    assert parse_family({"threshold": [3, 4], "strict": True}) == ClosedFamily(F(3, 4), True)
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
    for flag in enumerate_flags(g, 2, n):
        full = SubspaceGF.full(flag.field, g.d)
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


@pytest.mark.parametrize("values,p,n", [([2, 1, -3], 2, 2), ([1, 1, -2], 3, 1), ([3, 1, -1, -3], 2, 1)])
def test_induced_type_matches_per_member_intersections(values, p, n):
    g = from_values(values)
    subs = rational_subspaces(p, g.d)
    for flag in enumerate_flags(g, p, n):
        for u in subs:
            assert induced_type(flag, u) == induced_type_per_member(flag, u)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_induced_degree_is_the_degree_of_the_induced_type(seed, d):
    # random_slope_function shifts integers by their mean: fractional values
    rng = random.Random(seed)
    g = random_slope_function(rng, d)
    flag = random_flag(rng, g, make_field(2, 2))
    for u in rational_subspaces(2, d):
        assert induced_degree(flag, u) == induced_type(flag, u).degree


def test_random_slope_functions_are_admissible():
    rng = random.Random(5)
    for _ in range(50):
        g = random_slope_function(rng, rng.randint(2, 6))
        assert len(g.pairs) >= 2
        assert sum(x * m for x, m in g.pairs) == 0
        validate(g.pairs)
