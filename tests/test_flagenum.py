import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import count_points_every_flag, stalk_counts_every_flag
from perdom import cohomology as coh
from perdom import flagenum, slopes
from perdom.checks import enumerate_B
from perdom.complexes import stalk_counts
from perdom.exactalg.gf import FieldSpec
from perdom.exactalg.qcount import all_flag_points, q_binomial, q_multinomial
from perdom.flagenum import (
    CountReport,
    classification_tests,
    count_points,
    enumerate_flags,
    flag_count,
    flag_orbits,
    rational_subspaces,
)
from perdom.slopes import (
    UNKNOWN,
    ClosedFamily,
    drinfeld,
    from_values,
    induced_type,
    parse_family,
    random_slope_function,
    subfunction,
)
from perdom.weyl import kostant_reps, length

SS = ClosedFamily.semistable()


def count_Yh(g, h, p, n):
    """Oracle: flags admitting at least one rational subspace of induced type exactly h."""
    subspaces = [u for u in rational_subspaces(p, g.d) if u.dim == h.length]
    return sum(
        1
        for flag in enumerate_flags(g, p, n)
        if any(induced_type(flag, u) == h for u in subspaces)
    )


def subspace_count(p, d):
    """Oracle: number of proper nonzero subspaces of GF(p)^d, by q-binomials."""
    return sum(q_binomial(d, k, p) for k in range(1, d))


def test_flag_counts_match_examples():
    assert flag_count(from_values([2, 1, -3]), 2, 1) == 21
    assert flag_count(from_values([1, -1]), 2, 2) == 5
    assert flag_count(from_values([1, 1, -1, -1]), 2, 1) == 35


@pytest.mark.parametrize(
    "values,p,n",
    [
        ([2, 1, -3], 2, 1),
        ([2, 1, -3], 2, 2),
        ([1, 1, -2], 2, 2),
        ([1, -1], 3, 2),
        ([1, 1, -1, -1], 2, 1),
        ([3, 1, 0, -4], 2, 1),
    ],
)
def test_enumeration_is_exact_and_matches_cell_count(values, p, n):
    g = from_values(values)
    flags = list(enumerate_flags(g, p, n))
    assert len(flags) == flag_count(g, p, n)
    assert len({flag.members for flag in flags}) == len(flags)
    bruhat_total = sum((p**n) ** length(w) for w in kostant_reps(g.mults))
    assert len(flags) == bruhat_total
    for flag in flags:
        assert tuple(m.dim for m in flag.members) == g.cumulative_dims()


def test_rational_subspace_cache_counts():
    assert len(rational_subspaces(2, 3)) == 14 == subspace_count(2, 3)
    assert len(rational_subspaces(2, 4)) == 65 == subspace_count(2, 4)
    assert len(rational_subspaces(3, 3)) == 26 == subspace_count(3, 3)


def test_projective_line_counts():
    g = from_values([1, -1])
    for n, expected_open in ((1, 0), (2, 2), (3, 6)):
        rep = count_points(g, SS, 2, n)
        assert rep.in_open == expected_open
        assert rep.total == rep.in_y + rep.in_open == 2**n + 1


def test_rank_three_counts():
    g = from_values([2, 1, -3])
    for n, expected_open in ((1, 0), (2, 0), (3, 216)):
        rep = count_points(g, SS, 2, n)
        assert rep.in_open == expected_open


def test_multijump_base_field_has_empty_open_stratum():
    for values in ([2, 1, -3], [1, 1, -2], [1, 1, -1, -1]):
        assert count_points(from_values(values), SS, 2, 1).in_open == 0


def test_count_Yh_examples():
    g = from_values([1, -1])
    assert count_Yh(g, subfunction([1]), 2, 1) == 3
    assert count_Yh(g, subfunction([-1]), 2, 1) == 3
    assert count_Yh(g, subfunction([1]), 2, 2) == 3  # only the rational points


def test_per_h_breakdown_and_union_bound():
    g = from_values([2, 1, -3])
    rep = count_points(g, SS, 2, 2)
    members = [h for i in range(1, g.d) for h in enumerate_B(g, i) if SS.contains(h)]
    counts = [count_Yh(g, h, 2, 2) for h in members]
    assert len(members) >= 2
    assert max(counts) <= rep.in_y <= sum(counts)
    assert rep.in_y <= rep.total


def test_family_monotonicity():
    g = from_values([2, 1, -3])
    wide = count_points(g, ClosedFamily(Fraction(1, 2), False), 2, 2).in_y
    narrow = count_points(g, ClosedFamily(Fraction(2), False), 2, 2).in_y
    assert narrow <= wide
    assert count_points(g, SS, 2, 2).in_y >= wide


def test_budget_guard(monkeypatch):
    # the command line compares this price against its budget; it is
    # computed from q-binomials, without listing the subspaces of GF(2)^12
    monkeypatch.setattr(flagenum, "rational_subspaces", None)
    assert classification_tests(drinfeld(12), 2, 1) == (2**12 - 1) * subspace_count(2, 12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_prices_are_exact_up_to_the_cap(data):
    d = data.draw(st.integers(1, 9), label="d")
    q = data.draw(st.sampled_from((1, 2, 3, 5)), label="q")
    cap = data.draw(st.integers(0, 10**7), label="cap")

    def expect(x):
        return x if x <= cap else math.inf

    for k in range(-1, d + 2):
        assert q_binomial(d, k, q, cap) == expect(q_binomial(d, k, q))
        if q == 1 and 0 <= k <= d:
            assert q_binomial(d, k, q) == math.comb(d, k)
    parts = tuple(data.draw(st.lists(st.integers(0, 3), max_size=4), label="parts"))
    assert q_multinomial(parts, q, cap) == expect(q_multinomial(parts, q))
    if q > 1:
        cuts = data.draw(st.sets(st.integers(1, d - 1)) if d > 1 else st.just(set()), label="cuts")
        for c in (None, tuple(sorted(cuts))):
            assert all_flag_points(d, q, c, cap) == expect(all_flag_points(d, q, c))
        g = from_values([1] * (d - 1) + [-(d - 1)]) if d > 1 else from_values([1, -1])
        assert classification_tests(g, q, 1, cap) == expect(classification_tests(g, q, 1))


def test_shared_meet_table_stays_within_its_bound(monkeypatch):
    # one table per enumeration, one filled entry per (proper member, rational
    # subspace); the flags under a certified largest member are not built
    g, p, n = from_values([2, 1, -3]), 2, 4
    flags = []

    def recording(*args, **kwargs):
        for flag in enumerate_flags(*args, **kwargs):
            flags.append(flag)
            yield flag

    monkeypatch.setattr(flagenum, "enumerate_flags", recording)
    report = count_points(g, SS, p, n)
    assert len(flags) < report.total == flag_count(g, p, n)
    store = flags[0].store
    assert all(flag.store is store for flag in flags)
    size = sum(dim != UNKNOWN for _images, row in store.entries.values() for dim in row)
    bound = sum(q_binomial(g.d, c, p**n) for c in g.cumulative_dims()[:-1]) * subspace_count(p, g.d)
    assert 0 < size <= bound


def test_the_walk_builds_one_filtered_space_per_flag(monkeypatch):
    # the chain walk's hook gets each member itself, so the only FilteredSpace
    # built is each flag the walk yields: 315 for the stalks of (3,1,-1,-3)
    # at n = 1, and one per orbit representative for count_points
    built = []
    init = slopes.FilteredSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(slopes.FilteredSpace, "__init__", counted)
    assert stalk_counts(from_values([3, 1, -1, -3]), SS, 2, 1) == (315, 315, 0)
    assert len(built) == 315
    g = from_values([2, 1, -3])
    built.clear()
    count_points(g, SS, 2, 4)
    classified = len(built)
    built.clear()
    yielded = sum(flag is not None for flag, _size in flag_orbits(g, 2, 4, SS))
    assert classified == yielded == len(built)
    assert 0 < yielded < flag_count(g, 2, 4)


def test_frobenius_images_are_computed_once_per_orbit(monkeypatch):
    # the meet store files every image of a member basis at once, and
    # flag_orbits reads them from there: (2,1,-3) over GF(2^n), n = 1..4, takes
    # 606 Frobenius calls (2,578 when each basis's images were computed apart)
    calls = []
    frobenius = FieldSpec.frobenius

    def counted(self, basis):
        calls.append(basis)
        return frobenius(self, basis)

    monkeypatch.setattr(FieldSpec, "frobenius", counted)
    g = from_values([2, 1, -3])
    for n in range(1, 5):
        assert count_points(g, SS, 2, n).total == flag_count(g, 2, n)
    assert 0 < len(calls) <= 700


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.sampled_from((2, 3)),
    st.integers(1, 2),
    st.one_of(st.just("ss"), st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4)),
)
def test_counts_and_stalks_equal_the_predictions(seed, d, q, n, threshold):
    # brute-force counts and stalk passes against the formula engine's traces,
    # for random slope functions and families inside ss, under a small price
    g = random_slope_function(random.Random(seed), d)
    assume(classification_tests(g, q, n) <= 20_000)
    family = parse_family(threshold if threshold == "ss" else f"ge:{threshold}")
    p_open, p_closed, cells = coh.predicted_counts(g, family, q, n)
    report = count_points(g, family, q, n)
    assert (report.in_open, report.in_y, report.total) == (p_open, p_closed, cells)
    assert stalk_counts(g, family, q, n) == (cells, p_closed, 0)


ORBIT_GRID = (
    [((2, 1, -3), family, 2, n) for family in ("ss", "ge:1") for n in (1, 2, 3, 4)]
    + [((1, 1, -2), "ss", 3, n) for n in (1, 2, 3)]
    + [((1, -1), "ss", 2, n) for n in range(1, 7)]
    + [((3, 1, -1, -3), "ss", 2, n) for n in (1, 2)]
    # fractional values: the integer scaled degree against the Fraction degree
    + [((Fraction(3, 2), Fraction(1, 2), -2), "ge:1", 3, n) for n in (1, 2)]
    # with flags off the closed stratum, some largest members are certified
    # and the flags under them not built: (2,1,-3) from n = 3 on and
    # (3,1,-1,-3) at n = 2; (2,1,-3) at q = 3, n = 2 and (2,2,-1,-3) at
    # n <= 2 have none
    + [((2, 1, -3), family, 2, 5) for family in ("ss", "ge:1")]
    + [((2, 1, -3), "ss", 3, 2)]
    + [((2, 2, -1, -3), "ss", 2, n) for n in (1, 2)]
    # full flags whose line can sit under a non-rational plane, so the walk
    # orbits each line by the plane's stabiliser, a proper subgroup
    + [((1, 0, -1), family, 2, n) for family in ("ss", "ge:1") for n in (1, 2, 3, 4)]
    + [((1, 0, -1), family, 3, n) for family in ("ss", "ge:1") for n in (1, 2)]
)


@pytest.mark.parametrize("values,family,p,n", ORBIT_GRID)
def test_orbit_counts_equal_every_flag_counts(values, family, p, n):
    g, fam = from_values(values), parse_family(family)
    assert count_points(g, fam, p, n) == count_points_every_flag(g, fam, p, n)
    assert stalk_counts(g, fam, p, n) == stalk_counts_every_flag(g, fam, p, n)


@pytest.mark.parametrize("values,p,n", [((2, 1, -3), 2, 2), ((2, 1, -3), 2, 3), ((1, -1), 2, 6),
                                        ((1, 1, -2), 3, 2), ((2, -1, -1), 2, 4)])
def test_flag_orbits_partition_the_flags(values, p, n):
    # each representative and its Frobenius images cover every flag exactly once
    g = from_values(values)
    every = {tuple(m.basis for m in flag.members) for flag in enumerate_flags(g, p, n)}
    covered = []
    for flag, size in flag_orbits(g, p, n):
        key = tuple(m.basis for m in flag.members)
        orbit = [key]
        while len(orbit) < n:
            orbit.append(tuple(flag.field.frobenius(b) for b in orbit[-1]))
        assert n % size == 0 and len(set(orbit)) == size
        assert key[::-1] == min(k[::-1] for k in orbit)  # least from the largest member down
        covered += orbit[:size]
    assert len(covered) == len(every) == flag_count(g, p, n)
    assert set(covered) == every


def test_base_field_orbits_are_single_flags():
    g = from_values([3, 1, -1, -3])
    assert [size for _, size in flag_orbits(g, 2, 1)] == [1] * flag_count(g, 2, 1)


def test_only_planes_holding_a_rational_line_are_expanded(monkeypatch):
    # (2,1,-3) over GF(16), ss threshold 1: under a plane W, a rational line
    # in W can reach scale * deg U = 2 and a rational W itself 3, while every
    # other rational U stays at most -1; so of the 273 planes only the 105
    # holding a rational line (7 lines in 17 planes each, the 7 rational
    # planes counted thrice) can hold a flag on the closed stratum.  The walk
    # expands one plane per Frobenius orbit: the 7 rational planes, 7 orbits
    # of size 2 among the 14 other planes defined over GF(4), and 21 orbits
    # of size 4 among the other 84 planes, 35 in all.  Under a plane fixed by
    # sigma^s it expands one line per orbit of sigma^s: 3 + 1 + 3 lines under
    # a rational plane, 5 + 6 under a GF(4)-plane and all 17 under the rest,
    # so 483 flags carry the 1,785 flags of the 105 planes
    g, p, n = from_values([2, 1, -3]), 2, 4
    built = []

    def recording(*args, **kwargs):
        for flag in enumerate_flags(*args, **kwargs):
            built.append(flag)
            yield flag

    monkeypatch.setattr(flagenum, "enumerate_flags", recording)
    assert count_points(g, SS, p, n) == CountReport(total=4641, in_y=1785, in_open=2856)
    assert len({flag.members[1] for flag in built}) == 35
    assert len(built) == 483 == 49 + 7 * 11 + 21 * 17
    sizes = Counter(size for flag, size in flag_orbits(g, p, n, SS) if flag is not None)
    assert sizes == {1: 21, 2: 42, 4: 420}
    assert sum(k * m for k, m in sizes.items()) == 105 * 17 < flag_count(g, p, n) == 273 * 17


@pytest.mark.parametrize("values,family,p,n", [
    ((2, 1, -3), "ss", 2, 4),
    ((2, 1, -3), "ge:1", 3, 2),
    ((1, 0, -1), "ss", 2, 4),
    ((1, 0, -1), "ge:1", 3, 2),
    ((3, 1, -1, -3), "ss", 2, 2),
    ((2, -1, -1), "ss", 2, 4),
])
def test_flag_weights_are_their_frobenius_orbit_sizes(values, family, p, n):
    # each yielded flag's weight is the size of its orbit under x -> x^p,
    # counted by applying the Frobenius until the flag comes back; the
    # weights and the certified flags together number every flag of type g
    g, fam = from_values(values), parse_family(family)
    total = 0
    for flag, size in flag_orbits(g, p, n, fam):
        if flag is not None:
            key = image = tuple(m.basis for m in flag.members)
            orbit = 0
            while not orbit or image != key:
                image = tuple(flag.field.frobenius(b) for b in image)
                orbit += 1
            assert size == orbit
        total += size
    assert total == flag_count(g, p, n)


@pytest.mark.parametrize("n", (1, 2))
def test_a_type_with_no_proper_member_has_one_flag_off_the_closed_stratum(n):
    g = from_values([0, 0])
    assert g.cumulative_dims()[:-1] == ()
    assert count_points(g, SS, 2, n) == CountReport(total=1, in_y=0, in_open=1)
    assert stalk_counts(g, SS, 2, n) == (1, 0, 0)


@pytest.mark.parametrize("values,family,p,n", [
    *(((2, 1, -3), "ss", 2, n) for n in (1, 2, 3)),
    ((2, 1, -3), "ge:1", 2, 3),
    ((1, -1), "ss", 2, 3),
    ((1, 1, -2), "ss", 3, 2),
    ((3, 1, -1, -3), "ss", 2, 1),
])
def test_induced_calls_stay_within_the_priced_tests(monkeypatch, values, family, p, n):
    # the budget gate prices flags times rational subspaces; the per-subspace
    # degree and type calls of count_points and stalk_counts stay within it
    g, fam = from_values(values), parse_family(family)
    calls = []

    def counted(fn):
        def wrapper(flag, u):
            calls.append(u)
            return fn(flag, u)
        return wrapper

    # complexes reads the slopes functions through the module at each call
    for module, name in ((flagenum, "induced_degree"), (slopes, "induced_type"),
                         (slopes, "induced_degree")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    price = classification_tests(g, p, n)
    count_points(g, fam, p, n)
    assert 0 < len(calls) <= price
    calls.clear()
    stalk_counts(g, fam, p, n)
    assert len(calls) <= price
