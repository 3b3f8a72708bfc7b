import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, groupby, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_cycle
from perdom.errors import ConfigError
from perdom.exactalg.qcount import q_multinomial
from perdom.weyl import (
    ParabolicType,
    act,
    bruhat_leq,
    compose,
    coset_min,
    double_coset_reps,
    identity,
    inverse,
    is_kostant,
    kostant_reps,
    length,
    parabolic_types,
    simple_reflection,
)


def frac(xs):
    return tuple(Fraction(x) for x in xs)


def longest_element(d):
    return tuple(range(d, 0, -1))


def stabilizer_type(sizes) -> ParabolicType:
    """The reflections inside the blocks of a composition: the stabilizer of
    any strictly decreasing run of values with these multiplicities."""
    d, cuts = sum(sizes), set(accumulate(sizes))
    return ParabolicType.from_gens(d, (i for i in range(1, d) if i not in cuts))


@lru_cache(maxsize=None)
def all_perms(d):
    """Oracle: all of S_d, sorted by (length, one-line).  Filtering it with
    is_kostant is the reference route for kostant_reps; only for small d."""
    return tuple(sorted(permutations(range(1, d + 1)), key=lambda w: (length(w), w)))


def sizes_of(mu):
    """Block sizes of a weakly decreasing vector: the lengths of its runs of
    equal entries."""
    return tuple(len(list(run)) for _, run in groupby(mu))


def compositions(d):
    """Every composition of d, as tuples of positive parts."""
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first,) + rest


# -- reduced words and the subword test oracle --------------------------------


def reduced_word(w):
    """Right-descent peeling; returns indices i with w = s_{i_1}...s_{i_k}."""
    w = list(w)
    peeled = []
    while True:
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            break
        w[i], w[i + 1] = w[i + 1], w[i]
        peeled.append(i + 1)
    return peeled[::-1]


def word_to_perm(word, d):
    return reduce(compose, (simple_reflection(i, d) for i in word), identity(d))


def bruhat_subword_oracle(u, w):
    """u <= w iff u is a product of some subword of a reduced word for w."""
    d = len(w)
    word = reduced_word(w)
    for mask in range(1 << len(word)):
        sub = [word[j] for j in range(len(word)) if mask >> j & 1]
        if word_to_perm(sub, d) == u:
            return True
    return False


def test_reduced_words_are_reduced():
    for w in all_perms(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert word_to_perm(word, 4) == w


# -- lengths and composition ---------------------------------------------------


def test_length_examples():
    assert length(identity(5)) == 0
    assert length(from_cycle(5, (2, 3, 4))) == 2
    assert length(from_cycle(5, (2, 3, 4, 5))) == 3


def test_composition_convention():
    u, v = (2, 1, 3), (1, 3, 2)
    uv = compose(u, v)
    for i in range(1, 4):
        assert uv[i - 1] == u[v[i - 1] - 1]


def test_length_subadditive():
    for u in all_perms(4):
        for v in all_perms(4):
            assert length(compose(u, v)) <= length(u) + length(v)


def test_inverse():
    for w in all_perms(4):
        assert compose(w, inverse(w)) == identity(4)
        assert length(inverse(w)) == length(w)


# -- Bruhat order ---------------------------------------------------------------


def test_bruhat_reflexive_and_top():
    for d in (2, 3, 4):
        for w in all_perms(d):
            assert bruhat_leq(w, w)
        assert not bruhat_leq(longest_element(d), identity(d))
        assert bruhat_leq(identity(d), longest_element(d))


def test_bruhat_example_pair_in_rank_five():
    assert bruhat_leq(from_cycle(5, (2, 3, 4)), from_cycle(5, (2, 3, 4, 5)))


@pytest.mark.parametrize("d", [3, 4])
def test_bruhat_matches_subword_oracle(d):
    perms = all_perms(d)
    for u in perms:
        for w in perms:
            assert bruhat_leq(u, w) == bruhat_subword_oracle(u, w)


# -- action on cocharacters ------------------------------------------------------


def test_act_identity_and_examples():
    mu = frac((4, 3, 2, 1, -10))
    assert act(identity(5), mu) == mu
    assert act(from_cycle(5, (2, 3, 4)), mu) == frac((4, 1, 3, 2, -10))
    assert act(from_cycle(5, (2, 3, 4, 5)), mu) == frac((4, -10, 3, 2, 1))


def test_act_is_a_left_action():
    rng = random.Random(3)
    mu = frac((5, 2, 0, -3, -4))
    perms = all_perms(5)
    for _ in range(40):
        u, v = rng.choice(perms), rng.choice(perms)
        assert act(compose(u, v), mu) == act(u, act(v, mu))


# -- parabolic types --------------------------------------------------------------


def test_parabolic_types_are_all_subsets_once():
    for d in range(1, 6):
        types = list(parabolic_types(d))
        assert len(types) == len(set(types)) == 2 ** (d - 1)
        assert [len(t.gens) for t in types] == sorted(len(t.gens) for t in types)
        assert types[0] == ParabolicType.empty(d) and types[-1] == ParabolicType.full(d)


def test_stabilizer_examples():
    assert stabilizer_type((1, 1, 1)).gens == ()
    assert stabilizer_type((2, 1)).gens == (1,)
    assert stabilizer_type((2, 2)).gens == (1, 3)
    assert stabilizer_type((4,)) == ParabolicType.full(4)
    for d in range(1, 6):
        for ptype in parabolic_types(d):
            assert stabilizer_type(ptype.composition()) == ptype


def test_parabolic_composition():
    assert ParabolicType.from_gens(4, []).composition() == (1, 1, 1, 1)
    assert ParabolicType.from_gens(4, [1, 3]).composition() == (2, 2)
    assert ParabolicType.full(4).composition() == (4,)
    assert ParabolicType.from_gens(4, [1]).complement() == (2, 3)


# -- minimal coset representatives -------------------------------------------------


def test_kostant_counts():
    reps = kostant_reps((2, 2))
    assert len(reps) == math.factorial(4) // (2 * 2)
    assert len(kostant_reps((1, 1, 1))) == 6


def test_kostant_drinfeld_chain():
    reps = kostant_reps((1, 3))
    expected = [identity(4)]
    for i in range(1, 4):
        expected.append(compose(simple_reflection(i, 4), expected[-1]))
    assert sorted(reps) == sorted(expected)
    assert [length(w) for w in reps] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "mu",
    [frac((2, 1, -3)), frac((1, 1, -2)), frac((1, 1, -1, -1)), frac((4, 3, 2, 1, -10)),
     frac((2, 2, 1, -5, -5) )],
)
def test_unique_factorization_with_additive_length(mu):
    d, sizes = len(mu), sizes_of(mu)
    reps = set(kostant_reps(sizes))
    stab_gens = [simple_reflection(i, d) for i in stabilizer_type(sizes).gens]
    stabilizer = {identity(d)}
    frontier = {identity(d)}
    while frontier:
        frontier = {
            compose(u, s) for u in frontier for s in stab_gens
        } - stabilizer
        stabilizer |= frontier
    for w in all_perms(d):
        wdot = coset_min(w, sizes)
        assert wdot in reps
        u = compose(inverse(wdot), w)
        assert u in stabilizer
        assert length(w) == length(wdot) + length(u)
        # uniqueness: no other representative reaches w inside the coset
        assert sum(1 for r in reps if compose(inverse(r), w) in stabilizer) == 1


@pytest.mark.parametrize("d", range(1, 7))
def test_kostant_reps_match_the_filter_oracle(d):
    for parts in compositions(d):
        assert kostant_reps(parts) == tuple(w for w in all_perms(d) if is_kostant(w, parts))


def multinomial(parts):
    return math.factorial(sum(parts)) // math.prod(math.factorial(m) for m in parts)


@st.composite
def small_compositions(draw, max_d=12, max_reps=20_000):
    """Compositions of some d <= max_d with at most max_reps representatives."""
    left = draw(st.integers(1, max_d))
    parts = []
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
        if multinomial(parts + [left] if left else parts) > max_reps:
            parts[-1] += left
            left = 0
    return tuple(parts)


@settings(max_examples=25, deadline=None)
@given(small_compositions())
def test_kostant_reps_count_and_length_generating_sum(parts):
    reps = kostant_reps(parts)
    assert len(reps) == len(set(reps)) == multinomial(parts)
    for q in (2, 3):
        assert sum(q ** length(w) for w in reps) == q_multinomial(parts, q)


def test_kostant_reps_sorted_and_increasing_on_blocks():
    sizes = (2, 1, 1)
    reps = kostant_reps(sizes)
    assert list(reps) == sorted(reps, key=lambda w: (length(w), w))
    for w in reps:
        assert w[0] < w[1]
        assert is_kostant(w, sizes)


# -- double cosets -----------------------------------------------------------------


def test_double_cosets_rank_two():
    assert double_coset_reps(1, (1, 1)) == (identity(2), simple_reflection(1, 2))


def test_double_cosets_regular_rank_three():
    assert len(double_coset_reps(1, (1, 1, 1))) == 3
    assert len(double_coset_reps(2, (1, 1, 1))) == 3


def test_double_cosets_collapse_with_stabilizer():
    assert len(double_coset_reps(1, (2, 1))) == 2


def double_coset_classes_oracle(i, sizes):
    """Oracle: the double cosets W_{S\\{s_i}} w W_sizes as BFS closures under
    left multiplication by s_j (j != i) and right multiplication by the
    stabilizer's reflections, each sorted by (length, one-line)."""
    d = sum(sizes)
    left_gens = [simple_reflection(j, d) for j in range(1, d) if j != i]
    right_gens = [simple_reflection(j, d) for j in stabilizer_type(sizes).gens]
    seen = set()
    classes = []
    for w in all_perms(d):
        if w in seen:
            continue
        seen.add(w)
        orbit = [w]
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                for v in [compose(s, u) for s in left_gens] + [compose(u, s) for s in right_gens]:
                    if v not in seen:
                        seen.add(v)
                        orbit.append(v)
                        nxt.append(v)
            frontier = nxt
        classes.append(sorted(orbit, key=lambda w: (length(w), w)))
    return classes


def test_double_cosets_partition_the_group():
    rng = random.Random(2)
    cases = [(2, 2)]
    for d in (2, 3, 4, 5) * 3:
        cases.append(sizes_of(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True)))
    for sizes in cases:
        d = sum(sizes)
        for i in range(1, d):
            classes = double_coset_classes_oracle(i, sizes)
            seen = [w for orbit in classes for w in orbit]
            assert sorted(seen) == sorted(all_perms(d))
            # each double coset has a unique minimum, and it is the representative
            assert all(len(c) == 1 or length(c[1]) > length(c[0]) for c in classes)
            minima = sorted((c[0] for c in classes), key=lambda w: (length(w), w))
            assert double_coset_reps(i, sizes) == tuple(minima)


def test_double_coset_index_range():
    with pytest.raises(ConfigError):
        double_coset_reps(3, (1, 1))
