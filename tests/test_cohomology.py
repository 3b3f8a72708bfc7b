import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dim_v_by_moebius
from perdom import cohomology as coh
from perdom.errors import ConfigError
from perdom.exactalg.qcount import all_flag_points, q_multinomial
from perdom.slopes import (
    ClosedFamily,
    drinfeld,
    from_values,
    parse_family,
    random_slope_function,
)
from perdom.weyl import (
    ParabolicType,
    bruhat_leq,
    compose,
    is_kostant,
    kostant_reps,
    length,
    parabolic_types,
    simple_reflection,
)

F = Fraction
SS = ClosedFamily.semistable()


def deltas(g) -> dict:
    """Delta_w, the reflections outside I_w, of every Kostant representative,
    as `kostant_cells` stores them."""
    return {w: set(iw.complement()) for w, _lw, iw in coh.kostant_cells(g, SS)}


def test_dim_induced_examples():
    assert coh.dim_induced(ParabolicType.empty(3), 2) == 21
    assert coh.dim_induced(ParabolicType.from_gens(3, [1]), 2) == 7
    assert coh.dim_induced(ParabolicType.full(3), 2) == 1


def test_dim_induced_matches_coset_space_sizes():
    from perdom.complexes import coset_space

    for d in (2, 3, 4):
        for q in (2, 3):
            for ptype in parabolic_types(d):
                assert coh.dim_induced(ptype, q) == len(coset_space(ptype, q))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cut_flag_points_sum_the_induced_dims_over_supersets(data):
    d = data.draw(st.integers(1, 6), label="d")
    q = data.draw(st.sampled_from((2, 3, 5)), label="q")
    gens = data.draw(st.sets(st.integers(1, d - 1)) if d > 1 else st.just(set()), label="I")
    ptype = ParabolicType.from_gens(d, gens)
    supersets = [j for j in parabolic_types(d) if ptype.issubset(j)]
    expected = sum(coh.dim_induced(j, q) for j in supersets)
    assert all_flag_points(d, q, ptype.complement()) == expected


def test_dim_v_examples():
    assert coh.dim_v(ParabolicType.empty(2), 5) == 5
    assert coh.dim_v(ParabolicType.empty(3), 2) == 8
    assert coh.dim_v(ParabolicType.from_gens(3, [1]), 2) == 6
    assert coh.dim_v(ParabolicType.full(3), 7) == 1


def test_dim_v_steinberg_spot_checks():
    for d, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
        assert coh.dim_v(ParabolicType.empty(d), q) == q ** (d * (d - 1) // 2)


def test_dim_v_recursion_equals_the_moebius_sum_over_supersets():
    types = [ptype for d in range(1, 10) for ptype in parabolic_types(d)]
    assert len(types) == 511  # 2^(d-1) reflection sets per d
    for q in (2, 3, 5):
        for ptype in types:
            assert coh.dim_v(ptype, q) == dim_v_by_moebius(ptype, q), (ptype.gens, q)


def test_dims_require_prime_base():
    with pytest.raises(ConfigError):
        coh.dim_induced(ParabolicType.empty(3), 4)


def test_rep_label_normalizes_trivial():
    lbl = coh.rep_label(coh.STEINBERG_QUOTIENT, ParabolicType.full(3))
    assert lbl.kind == coh.INDUCED
    assert coh.rep_dim(lbl, 2) == 1


def entry_summary(table, q):
    return sorted(
        (e.degree, e.twist, coh.rep_dim(e.rep, q), e.rep.kind) for e in table.entries
    )


def test_open_table_rank_three_example():
    g = from_values([2, 1, -3])
    table = coh.table_open(g, SS)
    assert entry_summary(table, 2) == [
        (2, 0, 8, "steinberg_quotient"),
        (3, -1, 6, "steinberg_quotient"),
        (4, -2, 1, "induced"),
        (4, -1, 8, "steinberg_quotient"),
        (5, -2, 6, "steinberg_quotient"),
        (6, -3, 1, "induced"),
    ]
    # prefix-sum conventions attach the maximal parabolic through s_2 here;
    # the two maximal parabolics have equal dimension (documented ambiguity)
    mids = [e for e in table.entries if e.degree in (3, 5)]
    assert all(e.i_w.gens == (2,) and e.delta == (1,) for e in mids)
    # two distinct twists in one degree: the table is not pure
    assert {e.twist for e in table.entries if e.degree == 4} == {-1, -2}


def test_open_table_point_case():
    g = from_values([0])
    table = coh.table_open(g, SS)
    assert len(table.entries) == 1
    e = table.entries[0]
    assert (e.degree, e.twist) == (0, 0)
    assert e.rep.kind == coh.INDUCED and e.rep.parabolic.is_full


def test_closed_table_examples():
    assert coh.table_closed(from_values([0]), SS).entries == ()
    g2 = drinfeld(2)
    closed = coh.table_closed(g2, SS)
    assert len(closed.entries) == 1
    e = closed.entries[0]
    assert (e.degree, e.twist, e.rep.kind) == (0, 0, coh.INDUCED)
    assert e.rep.parabolic.gens == ()
    for n in (1, 2, 5):
        assert coh.trace_prediction(closed, 2, n) == 3
    g3 = from_values([2, 1, -3])
    closed3 = coh.table_closed(g3, SS)
    assert entry_summary(closed3, 2) == [
        (0, 0, 1, "induced"),
        (1, 0, 8, "steinberg_quotient"),
        (2, -1, 1, "induced"),
        (2, -1, 7, "induced"),
        (3, -1, 8, "steinberg_quotient"),
        (4, -2, 7, "induced"),
    ]


def test_tables_reject_families_reaching_nonpositive_degrees():
    g = from_values([2, 1, -3])
    for fam in (ClosedFamily(F(0), False), ClosedFamily(F(-1), True)):
        with pytest.raises(ConfigError):
            coh.table_open(g, fam)
        with pytest.raises(ConfigError):
            coh.table_closed(g, fam)


def test_trace_predictions_examples():
    g2 = drinfeld(2)
    open2 = coh.table_open(g2, SS)
    for q in (2, 3):
        for n in (1, 2, 3):
            assert coh.trace_prediction(open2, q, n) == q**n - q
    g3 = from_values([2, 1, -3])
    open3 = coh.table_open(g3, SS)
    for n in (1, 2, 3):
        assert (
            coh.trace_prediction(open3, 2, n)
            == 2 ** (3 * n) - 5 * 2 ** (2 * n) + 2 ** (n + 1) + 8
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.sampled_from((2, 3, 5)),
    st.integers(1, 4),
    st.one_of(st.just("ss"), st.fractions(min_value=F(1, 4), max_value=12, max_denominator=4)),
)
def test_predicted_counts_sum_to_cell_total(seed, d, q, n, threshold):
    # open plus closed traces are the sum of q^(n l(w)) over the Kostant
    # representatives, which is the number of flags of type g over GF(q^n)
    g = random_slope_function(random.Random(seed), d)
    family = parse_family(threshold if threshold == "ss" else f"ge:{threshold}")
    op, cl, total = coh.predicted_counts(g, family, q, n)
    cells = sum(q ** (n * length(w)) for w in kostant_reps(g.mults))
    assert op + cl == total == cells == q_multinomial(g.mults, q**n)


@pytest.mark.parametrize(
    "values,threshold,strict,q",
    [
        ([2, 1, -3], F(2), False, 2),
        ([2, 1, -3], F(1), True, 2),
        ([2, 1, -3], F(3), False, 2),
        ([1, 1, -1, -1], F(2), False, 2),
        ([3, 1, 0, -4], F(1, 2), False, 2),
        ([2, 1, -3], F(2), False, 3),
    ],
)
def test_trace_consistency_for_general_threshold_families(values, threshold, strict, q):
    from perdom.flagenum import count_points

    g = from_values(values)
    fam = ClosedFamily(threshold, strict)
    open_table = coh.table_open(g, fam)
    closed_table = coh.table_closed(g, fam)
    for n in (1, 2):
        report = count_points(g, fam, q, n)
        assert coh.trace_prediction(open_table, q, n) == report.in_open
        assert coh.trace_prediction(closed_table, q, n) == report.in_y


def test_vanishing_examples():
    for values in ([2, 1, -3], [4, 3, 2, 1, -10]):
        table = coh.table_open(from_values(values), SS)
        report = coh.vanishing_check(table)
        assert report.ok and report.expected_degree == len(values) - 1
    assert coh.vanishing_check(coh.table_open(drinfeld(2), SS)).ok


def test_vanishing_check_rejects_other_families():
    g = from_values([2, 1, -3])
    table = coh.table_open(g, ClosedFamily(F(1), False))
    with pytest.raises(ConfigError):
        coh.vanishing_check(table)


def euler_characteristic(table):
    """Alternating sum of the table as a formal multiset (sign, rep, twist)."""
    terms = [((-1 if e.degree % 2 else 1), e.rep, e.twist) for e in table.entries]
    def key(term):
        sign, rep, twist = term
        return (twist, len(rep.parabolic.gens), rep.parabolic.gens, rep.kind, sign)

    return tuple(sorted(terms, key=key))


def euler_evaluate(terms, q):
    """Dimension evaluation of a formal Euler characteristic at q."""
    return sum(sign * coh.rep_dim(rep, q) for sign, rep, _twist in terms)


def test_euler_characteristic_examples():
    table = coh.table_open(drinfeld(2), SS)
    terms = euler_characteristic(table)
    assert len(terms) == 2
    signs = sorted((sign, rep.kind) for sign, rep, _ in terms)
    assert signs == [(-1, "steinberg_quotient"), (1, "induced")]
    for q in (2, 3, 5):
        assert euler_evaluate(terms, q) == coh.trace_prediction(table, q, 0)
    point = coh.table_open(from_values([0]), SS)
    assert euler_evaluate(euler_characteristic(point), 2) == 1
    six = euler_characteristic(coh.table_open(from_values([2, 1, -3]), SS))
    assert len(six) == 6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_delta_shrinks_up_the_bruhat_order(d):
    rng = random.Random(40 + d)
    for _ in range(2):
        g = random_slope_function(rng, d)
        reps = kostant_reps(g.mults)
        delta = deltas(g)
        for u in reps:
            for w in reps:
                if bruhat_leq(u, w):
                    assert delta[w] <= delta[u]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_left_multiplication_monotonicity_and_length_bound(d):
    rng = random.Random(70 + d)
    for _ in range(2):
        g = random_slope_function(rng, d)
        cells = deltas(g)
        for w in kostant_reps(g.mults):
            delta = cells[w]
            assert len(set(range(1, d)) - delta) <= length(w)
            for i in range(1, d):
                sw = compose(simple_reflection(i, d), w)
                if is_kostant(sw, g.mults) and length(sw) == length(w) + 1:
                    delta_sw = cells[sw]
                    assert delta_sw <= delta
                    assert delta - delta_sw <= {i}


def test_length_bound_rank_six():
    rng = random.Random(606)
    g = random_slope_function(rng, 6)
    delta = deltas(g)
    for w in kostant_reps(g.mults):
        assert len(set(range(1, 6)) - delta[w]) <= length(w)


def test_omega_sets_nest_and_cap_at_all_reps():
    g = from_values([2, 1, -3])
    full = coh.omega_set(g, SS, ParabolicType.full(3))
    assert set(full) == set(kostant_reps(g.mults))
    small = coh.omega_set(g, SS, ParabolicType.empty(3))
    assert set(small) <= set(full)
    delta = deltas(g)
    for w in small:
        assert delta[w] == {1, 2}


def test_table_json_shape_and_determinism():
    g = from_values([2, 1, -3])
    table = coh.table_open(g, SS)
    payload = coh.table_json(table, 2, (1, 2))
    assert payload["d"] == 3 and payload["q"] == 2
    assert payload["g"] == [[2, 1, 1], [1, 1, 1], [-3, 1, 1]]
    assert payload["traces"] == {"1": 0, "2": 0}
    assert all(
        set(e) == {"w", "length", "I_w", "Delta_w", "degree", "twist", "rep", "dim_at_q"}
        for e in payload["entries"]
    )
    a = json.dumps(payload, sort_keys=True)
    b = json.dumps(coh.table_json(coh.table_open(g, SS), 2, (1, 2)), sort_keys=True)
    assert a == b


def test_markdown_layout():
    g = from_values([2, 1, -3])
    md = coh.table_markdown(coh.table_open(g, SS), 2)
    lines = md.strip().splitlines()
    assert lines[2].startswith("| 0 | 0 |")
    assert "| 2 | v_B | 8 |" in lines
    assert "| 4 | v_B(-1) ⊕ i_G(-2) | 8 + 1 |" in lines
