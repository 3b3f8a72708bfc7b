"""Acceptance suite: the ten end-to-end checks, one test each.

Every check is exact (integer or rational equality); each prints a
PASS/FAIL line with its runtime.  Run with `pytest tests/test_acceptance.py -s`
to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from perdom import cohomology as coh
from perdom import complexes as cx
from perdom import flagenum
from perdom.cli import main as cli_main
from perdom.slopes import (
    ClosedFamily,
    delta_w,
    drinfeld,
    from_values,
    kappa,
    random_slope_function,
)
from perdom.weyl import (
    ParabolicType,
    compose,
    identity,
    is_kostant,
    kostant_reps,
    length,
    simple_reflection,
)

SS = ClosedFamily.semistable()


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label} [{time.perf_counter() - start:.2f}s]")
        raise
    print(f"PASS criterion {number}: {label} [{time.perf_counter() - start:.2f}s]")


def suite_slope_functions(d, rng):
    """Regular, non-regular, and one random admissible slope function."""
    out = [from_values(range(-(d - 1), d, 2))]
    if d >= 3:
        out.append(from_values([1] * (d - 1) + [-(d - 1)]))
    out.append(random_slope_function(rng, d))
    return out


def test_criterion_1_rank_three_table(tmp_path):
    with criterion(1, "rank-3 mixed-slope table reproduced exactly"):
        target = tmp_path / "table.json"
        code = cli_main(
            ["table", "--g", "2,1,-3", "--q", "2", "--family", "ss",
             "--json", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())["open"]
        by_degree = {}
        for e in payload["entries"]:
            by_degree.setdefault(e["degree"], []).append(e)
        assert sorted(by_degree) == [2, 3, 4, 5, 6]
        def dims_twists(deg):
            return sorted((e["dim_at_q"], e["twist"]) for e in by_degree[deg])
        assert dims_twists(2) == [(8, 0)]
        assert dims_twists(3) == [(6, -1)]
        assert dims_twists(4) == [(1, -2), (8, -1)]
        assert dims_twists(5) == [(6, -2)]
        assert dims_twists(6) == [(1, -3)]
        # parabolic labels in degrees 3 and 5: a maximal proper subset; both
        # choices have dimension 6, the documented labeling ambiguity
        for deg in (3, 5):
            (entry,) = by_degree[deg]
            assert entry["rep"]["kind"] == "steinberg_quotient"
            assert entry["rep"]["parabolic"] in ([1], [2])


def test_criterion_2_hyperplane_complement_tower():
    with criterion(2, "hyperplane-complement formula structurally exact for d=2..6"):
        for d in range(2, 7):
            table = coh.table_open(drinfeld(d), SS)
            assert len(table.entries) == d
            w = identity(d)
            for i, entry in enumerate(table.entries):
                assert entry.w == w
                assert entry.length == i
                assert entry.i_w.composition() == (i + 1,) + (1,) * (d - i - 1)
                assert entry.delta == tuple(range(i + 1, d))
                assert entry.degree == (d - 1) + i
                assert entry.twist == -i
                assert entry.rep.kind == (
                    "steinberg_quotient" if i < d - 1 else "induced"
                )
                if i < d - 1:
                    w = compose(simple_reflection(i + 1, d), w)


TRACE_GRID = [
    ([1, -1], 2, (1, 2, 3)),
    ([1, -1], 3, (1, 2, 3)),
    ([2, 1, -3], 2, (1, 2, 3)),
    ([1, 1, -2], 2, (1, 2)),
    ([1, 1, -1, -1], 2, (1, 2)),
]

EXPECTED_OPEN = {
    (tuple([1, -1]), 2): {1: 0, 2: 2, 3: 6},
    (tuple([1, -1]), 3): {1: 0, 2: 6, 3: 24},
    (tuple([2, 1, -3]), 2): {1: 0, 2: 0, 3: 216},
}


def test_criterion_3_trace_consistency():
    with criterion(3, "Frobenius traces equal brute-force counts on the full grid"):
        for values, q, ns in TRACE_GRID:
            g = from_values(values)
            open_table = coh.table_open(g, SS)
            closed_table = coh.table_closed(g, SS)
            for n in ns:
                predicted_open = coh.trace_prediction(open_table, q, n)
                predicted_closed = coh.trace_prediction(closed_table, q, n)
                cell_total = sum(q ** (n * length(w)) for w in kostant_reps(g.mu))
                report = flagenum.count_points(g, SS, q, n)
                assert predicted_open == report.in_open
                assert predicted_closed == report.in_y
                assert predicted_open + predicted_closed == cell_total == report.total
                expected = EXPECTED_OPEN.get((tuple(values), q))
                if expected is not None:
                    assert predicted_open == expected[n]


def test_criterion_4_vanishing_on_randomized_slopes():
    with criterion(4, "low degrees vanish, one untwisted Steinberg at the top"):
        rng = random.Random(415)
        dims = [2, 3, 4, 5, 6] * 4  # 20 draws covering every rank
        for d in dims:
            g = random_slope_function(rng, d)
            report = coh.vanishing_check(coh.table_open(g, SS))
            assert report.ok, (g.pairs, report.failures)


def test_criterion_5_degree_reversal_pair():
    with criterion(5, "Bruhat-smaller element with larger induced degree (8, 7)"):
        mu = tuple(map(Fraction, (4, 3, 2, 1, -10)))
        assert coh.degree_reversal_pair(mu) == (8, 7)


def test_criterion_6_prefix_map_bijection_order_reversal():
    with criterion(6, "prefix map bijective and order-reversing, d <= 5"):
        rng = random.Random(66)
        for d in range(2, 6):
            for g in suite_slope_functions(d, rng):
                for i in range(1, d):
                    kappa(i, g.mu)  # raises on any failure


def test_criterion_7_parabolic_monotonicity_lemmas():
    with criterion(7, "parabolic sets shrink one step at a time, length bound holds"):
        rng = random.Random(77)
        for d in range(2, 6):
            for g in suite_slope_functions(d, rng):
                mu = g.mu
                for w in kostant_reps(mu):
                    delta = set(delta_w(w, mu, SS))
                    assert len(set(range(1, d)) - delta) <= length(w)
                    for i in range(1, d):
                        sw = compose(simple_reflection(i, d), w)
                        if is_kostant(sw, mu) and length(sw) == length(w) + 1:
                            delta_sw = set(delta_w(sw, mu, SS))
                            assert delta_sw <= delta
                            assert delta - delta_sw <= {i}


def all_parabolic_subsets(d):
    from itertools import combinations

    for r in range(d):
        for gens in combinations(range(1, d), r):
            yield ParabolicType.from_gens(d, gens)


def test_criterion_8_representation_dimensions_two_routes():
    with criterion(8, "Steinberg dimensions: Moebius route equals rank route"):
        grid = [(d, q) for d in (2, 3, 4) for q in (2, 3)] + [(5, 2)]
        for d, q in grid:
            for ptype in all_parabolic_subsets(d):
                coh.check_dim_v(ptype, q)
            assert coh.dim_v(ParabolicType.empty(d), q) == q ** (d * (d - 1) // 2)


def test_criterion_9_induction_complex_homology():
    with criterion(9, "induction complexes acyclic below the Steinberg top"):
        grid = [(d, q) for d in (2, 3) for q in (2, 3)] + [(4, 2), (4, 3)]
        for d, q in grid:
            for i0 in all_parabolic_subsets(d):
                if i0.is_full:
                    continue
                report = cx.verify_K(i0, q)
                assert report.passed, (d, q, i0.gens, report.homology)


def test_criterion_10_stalk_contractions():
    with criterion(10, "stalk complexes acyclic with contraction witnesses"):
        g = from_values([2, 1, -3])
        for n, expected_flags in ((1, 21), (2, 105)):
            flags = list(flagenum.enumerate_flags(g, 2, n))
            assert len(flags) == expected_flags
            for flag in flags:
                report = cx.stalk_report(flag, SS)
                assert report.in_y  # the open stratum is empty here
                assert all(h == 0 for h in report.homology)
                assert report.witness_ok
