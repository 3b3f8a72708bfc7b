"""The verification checks behind `verify-all` and the acceptance suite.

Each check is a function `check(quick, family, signs) -> bool` over a fixed
grid: the quick grid is a smoke test, the full grid covers every case of the
acceptance criteria.  An InternalCheckError raised inside a check counts as a
failure of that check.  `family` is the positive-degree family the stalk check
classifies against; `signs` is the induction-complex sign convention, where
"index" is the deliberately broken reading that must fail to compose to zero.
CHECKS lists the checks in report order.  The prefix map that
`check_prefix_map` checks, `kappa`, is built here, its only user.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from . import cohomology as coh, complexes as cx, flagenum, slopes, weyl
from .errors import ConfigError, InternalCheckError
from .slopes import SlopeFunction, Subfunction, from_values, subfunction
from .weyl import ParabolicType, Perm, act, bruhat_leq, double_coset_reps

SS = slopes.ClosedFamily.semistable()


def slope_grid(quick: bool, seed: int):
    """A regular and a non-regular slope function per d; the full grid goes
    up to d = 5 and adds one random slope function per d drawn from seed."""
    rng = random.Random(seed)
    for d in (2, 3) if quick else (2, 3, 4, 5):
        yield slopes.from_values(range(-(d - 1), d, 2))  # arithmetic, zero sum
        if d >= 3:
            yield slopes.from_values([1] * (d - 1) + [-(d - 1)])
        if not quick:
            yield slopes.random_slope_function(rng, d)


def dominates(h: Subfunction, other: Subfunction) -> bool:
    """h >= other: equal lengths and componentwise >= on sorted tuples."""
    if h.length != other.length:
        raise ConfigError("subfunction comparison needs equal lengths")
    return all(a >= b for a, b in zip(h.values, other.values))


@lru_cache(maxsize=None)
def enumerate_B(g: SlopeFunction, i: int) -> tuple[Subfunction, ...]:
    """All distinct length-i subfunctions of g, sorted decreasing."""
    if not 1 <= i <= g.d - 1:
        raise ConfigError(f"subfunction length {i} out of range 1..{g.d - 1}")
    mu = g.mu
    seen = {subfunction(c) for c in combinations(mu, i)}
    return tuple(sorted(seen, key=lambda h: h.values, reverse=True))


def h_w_i(mu, w: Perm, i: int) -> Subfunction:
    """Multiset of the first i entries of w acting on mu."""
    if not 0 <= i <= len(mu):
        raise ConfigError(f"prefix length {i} out of range")
    return subfunction(act(w, mu)[:i])


def kappa(i: int, mu) -> dict[Perm, Subfunction]:
    """The prefix-multiset map on minimal double-coset representatives.

    Checks that it is a bijection onto the length-i subfunctions and that
    it reverses order (Bruhat on representatives vs. dominance); either
    failure raises InternalCheckError.
    """
    reps = double_coset_reps(i, mu)
    targets = set(enumerate_B(from_values(mu), i))
    mapping = {w: h_w_i(mu, w, i) for w in reps}
    images = list(mapping.values())
    if len(set(images)) != len(images) or set(images) != targets:
        raise InternalCheckError(
            f"prefix map on double cosets is not a bijection for i={i}, mu={mu}"
        )
    for u in reps:
        for w in reps:
            if bruhat_leq(u, w) and not dominates(mapping[u], mapping[w]):
                raise InternalCheckError(
                    f"prefix map is not order-reversing at {u} <= {w}"
                )
    return mapping


def check_prefix_map(quick, family, signs) -> bool:
    for g in slope_grid(quick, 66):
        for i in range(1, g.d):
            kappa(i, g.mu)  # raises on failure
    return True


def check_parabolic_monotonicity(quick, family, signs) -> bool:
    ok = True
    for g in slope_grid(quick, 77):
        d = g.d
        cells = {w: (lw, set(iw.complement())) for w, lw, iw in coh.kostant_cells(g.mu, SS)}
        for w, (lw, delta) in cells.items():
            ok = ok and d - 1 - len(delta) <= lw
            for i in range(1, d):
                sw = weyl.compose(weyl.simple_reflection(i, d), w)
                if sw in cells and cells[sw][0] == lw + 1:
                    delta_sw = cells[sw][1]
                    ok = ok and delta_sw <= delta and (delta - delta_sw) <= {i}
    return ok


def check_vanishing(quick, family, signs) -> bool:
    rng = random.Random(20_2108)
    gs = []
    for _ in range(6 if quick else 20):
        d = rng.randint(2, 4 if quick else 6)
        gs.append(slopes.random_slope_function(rng, d))
    if not quick:
        rng = random.Random(415)
        gs += [slopes.random_slope_function(rng, d) for d in (2, 3, 4, 5, 6) * 4]
        gs += [slopes.drinfeld(d) for d in range(7, 13)]
    return all(coh.vanishing_check(coh.table_open(g, SS)).ok for g in gs)


def check_steinberg_dims(quick, family, signs) -> bool:
    if quick:
        grid = [(2, 2), (3, 2)]
    else:
        grid = [(d, q) for d in (2, 3, 4) for q in (2, 3)] + [(5, 2)]
    ok = True
    for d, q in grid:
        for ptype in weyl.parabolic_types(d):
            cx.check_dim_v(ptype, q)  # raises on mismatch
        ok = ok and coh.dim_v(ParabolicType.empty(d), q) == q ** (d * (d - 1) // 2)
    return ok


def check_induction_complexes(quick, family, signs) -> bool:
    if quick:
        grid = [(2, 2), (3, 2)]
    else:
        grid = [(d, q) for d in (2, 3) for q in (2, 3)] + [(4, 2), (4, 3), (4, 5), (5, 2)]
    ok = True
    for d, q in grid:
        for ptype in weyl.parabolic_types(d):
            if ptype.is_full or (signs != "position" and not cx.corruptible(ptype)):
                continue
            ok = ok and cx.induction_report(ptype, q, signs).passed
    return ok


def check_stalks(quick, family, signs) -> bool:
    """Every stalk on the closed stratum contracts; the flag count and the
    number of flags on the closed stratum match their predictions."""
    grid = [((2, 1, -3), 1)]
    if not quick:
        grid += [((2, 1, -3), 2), ((3, 1, -1, -3), 1)]
    for values, n in grid:
        g = slopes.from_values(values)
        predicted = (flagenum.flag_count(g, 2, n), coh.predicted_counts(g, family, 2, n)[1], 0)
        if cx.stalk_counts(g, family, 2, n) != predicted:
            return False
    return True


def check_closed_strata(quick, family, signs) -> bool:
    g = slopes.from_values([2, 1, -3])
    ok = True
    for i in range(1, 3):
        ptype = ParabolicType.from_gens(3, [j for j in range(1, 3) if j != i])
        geometric = cx.closed_stratum_count(g, SS, ptype, 2)
        predicted = sum(2 ** weyl.length(w) for w in coh.omega_set(g, SS, ptype))
        ok = ok and geometric == predicted
    return ok


CHECKS = (
    ("prefix-map bijection and order reversal", check_prefix_map),
    ("parabolic sets shrink along the order, with the length bound", check_parabolic_monotonicity),
    ("low-degree vanishing with a single Steinberg top", check_vanishing),
    ("Steinberg dimensions agree across both routes", check_steinberg_dims),
    ("induction complex homology concentrated on top", check_induction_complexes),
    ("stalk complexes contract with a witness", check_stalks),
    ("closed-stratum cell counts match the length generating sum", check_closed_strata),
)
