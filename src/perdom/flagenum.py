"""Brute-force flag geometry over GF(p^n).

Enumerates the flags of a prescribed type exactly once (canonical echelon
chains, largest member first), classifies one flag per Frobenius orbit,
picked member by member on the walk, against a degree-threshold family by
all prime-field rational subspaces, and reports exact counts.  Where the
meet row of a largest proper member bounds every rational degree below the
threshold, the flags under it are counted by a q-multinomial, not built.
flag_count and classification_tests price an enumeration without running it;
callers compare that price against their work budget first.
"""

from __future__ import annotations

import math

from .exactalg.gf import check_field, make_field
from .exactalg.qcount import capped, q_binomial, q_multinomial
from .exactalg.subspaces import SubspaceGF, enumerate_chains, rational_subspaces
from .records import Record
from .slopes import ClosedFamily, FilteredSpace, MeetStore, SlopeFunction, induced_degree


class CountReport(Record):
    def __init__(self, total: int, in_y: int, in_open: int):
        self.__dict__.update(total=total, in_y=in_y, in_open=in_open)


def flag_count(g: SlopeFunction, p: int, n: int, cap=None):
    """Exact number of flags of type g over GF(p^n) (q-multinomial), or
    math.inf once it passes cap; ConfigError if GF(p^n) cannot be built."""
    check_field(p, n)
    return q_multinomial(g.mults, p**n, cap)


def classification_tests(g: SlopeFunction, p: int, n: int, cap=None):
    """Flag/subspace tests needed to classify every flag of type g over
    GF(p^n) against every rational subspace, counted without enumerating:
    flag_count times len(rational_subspaces(p, g.d)), or math.inf once it
    or a partial sum of the subspace count passes cap."""
    flags = flag_count(g, p, n, cap)
    subspaces = 0
    for k in range(1, g.d):
        subspaces = capped(subspaces + q_binomial(g.d, k, p, cap), cap)
        if subspaces == math.inf:
            return subspaces
    return capped(flags * subspaces, cap)


def enumerate_flags(g: SlopeFunction, p: int, n: int, expand=None, store=None):
    """Yield every flag of type g over GF(p^n) exactly once, walking its
    chains of proper members from the largest down; all of them share one
    MeetStore, `store` when given.  Given `expand`, each member W the walk
    reaches is first passed to it with the state of the node above W (None
    for a largest proper member); it returns the state for the members under
    W, or None to leave out every flag through W."""
    store = MeetStore(make_field(p, n), g) if store is None else store
    field = store.field
    full = SubspaceGF.full(field, g.d)
    for chain in enumerate_chains(field, g.d, g.cumulative_dims()[:-1], expand):
        yield FilteredSpace(field, g, chain + (full,), store)


def _stable_tops(g: SlopeFunction, family: ClosedFamily, store: MeetStore, skipped: list):
    """flag_orbits' test of a largest proper member W, which it reaches once
    per Frobenius orbit of W: stable(W, orbit size) is true when every flag
    under W is off the closed stratum; None when no W can pass.
    With m = dim(U (x) k meet W) from the store, every flag under W has
    scale * deg U <= top * dim U + w_{r-1} m + sum_{j<r-1} w_j min(m, c_j)
    (jump weights w_j > 0, top = scale * v_r); W passes when that is below
    the family's least scaled degree for every rational U.  Its images pass
    with it, since the Frobenius fixes U, so each W that passes adds its
    q-multinomial of flags times its orbit size to skipped[0]."""
    *weights, last, top = g.jump_weights
    *inner, c = g.cumulative_dims()[:-1]
    least = family.least_scaled_degree(g.scale)

    def bound(dim, m):
        return top * dim + last * m + sum(w * min(m, cj) for w, cj in zip(weights, inner))

    # for each dim of U, the least meet with W at which U can reach `least`
    need = {dim: next((m for m in range(min(dim, c) + 1) if bound(dim, m) >= least), None)
            for dim in range(1, g.d)}
    if 0 in need.values():  # such a U reaches it under every W
        return None
    tests = [(u, need[u.dim]) for u in store.subspaces if need[u.dim] is not None]
    under = q_multinomial(g.mults[:-1], store.field.order)

    def stable(member: SubspaceGF, size: int) -> bool:
        if all(store.meet(member, u) < m for u, m in tests):
            skipped[0] += under * size
            return True
        return False

    return stable


def flag_orbits(g: SlopeFunction, p: int, n: int, family: ClosedFamily | None = None):
    """Yield (flag, orbit size) for one flag of each Frobenius orbit of the
    flags of type g over GF(p^n): the flag whose proper-member bases, read
    from the largest down, are least among its images under sigma: x -> x^p.
    The Frobenius fixes every rational subspace, so dim(U meet F_j) is the
    same for all flags of an orbit and so is every verdict built from it.
    The walk picks it node by node: a chain from the largest member down to
    W is fixed by sigma^s (s = 1 above the largest member), and a member V
    under W is expanded only when its basis is least among its images under
    sigma^s, read from the enumeration's MeetStore; the chain through V is
    then fixed by sigma^(s t), t being V's orbit size under sigma^s, and a
    flag's orbit size is its last such s.  At n = 1 every flag comes, size 1.
    Given a family, and where g has at least two proper members, the flags
    under a largest proper member whose meet dims show them all off the
    family's closed stratum (`_stable_tops`) are not built; they come last,
    as one (None, their number)."""
    store, skipped = MeetStore(make_field(p, n), g), [0]
    stable = None if family is None or len(g.pairs) < 3 else _stable_tops(g, family, store, skipped)
    # the walk is depth first, so the last period set is the yielded flag's
    period = 1

    def expand(member: SubspaceGF, above: int | None) -> int | None:
        nonlocal period
        step = 1 if above is None else above
        orbit = store.orbit(member.basis)[::step]
        if member.basis != min(orbit):
            return None
        size = len(set(orbit))
        if above is None and stable is not None and stable(member, size):
            return None
        period = step * size
        return period

    for flag in enumerate_flags(g, p, n, expand, store):
        yield flag, period
    if skipped[0]:
        yield None, skipped[0]


def count_points(g: SlopeFunction, family: ClosedFamily, p: int, n: int) -> CountReport:
    """Classify one flag of each Frobenius orbit of type g over GF(p^n)
    against the family, weighted by the orbit size.  A flag is unstable when
    some rational U has scale * deg U at least the family's scaled threshold;
    the flags `flag_orbits` certifies count as stable without a test."""
    subspaces = rational_subspaces(p, g.d)
    least = family.least_scaled_degree(g.scale)
    total = 0
    in_y = 0
    for flag, size in flag_orbits(g, p, n, family):
        total += size
        if flag is not None and any(induced_degree(flag, u) >= least for u in subspaces):
            in_y += size
    return CountReport(total=total, in_y=in_y, in_open=total - in_y)
