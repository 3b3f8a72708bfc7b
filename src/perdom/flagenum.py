"""Brute-force flag geometry over GF(p^n).

Enumerates every flag of a prescribed type exactly once (canonical echelon
chains, largest member first), classifies each against a degree-threshold
family using all prime-field rational subspaces, one flag per Frobenius
orbit, and reports exact counts.
flag_count and classification_tests price an enumeration without running it;
callers compare that price against their work budget first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactalg.gf import check_field, make_field
from .exactalg.qcount import capped, q_binomial, q_multinomial
from .exactalg.subspaces import SubspaceGF, enumerate_chains, rational_subspaces
from .slopes import ClosedFamily, FilteredSpace, SlopeFunction, induced_degree, meet_entry


@dataclass(frozen=True)
class CountReport:
    total: int
    in_y: int
    in_open: int


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


def enumerate_flags(g: SlopeFunction, p: int, n: int):
    """Yield every flag of type g over GF(p^n) exactly once; all of them
    share one table of meet dims."""
    field = make_field(p, n)
    proper_dims = g.cumulative_dims()[:-1]
    full = SubspaceGF.full(field, g.d)
    meets: dict = {}
    for chain in enumerate_chains(field, g.d, proper_dims):
        yield FilteredSpace(field, g, chain + (full,), meets)


def flag_orbits(g: SlopeFunction, p: int, n: int):
    """Yield (flag, orbit size) for one flag of each Frobenius orbit of the
    flags of type g over GF(p^n): the flag whose tuple of proper-member bases
    is least among its images under x -> x^p.  The Frobenius fixes every
    rational subspace, so dim(U meet F_j) is the same for all flags of an
    orbit and so is every verdict built from it.  Each member's images are
    read from the meet store (`meet_entry`), which computes them once per
    enumeration.  At n = 1 it is the identity: every flag, size 1."""
    for flag in enumerate_flags(g, p, n):
        columns = [meet_entry(flag, m.basis)[0] for m in flag.members[:-1]]
        key = tuple(column[0] for column in columns)
        for size in range(1, n + 1):  # the n-th image is the flag itself
            image = tuple(column[size % n] for column in columns)
            if image <= key:
                break
        if image == key:
            yield flag, size


def count_points(g: SlopeFunction, family: ClosedFamily, p: int, n: int) -> CountReport:
    """Classify one flag of each Frobenius orbit of type g over GF(p^n)
    against the family, weighted by the orbit size.  A flag is unstable when
    some rational U has scale * deg U at least the family's scaled threshold."""
    subspaces = rational_subspaces(p, g.d)
    least = family.least_scaled_degree(g.scale)
    total = 0
    in_y = 0
    for flag, size in flag_orbits(g, p, n):
        total += size
        if any(induced_degree(flag, u) >= least for u in subspaces):
            in_y += size
    return CountReport(total=total, in_y=in_y, in_open=total - in_y)
