"""The formula engine: predicted cohomology tables and their consequences.

For a slope function g and a closed family contained in the positive-degree
family, the compactly supported cohomology of the open stratum is a direct
sum over the minimal coset representatives w: the generalized Steinberg
module of the parabolic attached to w, Tate-twisted by -length(w), placed
in degree 2*length(w) + #(missing reflections).  The closed complement has
a companion table with induced modules.  Both tables convert to exact
point-count predictions by taking Frobenius traces.  The dimensions are
weyl's q-binomial counts and their Moebius inversion; complexes checks them by
exact rank.  This module, like slopes and weyl below it, imports nothing from
the finite-field or enumeration layers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import ConfigError
from .exactalg.qcount import require_prime
from .records import Record
from .slopes import ClosedFamily, SlopeFunction
from .weyl import ParabolicType, Perm, act, dim_induced, dim_v, kostant_reps, length

INDUCED = "induced"
STEINBERG_QUOTIENT = "steinberg_quotient"


class RepLabel(Record):
    """i^G_P (induced) or v^G_P (steinberg_quotient) for a standard parabolic."""

    def __init__(self, kind: str, parabolic: ParabolicType):
        self.__dict__.update(kind=kind, parabolic=parabolic)


def rep_label(kind: str, parabolic: ParabolicType) -> RepLabel:
    # v for the full set equals the trivial module; normalize to one label
    if parabolic.is_full:
        kind = INDUCED
    if kind not in (INDUCED, STEINBERG_QUOTIENT):
        raise ConfigError(f"unknown representation kind {kind!r}")
    return RepLabel(kind, parabolic)


def rep_dim(rep: RepLabel, q: int) -> int:
    if rep.kind == INDUCED:
        return dim_induced(rep.parabolic, q)
    return dim_v(rep.parabolic, q)


class CohEntry(Record):
    def __init__(self, w: Perm, length: int, i_w: ParabolicType, delta: tuple[int, ...],
                 degree: int, twist: int, rep: RepLabel):
        self.__dict__.update(w=w, length=length, i_w=i_w, delta=delta, degree=degree,
                             twist=twist, rep=rep)


class CohTable(Record):
    def __init__(self, variant: str, g: SlopeFunction, family: ClosedFamily,
                 entries: tuple[CohEntry, ...]):
        self.__dict__.update(variant=variant, g=g, family=family, entries=entries)

    def max_degree(self) -> int:
        return max((e.degree for e in self.entries), default=-1)

    def by_degree(self) -> dict[int, tuple[CohEntry, ...]]:
        out: dict[int, list[CohEntry]] = {}
        for e in self.entries:
            out.setdefault(e.degree, []).append(e)
        return {deg: tuple(es) for deg, es in sorted(out.items())}


def _require_subfamily_of_ss(family: ClosedFamily):
    if not family.within_ss:
        raise ConfigError(
            f"family ({family.describe()}) admits nonpositive degrees; "
            "the cohomology tables need a family of positive degrees"
        )


def _sorted_entries(entries) -> tuple[CohEntry, ...]:
    return tuple(sorted(entries, key=lambda e: (e.degree, e.length, e.w)))


@lru_cache(maxsize=None)
def kostant_cells(g: SlopeFunction,
                  family: ClosedFamily) -> tuple[tuple[Perm, int, ParabolicType], ...]:
    """(w, length(w), I_w) for every minimal coset representative of g's
    block sizes.  I_w holds the s_i whose prefix subfunction of w.mu is
    outside the family: the family depends only on the degree, and scale
    times the degree of that prefix (`checks.h_w_i`) is the i-th partial
    sum of w acting on the scaled mu, an integer compared with the family's
    least scaled degree.  The tables, the cell total, omega_set and the
    parabolic-monotonicity check all read this pass."""
    scaled_mu = tuple(x for x, m in zip(g.scaled_values, g.mults) for _ in range(m))
    least = family.least_scaled_degree(g.scale)
    cells = []
    for w in kostant_reps(g.mults):
        sums = accumulate(act(w, scaled_mu)[:-1])
        gens = tuple(i for i, total in enumerate(sums, start=1) if total < least)
        cells.append((w, length(w), ParabolicType(g.d, gens)))
    return tuple(cells)


def table_open(g: SlopeFunction, family: ClosedFamily) -> CohTable:
    """Cohomology table of the open stratum: one summand per representative."""
    _require_subfamily_of_ss(family)
    entries = []
    for w, lw, iw in kostant_cells(g, family):
        delta = iw.complement()
        steinberg = rep_label(STEINBERG_QUOTIENT, iw)
        entries.append(CohEntry(w, lw, iw, delta, 2 * lw + len(delta), -lw, steinberg))
    return CohTable("open", g, family, _sorted_entries(entries))


def table_closed(g: SlopeFunction, family: ClosedFamily) -> CohTable:
    """Cohomology table of the closed union of unstable strata."""
    _require_subfamily_of_ss(family)
    trivial = rep_label(INDUCED, ParabolicType.full(g.d))
    entries = []
    for w, lw, iw in kostant_cells(g, family):
        delta = iw.complement()
        missing = len(delta)
        if missing == 1:
            entries.append(CohEntry(w, lw, iw, delta, 2 * lw, -lw, rep_label(INDUCED, iw)))
        elif missing > 1:
            steinberg = rep_label(STEINBERG_QUOTIENT, iw)
            entries.append(CohEntry(w, lw, iw, delta, 2 * lw, -lw, trivial))
            entries.append(CohEntry(w, lw, iw, delta, 2 * lw + missing - 1, -lw, steinberg))
    return CohTable("closed", g, family, _sorted_entries(entries))


def trace_prediction(table: CohTable, q: int, n: int) -> int:
    """Lefschetz evaluation over GF(q^n): a summand in degree D with twist m
    contributes (-1)^D * dim * q^(-m*n)."""
    require_prime(q)
    total = 0
    for e in table.entries:
        sign = -1 if e.degree % 2 else 1
        total += sign * rep_dim(e.rep, q) * q ** (n * (-e.twist))
    return total


class VanishingReport(Record):
    def __init__(self, ok: bool, expected_degree: int, failures: tuple[str, ...]):
        self.__dict__.update(ok=ok, expected_degree=expected_degree, failures=failures)


def vanishing_check(table: CohTable) -> VanishingReport:
    """Check the low-degree vanishing: nothing below degree d-1, and degree
    d-1 exactly one untwisted full-Steinberg summand."""
    if table.variant != "open" or table.family != ClosedFamily.semistable():
        raise ConfigError("the vanishing statement applies to the open table at ss")
    d = table.g.d
    failures = []
    below = [e for e in table.entries if e.degree < d - 1]
    if below:
        failures.append(f"{len(below)} entries below degree {d - 1}")
    at = [e for e in table.entries if e.degree == d - 1]
    expected = rep_label(STEINBERG_QUOTIENT, ParabolicType.empty(d))
    if len(at) != 1 or at[0].rep != expected or at[0].twist != 0:
        failures.append(f"degree {d - 1} is {at}, expected one untwisted {expected}")
    return VanishingReport(ok=not failures, expected_degree=d - 1, failures=tuple(failures))


def predicted_counts(g: SlopeFunction, family: ClosedFamily, q: int, n: int) -> tuple[int, int, int]:
    """(open, closed, total) point-count predictions over GF(q^n)."""
    open_trace = trace_prediction(table_open(g, family), q, n)
    closed_trace = trace_prediction(table_closed(g, family), q, n)
    total = sum(q ** (n * lw) for _w, lw, _iw in kostant_cells(g, family))
    return open_trace, closed_trace, total


def omega_set(g: SlopeFunction, family: ClosedFamily, parabolic: ParabolicType) -> tuple[Perm, ...]:
    """Representatives whose attached parabolic set sits inside the given one."""
    return tuple(
        w for w, _lw, iw in kostant_cells(g, family) if iw.issubset(parabolic)
    )


# -- serialization -------------------------------------------------------------


def rep_json(rep: RepLabel) -> dict:
    return {"kind": rep.kind, "parabolic": list(rep.parabolic.gens)}


def rep_str(rep: RepLabel, twist: int = 0) -> str:
    letter = "i" if rep.kind == INDUCED else "v"
    p = rep.parabolic
    if p.is_full:
        sub = "G"
    elif not p.gens:
        sub = "B"
    else:
        sub = "P{" + ",".join(f"s{i}" for i in p.gens) + "}"
    out = f"{letter}_{sub}"
    if twist:
        out += f"({twist})"
    return out


def table_json(table: CohTable, q: int, n_values=()) -> dict:
    entries = []
    for e in table.entries:
        entries.append(
            {
                "w": list(e.w),
                "length": e.length,
                "I_w": list(e.i_w.gens),
                "Delta_w": list(e.delta),
                "degree": e.degree,
                "twist": e.twist,
                "rep": rep_json(e.rep),
                "dim_at_q": rep_dim(e.rep, q),
            }
        )
    return {
        "variant": table.variant,
        "d": table.g.d,
        "q": q,
        "g": table.g.as_config(),
        "family": table.family.as_json(),
        "entries": entries,
        "traces": {str(n): trace_prediction(table, q, n) for n in n_values},
    }


def table_markdown(table: CohTable, q: int) -> str:
    """Degree-by-degree table with direct sums in the cells."""
    lines = ["| degree | cohomology | dim at q=%d |" % q, "| --- | --- | --- |"]
    grouped = table.by_degree()
    top = table.max_degree()
    for degree in range(0, top + 1):
        entries = grouped.get(degree, ())
        if entries:
            cell = " ⊕ ".join(rep_str(e.rep, e.twist) for e in entries)
            dim = " + ".join(str(rep_dim(e.rep, q)) for e in entries)
        else:
            cell, dim = "0", "0"
        lines.append(f"| {degree} | {cell} | {dim} |")
    return "\n".join(lines) + "\n"
