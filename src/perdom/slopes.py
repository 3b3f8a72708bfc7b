"""Slope functions, subfunctions, filtered spaces and their degrees.

A slope function g prescribes the jump values of a filtration together
with multiplicities: the values are strictly decreasing rationals, the
multiplicities sum to the ambient dimension d, and the weighted sum of the
values vanishes (so the whole space has slope zero).

A subfunction is a nonempty proper submultiset of the jump values; its
degree is the sum of its values.  Closed families of subfunctions are,
after unwinding the definition, exactly the degree-threshold families, so
they are stored as a threshold plus a strictness flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations

from .errors import ConfigError, InternalCheckError
from .exactalg.gf import FieldSpec
from .exactalg.subspaces import SubspaceGF
from .weyl import (
    Perm,
    ParabolicType,
    act,
    bruhat_leq,
    double_coset_reps,
    inverse,
    is_kostant,
)


@dataclass(frozen=True)
class SlopeFunction:
    """Pairs (value, multiplicity), values strictly decreasing."""

    pairs: tuple[tuple[Fraction, int], ...]

    @property
    def d(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def mults(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.pairs)

    @property
    def mu(self) -> tuple[Fraction, ...]:
        """The weakly decreasing d-vector of values with multiplicity."""
        out = []
        for x, m in self.pairs:
            out.extend([x] * m)
        return tuple(out)

    @cached_property
    def scaled_values(self) -> tuple[int, tuple[int, ...]]:
        """(D, the values times D) for the least common denominator D."""
        den = math.lcm(*(x.denominator for x in self.values))
        return den, tuple(int(x * den) for x in self.values)

    def cumulative_dims(self) -> tuple[int, ...]:
        out = []
        total = 0
        for _, m in self.pairs:
            total += m
            out.append(total)
        return tuple(out)

    def as_config(self) -> list[list[int]]:
        return [[x.numerator, x.denominator, m] for x, m in self.pairs]


def validate(pairs) -> SlopeFunction:
    """Normalize and validate raw (value, multiplicity) pairs."""
    norm = []
    for value, mult in pairs:
        value = Fraction(value)
        mult = int(mult)
        if mult <= 0:
            raise ConfigError(f"multiplicity must be positive, got {mult}")
        norm.append((value, mult))
    norm.sort(key=lambda vm: vm[0], reverse=True)
    values = [x for x, _ in norm]
    if len(set(values)) != len(values):
        raise ConfigError("slope values must be pairwise distinct")
    g = SlopeFunction(tuple(norm))
    if g.d < 1:
        raise ConfigError("slope function must have positive total multiplicity")
    weighted = sum((x * m for x, m in norm), Fraction(0))
    if weighted != 0:
        raise ConfigError(f"weighted sum of slopes must be 0, got {weighted}")
    return g


def from_values(values) -> SlopeFunction:
    """Build from a value list with repetition (multiplicities inferred)."""
    counts: dict[Fraction, int] = {}
    for v in values:
        v = Fraction(v)
        counts[v] = counts.get(v, 0) + 1
    return validate(tuple(counts.items()))


def drinfeld(d: int) -> SlopeFunction:
    """One jump of multiplicity 1 above a flat tail: values (d-1, -1^(d-1))."""
    if d < 2:
        raise ConfigError("the hyperplane-complement type needs d >= 2")
    return validate(((Fraction(d - 1), 1), (Fraction(-1), d - 1)))


def random_slope_function(rng, d: int) -> SlopeFunction:
    """A random admissible slope function: at least two distinct values,
    multiplicities summing to d, weighted sum zero.  Drawing integer seeds
    and shifting by the mean keeps the values distinct and ordered."""
    if d < 2:
        raise ConfigError("need d >= 2 for a nondegenerate slope function")
    r = rng.randint(2, min(d, 4))
    raw = sorted(rng.sample(range(-9, 10), r), reverse=True)
    mults = [1] * r
    for _ in range(d - r):
        mults[rng.randrange(r)] += 1
    weighted = sum(Fraction(x) * m for x, m in zip(raw, mults))
    shift = weighted / d
    pairs = tuple((Fraction(x) - shift, m) for x, m in zip(raw, mults))
    return validate(pairs)


def parse_g_config(data) -> SlopeFunction:
    """Config form: list of [numerator, denominator, multiplicity]."""
    try:
        pairs = tuple((Fraction(int(n), int(den)), int(m)) for n, den, m in data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed slope config: {exc}") from exc
    return validate(pairs)


@dataclass(frozen=True)
class Subfunction:
    """A multiset of slope values, stored sorted decreasing."""

    values: tuple[Fraction, ...]

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def degree(self) -> Fraction:
        return sum(self.values, Fraction(0))


def subfunction(values) -> Subfunction:
    return Subfunction(tuple(sorted((Fraction(v) for v in values), reverse=True)))


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


@dataclass(frozen=True)
class ClosedFamily:
    """Degree-threshold family: h belongs iff deg h > threshold (strict)
    or deg h >= threshold (non-strict).  Membership depends only on the
    degree, which is what makes the family closed."""

    threshold: Fraction
    strict: bool

    @classmethod
    def semistable(cls) -> "ClosedFamily":
        return cls(Fraction(0), True)

    def contains_degree(self, degree: Fraction) -> bool:
        return degree > self.threshold if self.strict else degree >= self.threshold

    def contains(self, h: Subfunction) -> bool:
        return self.contains_degree(h.degree)

    @property
    def within_ss(self) -> bool:
        """Whether every member has positive degree."""
        return self.threshold > 0 or (self.threshold >= 0 and self.strict)

    def describe(self) -> str:
        if self == ClosedFamily.semistable():
            return "ss"
        op = ">" if self.strict else ">="
        return f"deg {op} {self.threshold}"

    def as_json(self):
        return {
            "threshold": [self.threshold.numerator, self.threshold.denominator],
            "strict": self.strict,
        }


def parse_family(spec) -> ClosedFamily:
    """Accepts "ss", "ge:NUM/DEN", or {"threshold": [num, den], "strict": b}."""
    if isinstance(spec, ClosedFamily):
        return spec
    if isinstance(spec, str):
        if spec == "ss":
            return ClosedFamily.semistable()
        if spec.startswith("ge:"):
            try:
                return ClosedFamily(Fraction(spec[3:]), strict=False)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad family threshold {spec!r}") from exc
        raise ConfigError(f"unknown family spec {spec!r}")
    if isinstance(spec, dict):
        try:
            num, den = spec["threshold"]
            return ClosedFamily(Fraction(int(num), int(den)), bool(spec["strict"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad family config {spec!r}") from exc
    raise ConfigError(f"unknown family spec {spec!r}")


# -- Weyl-side subfunctions --------------------------------------------------


def h_w_i(mu, w: Perm, i: int) -> Subfunction:
    """Multiset of the first i entries of w acting on mu."""
    if not 0 <= i <= len(mu):
        raise ConfigError(f"prefix length {i} out of range")
    inv = inverse(w)
    return subfunction(mu[inv[k] - 1] for k in range(i))


def kappa(i: int, mu) -> dict[Perm, Subfunction]:
    """The prefix-multiset map on minimal double-coset representatives.

    Checks that it is a bijection onto the length-i subfunctions and that
    it reverses order (Bruhat on representatives vs. dominance); either
    failure raises InternalCheckError.
    """
    reps = double_coset_reps(i, mu)
    g = from_mu(mu)
    targets = set(enumerate_B(g, i))
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


def from_mu(mu) -> SlopeFunction:
    """Slope function with the multiset of entries of mu (must sum to 0)."""
    return from_values(mu)


def I_w(w: Perm, mu, family: ClosedFamily) -> ParabolicType:
    """Reflections s_i whose length-i prefix subfunction is outside the family.

    The family depends only on the degree, and the degree of h_w_i is the
    i-th partial sum of w.mu.  Only defined for minimal coset representatives;
    anything else is an error rather than a silent normalization.
    """
    if not is_kostant(w, mu):
        raise ConfigError(f"{w} is not a minimal coset representative for mu={mu}")
    return outside_family(act(w, mu), family)


def outside_family(w_mu, family: ClosedFamily) -> ParabolicType:
    """Reflections s_i whose i-th partial sum of w.mu lies outside the family."""
    sums = accumulate(w_mu[:-1])
    gens = [i for i, total in enumerate(sums, start=1) if not family.contains_degree(total)]
    return ParabolicType.from_gens(len(w_mu), gens)


def delta_w(w: Perm, mu, family: ClosedFamily) -> tuple[int, ...]:
    """Complement of I_w: root indices alpha_i with s_i outside I_w."""
    return I_w(w, mu, family).complement()


# -- filtered spaces ----------------------------------------------------------


@dataclass(frozen=True)
class FilteredSpace:
    """A flag of type g over an extension field.

    members[j] realizes the filtration step at the j-th largest slope value;
    dims grow by the multiplicities, and the last member is the full space.
    """

    field: FieldSpec
    slope: SlopeFunction
    members: tuple[SubspaceGF, ...]


def _graded_dims(flag: FilteredSpace, u: SubspaceGF):
    """Jump dims of u against the flag: dim(U meet F_j) - dim(U meet F_{j-1}).
    Intersects from the top down, U meet F_j = (U meet F_{j+1}) meet F_j, and
    stops at the first zero meet; the last member is the full space."""
    out = [0] * len(flag.members)
    meet = u.extend_scalars(flag.field)
    dim, j = meet.dim, len(out) - 1
    while j and dim:
        meet = meet.intersect(flag.members[j - 1])
        out[j], dim = dim - meet.dim, meet.dim
        j -= 1
    out[j] = dim
    return out


def induced_type(flag: FilteredSpace, u: SubspaceGF) -> Subfunction:
    """Jump multiset a prime-field subspace inherits from the flag."""
    if u.dim < 1:
        raise ConfigError("induced type needs a nonzero subspace")
    values = []
    for value, mult in zip(flag.slope.values, _graded_dims(flag, u)):
        values.extend([value] * mult)
    return subfunction(values)


def induced_degree(flag: FilteredSpace, u: SubspaceGF):
    """Degree of the induced type, computed without building the multiset."""
    den, values = flag.slope.scaled_values
    return Fraction(sum(v * m for v, m in zip(values, _graded_dims(flag, u))), den)
