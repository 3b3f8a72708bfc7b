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

import sys
from fractions import Fraction
from math import ceil, floor, lcm
from operator import mul

from .errors import ConfigError
from .records import Record, lazy


class SlopeFunction(Record):
    """Pairs (value, multiplicity), values strictly decreasing."""

    def __init__(self, pairs: tuple[tuple[Fraction, int], ...]):
        self.__dict__.update(pairs=pairs, _types={})

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
        return tuple(x for x, m in self.pairs for _ in range(m))

    def type_of(self, graded: tuple[int, ...]) -> "Subfunction":
        """The subfunction with graded[j] copies of the j-th value, built once
        per graded-dims tuple."""
        h = self._types.get(graded)
        if h is None:
            values = []
            for (value, _), mult in zip(self.pairs, graded):
                values.extend([value] * mult)
            h = self._types[graded] = subfunction(values)
        return h

    @lazy
    def scale(self) -> int:
        """The least common denominator of the values."""
        return lcm(*(x.denominator for x, _ in self.pairs))

    @lazy
    def scaled_values(self) -> tuple[int, ...]:
        """scale times each value, an integer."""
        return tuple(int(x * self.scale) for x, _ in self.pairs)

    @lazy
    def jump_weights(self) -> tuple[int, ...]:
        """scale * (v_j - v_{j+1}) for each value but the last, then
        scale * v_r: the weights of dim(U meet F_j) in scale * deg U."""
        values = self.scaled_values
        return (*(a - b for a, b in zip(values, values[1:])), values[-1])

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
        try:
            shown = str(weighted)
        except ValueError:  # past the interpreter's integer digit limit
            shown = "a number too long to print"
        raise ConfigError(f"weighted sum of slopes must be 0, got {shown}")
    return g


def parse_value(text: str, what: str) -> Fraction:
    """A slope value or family threshold such as "3/2" or "-1e-3".  A decimal
    exponent past the integer digit limit (4300 where the interpreter sets
    none) is refused before the Fraction is built, which for "1e10000000"
    alone takes seconds; so is a value too long to print."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        _, marker, exponent = text.lower().partition("e")
        if marker and abs(int(exponent)) > limit:
            raise ConfigError(f"{what} {text!r} has an exponent past {limit} digits")
        value = Fraction(text)
        str(value)  # ValueError past the digit limit
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    return value


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


class Subfunction(Record):
    """A multiset of slope values, stored sorted decreasing."""

    def __init__(self, values: tuple[Fraction, ...]):
        self.__dict__.update(values=values)

    @property
    def length(self) -> int:
        return len(self.values)

    @lazy
    def degree(self) -> Fraction:
        return sum(self.values, Fraction(0))


def subfunction(values) -> Subfunction:
    return Subfunction(tuple(sorted((Fraction(v) for v in values), reverse=True)))


class ClosedFamily(Record):
    """Degree-threshold family: h belongs iff deg h > threshold (strict)
    or deg h >= threshold (non-strict).  Membership depends only on the
    degree, which is what makes the family closed."""

    def __init__(self, threshold: Fraction, strict: bool):
        self.__dict__.update(threshold=threshold, strict=strict)

    @classmethod
    def semistable(cls) -> "ClosedFamily":
        return cls(Fraction(0), True)

    def least_scaled_degree(self, scale: int) -> int:
        """The least integer m with m / scale in the family."""
        bound = self.threshold * scale
        return floor(bound) + 1 if self.strict else ceil(bound)

    def contains(self, h: Subfunction) -> bool:
        return h.degree > self.threshold if self.strict else h.degree >= self.threshold

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


def parse_family(spec: str) -> ClosedFamily:
    """Accepts "ss" or "ge:NUM/DEN" (degree at least NUM/DEN)."""
    if spec == "ss":
        return ClosedFamily.semistable()
    if isinstance(spec, str) and spec.startswith("ge:"):
        return ClosedFamily(parse_value(spec[3:], "family threshold"), strict=False)
    raise ConfigError(f"unknown family spec {spec!r}")


# -- filtered spaces ----------------------------------------------------------

UNKNOWN = 255  # a meet-row entry not computed yet; a dim never reaches it


class MeetStore:
    """The meet dims of one enumeration's members with the rational subspaces
    U of the prime-field d-space, which depend only on the pair.  `entries`
    maps a member basis to (images, row): its Frobenius images under
    x -> x^p, starting at the basis itself, and its meet row, a bytearray
    whose entry at the position of U in `rational_subspaces(p, d)` is
    dim(U (x) k meet member), or UNKNOWN.  A rational U is fixed by the
    Frobenius, so a member's images share its row.  At n = 1 every member is
    itself rational, so a U of a member dim of the slope's type can be one:
    one intersection fills dim(U meet W) in W's row and in U's."""

    def __init__(self, field: FieldSpec, slope: SlopeFunction):
        # imported here, not with this module, so the formula layers never load it
        from .exactalg.subspaces import rational_positions, rational_subspaces
        self.field, self.entries = field, {}
        self.subspaces = rational_subspaces(field.p, slope.d)
        self.positions = rational_positions(field.p, slope.d)
        self.mirrored = set(slope.cumulative_dims()[:-1]) if field.n == 1 else ()

    def _entry(self, basis) -> tuple[tuple, bytearray]:
        """The (images, row) filed under a member basis, made on first use for
        all of its Frobenius images at once: each image's tuple is the same
        orbit rotated to start at that image, and they share one row."""
        entry = self.entries.get(basis)
        if entry is None:
            images = [basis]
            for _ in range(self.field.n - 1):  # the n-th image is the member itself
                images.append(self.field.frobenius(images[-1]))
            row = bytearray([UNKNOWN]) * len(self.positions)
            for k, image in enumerate(images):
                self.entries[image] = (tuple(images[k:] + images[:k]), row)
            entry = self.entries[basis]
        return entry

    def orbit(self, basis) -> tuple:
        """The Frobenius images of a member basis, starting at the basis."""
        return self._entry(basis)[0]

    def row(self, basis) -> bytearray:
        """The meet row of a member basis, shared by its Frobenius images."""
        return self._entry(basis)[1]

    def meet(self, member: SubspaceGF, u: SubspaceGF, known: int | None = None) -> int:
        """dim(U (x) k meet member) for a proper nonzero rational U, read from
        the member's row or filled there (by `known`, else by one intersection)
        and, where U can be a member, in U's row."""
        i = self.positions[u.basis]
        row = self.row(member.basis)
        meet = row[i]
        if meet == UNKNOWN:
            if known is None:
                # GF(p) embeds as the constants 0..p-1, so u.basis is U (x) k's basis
                known = type(u)(self.field, member.ambient_dim, u.basis).intersect(member).dim
            meet = row[i] = known
            if u.dim in self.mirrored:
                self.row(u.basis)[self.positions[member.basis]] = meet
        return meet


class FilteredSpace(Record):
    """A flag of type g over an extension field: members[j] realizes the
    filtration step at the j-th largest slope value, dims grow by the
    multiplicities, and the last member is the full space.  Its meet dims
    are read from and filled into `store`, the MeetStore that all flags of
    one enumeration share (a fresh one by default)."""

    _fields = ("field", "slope", "members")

    def __init__(self, field: FieldSpec, slope: SlopeFunction,
                 members: tuple[SubspaceGF, ...], store: MeetStore | None = None):
        self.__dict__.update(field=field, slope=slope, members=members,
                             store=MeetStore(field, slope) if store is None else store)

    @lazy
    def rows(self) -> tuple[bytearray, ...]:
        """The meet rows of the proper members, resolved once per flag."""
        row = self.store.row
        return tuple(row(m.basis) for m in self.members[:-1])


def _graded_dims(flag: FilteredSpace, u: SubspaceGF) -> tuple[int, ...]:
    """Jump dims of u against the flag: dim(U meet F_j) - dim(U meet F_{j-1}).
    U must be a nonzero subspace of GF(p)^d, given over GF(p); anything else
    raises ConfigError.  The whole space has the multiplicities of g.  A
    proper U walks the members from the top down, stops at the first zero
    meet, and reads each dim(U (x) k meet F_j) from the meet rows at its
    position, filling a miss by one intersection and every member below a
    zero meet with 0, so all of the rows are filled there afterwards."""
    field, d = flag.field, flag.members[-1].ambient_dim
    rational = (u.field.p, u.field.n, u.ambient_dim) == (field.p, 1, d)
    if rational and u.dim == d:
        return flag.slope.mults
    store = flag.store
    i = store.positions.get(u.basis) if rational else None
    if i is None:
        raise ConfigError(f"induced type needs a nonzero subspace of GF({field.p})^{d}")
    rows, members = flag.rows, flag.members
    out = [0] * len(members)
    dim, j = u.dim, len(out) - 1
    while j and dim:
        meet = rows[j - 1][i]
        if meet == UNKNOWN:
            meet = store.meet(members[j - 1], u)
        out[j], dim = dim - meet, meet
        j -= 1
    out[j] = dim
    if not dim:
        for k in range(j):  # the members below the zero meet
            if rows[k][i] == UNKNOWN:
                store.meet(members[k], u, 0)
    return tuple(out)


def induced_type(flag: FilteredSpace, u: SubspaceGF) -> Subfunction:
    """Jump multiset a nonzero prime-field subspace inherits from the flag."""
    return flag.slope.type_of(_graded_dims(flag, u))


def induced_degree(flag: FilteredSpace, u: SubspaceGF) -> int:
    """slope.scale times the degree of the induced type, an integer."""
    return sum(map(mul, flag.slope.scaled_values, _graded_dims(flag, u)))


def scaled_degrees(flag: FilteredSpace) -> list[int]:
    """slope.scale times the induced degree of every rational subspace, in
    `rational_subspaces` order, read from the flag's meet rows by Abel
    summation: deg U = sum_j (v_j - v_{j+1}) dim(U meet F_j) + v_r dim U."""
    subs, rows = flag.store.subspaces, flag.rows
    for row in rows:
        i = row.find(UNKNOWN)
        while i >= 0:
            _graded_dims(flag, subs[i])  # fills column i
            i = row.find(UNKNOWN, i + 1)
    *weights, top = flag.slope.jump_weights
    out = [top * u.dim for u in subs]
    for weight, row in zip(weights, rows):
        out = [deg + weight * meet for deg, meet in zip(out, row)]
    return out
