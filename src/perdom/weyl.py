"""Symmetric-group combinatorics for GL_d.

Permutations are tuples in one-line notation with values 1..d, composed as
functions: compose(u, v)(i) = u(v(i)).  Simple reflections s_1..s_{d-1} are
the adjacent transpositions; length is the inversion count.

A composition of d (block sizes, such as a slope function's
multiplicities) names the parabolic subgroup fixing its blocks of
positions; the minimal-length coset representatives modulo it are the
permutations increasing on each block.  A parabolic type's representation
dimensions, dim_induced and dim_v, are q-counts of its partial flags.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import ConfigError, InternalCheckError
from .exactalg.qcount import q_binomial, q_multinomial, require_prime
from .records import Record, setfield

Perm = tuple[int, ...]


def identity(d: int) -> Perm:
    return tuple(range(1, d + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """(uv)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ConfigError("permutation size mismatch")
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, x in enumerate(w):
        inv[x - 1] = i + 1
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions."""
    d = len(w)
    return sum(1 for i in range(d) for j in range(i + 1, d) if w[i] > w[j])


def simple_reflection(i: int, d: int) -> Perm:
    if not 1 <= i <= d - 1:
        raise ConfigError(f"reflection index {i} out of range for d={d}")
    w = list(range(1, d + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order via the sorted-prefix (dominance) criterion:
    u <= w iff for every i the sorted i-prefix of u is entrywise <= that of w.
    """
    if len(u) != len(w):
        raise ConfigError("permutation size mismatch")
    d = len(u)
    for i in range(1, d):
        for a, b in zip(sorted(u[:i]), sorted(w[:i])):
            if a > b:
                return False
    return True


# -- the action on vectors ----------------------------------------------------


def act(w: Perm, mu) -> tuple:
    """Permutation action: entry k of w.mu is mu[w^{-1}(k)]."""
    if len(w) != len(mu):
        raise ConfigError("vector size mismatch")
    inv = inverse(w)
    return tuple(mu[inv[k] - 1] for k in range(len(mu)))


class ParabolicType(Record):
    """A subset of the simple reflections s_1..s_{d-1} (1-based indices)."""

    def __init__(self, d: int, gens: tuple[int, ...]):
        setfield(self, "d", d)
        setfield(self, "gens", gens)

    # the cache key of dim_v and dim_induced: a field tuple beats Record's attrgetter
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.d, self.gens) == (other.d, other.gens)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.gens))

    @classmethod
    def from_gens(cls, d: int, gens) -> "ParabolicType":
        gens = tuple(sorted(set(int(i) for i in gens)))
        if gens and (gens[0] < 1 or gens[-1] > d - 1):
            raise ConfigError(f"reflection indices {gens} out of range for d={d}")
        return cls(d, gens)

    @classmethod
    def empty(cls, d: int) -> "ParabolicType":
        return cls(d, ())

    @classmethod
    def full(cls, d: int) -> "ParabolicType":
        return cls(d, tuple(range(1, d)))

    @property
    def is_full(self) -> bool:
        return len(self.gens) == self.d - 1

    def complement(self) -> tuple[int, ...]:
        present = set(self.gens)
        return tuple(i for i in range(1, self.d) if i not in present)

    def composition(self) -> tuple[int, ...]:
        """Block sizes of 1..d cut at the missing reflections."""
        cuts = (0, *self.complement(), self.d)
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    def issubset(self, other: "ParabolicType") -> bool:
        return self.d == other.d and set(self.gens) <= set(other.gens)

    def union(self, indices) -> "ParabolicType":
        return ParabolicType.from_gens(self.d, set(self.gens) | set(indices))


@lru_cache(maxsize=None)
def dim_induced(parabolic: ParabolicType, q: int) -> int:
    """Number of partial flags of the parabolic's block type over GF(q)."""
    require_prime(q)
    return q_multinomial(parabolic.composition(), q)


@lru_cache(maxsize=None)
def dim_v(parabolic: ParabolicType, q: int) -> int:
    """Dimension of the generalized Steinberg module: the Moebius sum of the
    induced dims over the supersets of the parabolic's reflection set, with
    its terms grouped by their largest kept cut.  Over the cuts 0 = k_0 <
    k_1 < ... < k_m < k_(m+1) = d, F(0) = 1 and F(j) = sum over i < j of
    (-1)^(j-1-i) [k_j; k_i]_q F(i), and the dimension is F(m+1)."""
    require_prime(q)
    cuts = (0, *parabolic.complement(), parabolic.d)
    f = [1]
    for j in range(1, len(cuts)):
        f.append(sum((-1) ** (j - 1 - i) * q_binomial(cuts[j], cuts[i], q) * f[i]
                     for i in range(j)))
    if f[-1] <= 0:
        raise InternalCheckError(f"nonpositive Steinberg dimension for {parabolic}")
    return f[-1]


def parabolic_types(d: int):
    """All reflection subsets of S_d, by size and then lexicographically."""
    for r in range(d):
        for gens in combinations(range(1, d), r):
            yield ParabolicType(d, gens)


def coset_min(w: Perm, sizes) -> Perm:
    """Minimal-length element of w modulo the parabolic of the block sizes
    on the right: sort the values of w on each block of positions."""
    out, start = list(w), 0
    for size in sizes:
        out[start:start + size] = sorted(out[start:start + size])
        start += size
    return tuple(out)


def is_kostant(w: Perm, sizes) -> bool:
    return coset_min(w, sizes) == w


@lru_cache(maxsize=None)
def kostant_reps(sizes: tuple[int, ...]) -> tuple[Perm, ...]:
    """Minimal-length representatives of S_d modulo the parabolic of the
    block sizes, sorted by (length, one-line).  They are the ordered set
    partitions of 1..d with those block sizes, each block of positions
    filled with its values in increasing order: d!/prod(m_i!) of them, built
    directly."""

    def fill(k: int, free: tuple[int, ...]):
        if k == len(sizes):
            yield ()
            return
        for chosen in combinations(free, sizes[k]):
            rest = tuple(x for x in free if x not in chosen)
            for tail in fill(k + 1, rest):
                yield chosen + tail

    return tuple(sorted(fill(0, identity(sum(sizes))), key=lambda w: (length(w), w)))


def double_coset_reps(i: int, sizes) -> tuple[Perm, ...]:
    """One minimal-length representative per double coset W_{S\\{s_i}}\\W/W_sizes:
    the Kostant representatives of the block sizes whose inverse is minimal
    modulo the maximal parabolic without s_i, of block sizes (i, d - i),
    sorted by (length, one-line)."""
    d = sum(sizes)
    if not 1 <= i <= d - 1:
        raise ConfigError(f"index {i} out of range for d={d}")
    return tuple(w for w in kostant_reps(sizes) if is_kostant(inverse(w), (i, d - i)))
