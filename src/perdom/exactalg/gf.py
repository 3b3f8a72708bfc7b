"""Finite fields GF(p^n) with a deterministic modulus.

Elements are integers in [0, p^n); the base-p digits of an element are the
coefficients of its polynomial representative (constant term first).  The
prime subfield therefore embeds as the constants 0..p-1, which makes scalar
extension a relabelling rather than a computation.

The modulus is the lexicographically smallest monic irreducible polynomial
of degree n over GF(p), where "lexicographic" compares coefficient tuples
from the leading side down, i.e. the numerically smallest digit encoding.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ConfigError
from .qcount import require_prime

DEFAULT_ORDER_BOUND = 2**20
_TABLE_LIMIT = 512  # precompute add/mul/inverse tables up to this field order


# -- polynomial helpers over GF(p); coefficient tuples, constant term first --


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, modulus, p):
    # modulus is monic; reduce a in place
    a = list(a)
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * modulus[j]) % p
    return a[:dm]


def _is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree 1..deg/2."""
    n = len(coeffs) - 1
    for deg in range(1, n // 2 + 1):
        for code in range(p**deg):
            div = _decode(code, p, deg) + [1]
            if not any(_poly_mod(coeffs, div, p)):
                return False
    return n >= 1


def _decode(e, p, n):
    digits = []
    for _ in range(n):
        digits.append(e % p)
        e //= p
    return digits


def _encode(digits, p):
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _smallest_irreducible(p, n):
    for code in range(p**n):
        coeffs = _decode(code, p, n) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {n} over GF({p})")


class FieldSpec:
    """GF(p^n).  Immutable; element operations are methods taking int labels."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus
        self.order = p**n
        self._mul_table = None
        self._add_table = None
        self._inv_table = None
        self._frob = {}  # x -> x^p; a full table at or below _TABLE_LIMIT, a memo above
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldSpec)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def _build_tables(self):
        # mul from exp/log tables of a primitive element (q raw products),
        # add one base-p digit at a time
        p, q = self.p, self.order
        for gen in range(1, q):
            exp = [1]
            while (x := self._mul_raw(exp[-1], gen)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        mul = [(0,) * q]
        for a in range(1, q):
            rot = exp[log[a]:] + exp[: log[a]]  # rot[j] = a * gen^j
            mul.append((0, *(rot[log[b]] for b in range(1, q))))
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        for k in range(1, self.n):
            size = p**k  # element a = top * size + rest, top the k-th digit
            add = [
                [(top + t) % p * size + x for t in range(p) for x in add[rest]]
                for top in range(p)
                for rest in range(size)
            ]
        self._add_table = tuple(tuple(r) for r in add)
        self._mul_table = tuple(mul)
        self._inv_table = (0, *(exp[-log[a]] for a in range(1, q)))
        self._frob = (0, *(exp[log[a] * p % (q - 1)] for a in range(1, q)))

    def _add_raw(self, a, b):
        if self.n == 1:
            return (a + b) % self.p
        da, db = _decode(a, self.p, self.n), _decode(b, self.p, self.n)
        return _encode([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _mul_raw(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        da, db = _decode(a, self.p, self.n), _decode(b, self.p, self.n)
        prod = _poly_mod(_poly_mul(da, db, self.p), self.modulus, self.p)
        return _encode(prod, self.p)

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # p - 1 is -1 in the prime subfield

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def scale(self, a: int, ys) -> list[int]:
        """a * y for each y in ys."""
        if self._mul_table is not None:
            row = self._mul_table[a]
            return [row[y] for y in ys]
        return [self.mul(a, y) for y in ys]

    def axpy(self, xs, a: int, ys) -> list[int]:
        """x + a * y entry by entry."""
        if self._mul_table is not None:
            add, row = self._add_table, self._mul_table[a]
            return [add[x][row[y]] for x, y in zip(xs, ys)]
        return [self.add(x, self.mul(a, y)) for x, y in zip(xs, ys)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def frobenius(self, basis) -> tuple[tuple[int, ...], ...]:
        """x -> x^p entry by entry.  The Frobenius is a field automorphism that
        fixes the prime field, 0 and 1 included, so it maps the reduced echelon
        basis of W to the reduced echelon basis of its image."""
        frob = self._frob
        if isinstance(frob, dict):
            for row in basis:
                for x in row:
                    if x not in frob:
                        frob[x] = self.pow(x, self.p)
        return tuple(tuple(frob[x] for x in row) for row in basis)


def check_field(p: int, n: int):
    """Raise ConfigError for p that require_prime refuses, n < 1, or order above
    DEFAULT_ORDER_BOUND; a large n is refused without computing p^n."""
    require_prime(p)
    if n < 1:
        raise ConfigError(f"extension degree must be >= 1, got {n}")
    if n >= DEFAULT_ORDER_BOUND.bit_length() or p**n > DEFAULT_ORDER_BOUND:
        raise ConfigError(f"field order {p}^{n} exceeds the bound {DEFAULT_ORDER_BOUND}")


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct GF(p^n) with the canonical modulus, after check_field."""
    check_field(p, n)
    return FieldSpec(p, n, _smallest_irreducible(p, n))
