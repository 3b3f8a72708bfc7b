"""q-analog counting: exact integer q-binomials and q-multinomials.

q_binomial(d, k, q) counts k-dimensional subspaces of GF(q)^d;
q_multinomial(parts, q) counts partial flags with block sizes `parts`.
Everything is plain integer arithmetic, exact for any integer q >= 1
(q = 1 gives the ordinary binomials and multinomials).

Each count also serves as a work price: given `cap`, it is exact up to cap and
math.inf once a running value, or a q-binomial's lower bound 2^(k(d-k)), passes
cap, so a price far above any budget costs no more than one below it.

is_prime and require_prime decide which base field sizes q are accepted: the
formula layers check q with them and never build the field.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import ConfigError

PRIME_BOUND = 2**64  # is_prime is exact below this; larger sizes are refused
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the first 12 prime bases, which no
    composite below 2^64 passes."""
    if m < 2:
        return False
    for b in _WITNESSES:
        if m % b == 0:
            return m == b
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2^s * odd
    for b in _WITNESSES:
        x = pow(b, (m - 1) >> s, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def require_prime(p: int):
    """Raise ConfigError unless p is a prime below PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ConfigError(f"base field size must be below 2^64, got {p}")
    if not is_prime(p):
        raise ConfigError(f"base field size must be prime, got {p}")


def capped(x, cap=None):
    """x, or math.inf once it passes cap (None: no cap)."""
    return math.inf if cap is not None and x > cap else x


@lru_cache(maxsize=None)
def _q_binomial(d: int, k: int, q: int) -> int:
    if q == 1:
        return math.comb(d, k)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def q_binomial(d: int, k: int, q: int, cap=None):
    k = min(k, d - k)
    if k < 0:
        return 0
    # [d; k]_q >= 2^(k(d-k)) for q >= 2 and C(d, k) >= 2^k, and 2^bitlen(cap) > cap
    if cap is not None and k * (d - k if q > 1 else 1) >= cap.bit_length():
        return math.inf
    return capped(_q_binomial(d, k, q), cap)


def q_multinomial(parts: tuple[int, ...], q: int, cap=None):
    """Number of flags of subspaces with successive quotient dims `parts`."""
    out = capped(1, cap)
    total = 0
    for part in parts:
        total += part
        out = capped(out * q_binomial(total, part, q, cap), cap)
    return out


def all_flag_points(d: int, q: int, cuts=None, cap=None):
    """Partial flags of GF(q)^d whose member dimensions all lie in `cuts`
    (default: every type): F(0) = 1, F(m) = sum over c < m with c = 0 or c
    in cuts of [m; c]_q F(c), the largest proper member having dimension c.
    F grows with m, so it stops at the first F(m) above cap."""
    f = [1]
    for m in range(1, d + 1):
        total = 0
        for c in range(m) if cuts is None else (0, *(c for c in cuts if c < m)):
            total = capped(total + q_binomial(m, c, q, cap) * f[c], cap)
        if total == math.inf:
            return total
        f.append(total)
    return f[d]
