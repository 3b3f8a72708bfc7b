"""q-analog counting: exact integer q-binomials and q-multinomials.

q_binomial(d, k, q) counts k-dimensional subspaces of GF(q)^d;
q_multinomial(parts, q) counts partial flags with block sizes `parts`.
Everything is plain integer arithmetic, exact for any integer q >= 1
(q = 1 gives the ordinary binomials and multinomials).

Each count also serves as a work price: given `cap`, it is exact up to cap and
math.inf once a running value, or a q-binomial's lower bound 2^(k(d-k)), passes
cap, so a price far above any budget costs no more than one below it.
"""

from __future__ import annotations

import math
from functools import lru_cache


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
