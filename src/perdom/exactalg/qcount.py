"""q-analog counting: exact integer q-binomials and q-multinomials.

q_binomial(d, k, q) counts k-dimensional subspaces of GF(q)^d;
q_multinomial(parts, q) counts partial flags with block sizes `parts`.
Everything is plain integer arithmetic, exact for any integer q >= 2.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def q_binomial(d: int, k: int, q: int) -> int:
    if k < 0 or k > d:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def q_multinomial(parts: tuple[int, ...], q: int) -> int:
    """Number of flags of subspaces with successive quotient dims `parts`."""
    out = 1
    total = 0
    for part in parts:
        total += part
        out *= q_binomial(total, part, q)
    return out


def all_flag_points(d: int, q: int, cuts=None) -> int:
    """Partial flags of GF(q)^d whose member dimensions all lie in `cuts`
    (default: every type): F(0) = 1, F(m) = sum over c < m with c = 0 or c
    in cuts of [m; c]_q F(c), the largest proper member having dimension c."""
    allowed = set(range(d) if cuts is None else cuts) | {0}
    f = [1]
    for m in range(1, d + 1):
        f.append(sum(q_binomial(m, c, q) * f[c] for c in range(m) if c in allowed))
    return f[d]
