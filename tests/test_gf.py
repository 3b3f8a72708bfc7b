import math
import random

import pytest
import sympy

from perdom.errors import ConfigError
from perdom.exactalg.gf import check_field, make_field
from perdom.exactalg.qcount import PRIME_BOUND, is_prime, require_prime

# orders for which the axioms are checked over every element triple
AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4)]


def test_canonical_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2+x+1, the only choice
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert make_field(2, 10).modulus == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)  # x^10+x^3+1
    assert make_field(3, 7).modulus == (2, 0, 1, 0, 0, 0, 0, 1)  # x^7+x^2+2
    assert make_field(5, 3).modulus == (1, 1, 0, 1)  # x^3+x+1


def test_make_field_rejects_bad_input():
    with pytest.raises(ConfigError):
        make_field(4, 1)
    with pytest.raises(ConfigError):
        make_field(2, 0)
    with pytest.raises(ConfigError):
        make_field(2, 25)  # 2^25 over the default bound


def trial_division(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [m for m in range(10**5) if is_prime(m)] == [
        m for m in range(10**5) if trial_division(m)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # each passes Miller-Rabin for every base up to 2, 3, 5, 7, 17 and 23 in turn
    for m in (2047, 1373653, 25326001, 3215031751, 341550071728321, 3825123056546413051):
        assert not is_prime(m)
    for m in (10**18 + 3, 2**61 - 1, PRIME_BOUND - 59):
        assert is_prime(m)


def test_is_prime_agrees_with_sympy_on_64_bit_samples():
    rng = random.Random(64)
    samples = [rng.randrange(2**32, PRIME_BOUND) for _ in range(300)]
    primes = [sympy.randprime(2**31, 2**32) for _ in range(20)]
    samples += [a * b for a, b in zip(primes, primes[1:])]
    samples += [sympy.prevprime(rng.randrange(2**40, PRIME_BOUND)) for _ in range(20)]
    for m in samples:
        assert is_prime(m) == sympy.isprime(m), m


def test_base_field_sizes_from_2_to_the_64_are_refused():
    for q in (PRIME_BOUND, PRIME_BOUND + 13):  # 2^64 + 13 is prime
        with pytest.raises(ConfigError, match="below 2"):
            require_prime(q)
        with pytest.raises(ConfigError):
            check_field(q, 1)
    require_prime(PRIME_BOUND - 59)


def test_make_field_is_cached():
    assert make_field(2, 2) is make_field(2, 2)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (3, 3)])
def test_frobenius_power_fixes_field(p, n):
    f = make_field(p, n)
    for a in range(f.order):
        assert f.pow(a, p**n) == a


@pytest.mark.parametrize("p,n", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, n):
    f = make_field(p, n)
    els = range(f.order)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_prime_subfield_embeds_as_constants():
    f = make_field(3, 2)
    for a in range(3):
        for b in range(3):
            assert f.mul(a, b) == (a * b) % 3
            assert f.add(a, b) == (a + b) % 3


def test_large_field_without_tables():
    # above the table limit, on-the-fly arithmetic; GF(3^7) has odd p
    for p, n in [(2, 10), (3, 7)]:
        f = make_field(p, n)
        a, b = 517, 890
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(a, b) == f.mul(b, a)
        assert f.pow(a, f.order - 1) == 1
        assert f.neg(1) == p - 1
        for x in random.Random(f.order).sample(range(f.order), 50):
            assert f.add(x, f.neg(x)) == 0
            assert f.neg(f.neg(x)) == x


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (2, 4), (2, 9)])
def test_row_operations_match_per_entry_route_exhaustively(p, n):
    # GF(2^9) has order 512, the largest field with tables
    f = make_field(p, n)
    els = list(range(f.order))
    shifted = els[1:] + els[:1]
    for a in els:
        assert f.scale(a, els) == [f.mul(a, y) for y in els]
        assert f.axpy(shifted, a, els) == [f.add(x, f.mul(a, y)) for x, y in zip(shifted, els)]
        if a:
            assert f.inv(a) == f.pow(a, f.order - 2)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (3, 4), (5, 3)])
def test_tables_match_raw_arithmetic_exhaustively(p, n):
    f = make_field(p, n)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == f._mul_raw(a, b)
            assert f.add(a, b) == f._add_raw(a, b)
        if a:
            assert f._mul_raw(a, f.inv(a)) == 1


def test_largest_tables_match_raw_arithmetic_on_samples():
    f = make_field(2, 9)
    rng = random.Random(2009)
    for _ in range(2000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == f._mul_raw(a, b)
        assert f.add(a, b) == f._add_raw(a, b)
        if a:
            assert f._mul_raw(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(2, 10), (3, 7)])
def test_row_operations_without_tables(p, n):
    f = make_field(p, n)
    rng = random.Random(f.order)
    for _ in range(50):
        a = rng.randrange(f.order)
        xs = [rng.randrange(f.order) for _ in range(8)]
        ys = [rng.randrange(f.order) for _ in range(8)]
        assert f.scale(a, ys) == [f.mul(a, y) for y in ys]
        assert f.axpy(xs, a, ys) == [f.add(x, f.mul(a, y)) for x, y in zip(xs, ys)]
        if a:
            assert f.inv(a) == f.pow(a, f.order - 2)
            assert f.mul(a, f.inv(a)) == 1


FROBENIUS_TABLE_FIELDS = [(2, k) for k in range(1, 10)] + [(3, k) for k in range(1, 6)] + [(5, 2)]


@pytest.mark.parametrize("p,n", FROBENIUS_TABLE_FIELDS)
def test_frobenius_table_is_the_p_th_power(p, n):
    f = make_field(p, n)
    els = tuple(range(f.order))
    (images,) = f.frobenius([els])
    assert images == tuple(f.pow(a, p) for a in els)
    power = (els,)
    for _ in range(n):
        power = f.frobenius(power)
    assert power == (els,)  # sigma^n is the identity on GF(p^n)


def test_frobenius_memo_is_the_p_th_power_above_the_table_limit():
    f = make_field(2, 10)
    els = tuple(random.Random(2010).randrange(f.order) for _ in range(2000))
    (images,) = f.frobenius([els])
    assert images == tuple(f._mul_raw(a, a) for a in els)
    power = (els,)
    for _ in range(10):
        power = f.frobenius(power)
    assert power == (els,)
