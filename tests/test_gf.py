import random

import pytest

from perdom.errors import ConfigError
from perdom.exactalg.gf import make_field

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
