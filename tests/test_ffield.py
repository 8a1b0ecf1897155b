"""Tests for finite field construction and arithmetic."""

import random

import pytest

from weilzeta.errors import (
    DivisionByZero,
    EnumerationBudgetExceeded,
    InvalidDegree,
    InvalidPrime,
)
from weilzeta.ffield import (
    enumerate_field,
    is_prime,
    make_field,
    primes_in_range,
)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)
    assert is_prime(997)
    assert is_prime(2**31 - 1)


def test_primes_in_range_inclusive():
    assert primes_in_range(5, 13) == [5, 7, 11, 13]
    assert primes_in_range(14, 16) == []
    assert primes_in_range(2, 2) == [2]
    assert len(primes_in_range(5, 997)) == 166


def test_make_field_prime_field_identity_modulus():
    f5 = make_field(5, 1)
    assert f5.p == 5 and f5.m == 1
    assert f5.modulus == (0, 1)


def test_make_field_smallest_irreducible_modulus():
    # the only monic irreducible quadratic over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)
    # lexicographically first by low-to-high coefficient tuple
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)


def test_make_field_rejects_bad_arguments():
    with pytest.raises(InvalidPrime):
        make_field(4, 1)
    with pytest.raises(InvalidDegree):
        make_field(5, 0)


def test_enumerate_field_order_and_count():
    f4 = make_field(2, 2)
    els = list(enumerate_field(f4))
    assert [e.coeffs for e in els] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    f9 = make_field(3, 2)
    assert len({e.coeffs for e in enumerate_field(f9)}) == 9


def test_enumerate_field_budget():
    f = make_field(2, 5)
    with pytest.raises(EnumerationBudgetExceeded):
        list(enumerate_field(f, budget=10))


def test_field_arithmetic_f4():
    f4 = make_field(2, 2)
    zero, one, x, x1 = list(enumerate_field(f4))
    assert (x + x1).coeffs == (1, 0)
    # x(x+1) = x^2 + x = 1 modulo x^2 + x + 1
    assert (x * x1).coeffs == (1, 0)
    assert (x - x).coeffs == (0, 0)
    inv = x.inv()
    assert (inv * x).coeffs == (1, 0)


def test_inverse_of_zero_rejected():
    f4 = make_field(2, 2)
    els = list(enumerate_field(f4))
    with pytest.raises(DivisionByZero):
        els[0].inv()


def test_field_axioms_random_sample():
    rng = random.Random(5)
    for p, m in ((2, 2), (3, 2), (5, 1), (2, 3)):
        spec = make_field(p, m)
        els = list(enumerate_field(spec))
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            assert left.coeffs == right.coeffs
            dist_l = a * (b + c)
            dist_r = a * b + a * c
            assert dist_l.coeffs == dist_r.coeffs


def test_frobenius_fixes_every_element():
    for p, m in ((2, 2), (3, 2), (2, 3)):
        spec = make_field(p, m)
        q = p**m
        for e in enumerate_field(spec):
            exp, base, result = q, e, None
            while exp:
                if exp & 1:
                    result = base if result is None else result * base
                base = base * base
                exp >>= 1
            assert result.coeffs == e.coeffs


def test_multiplicative_inverses_exist():
    spec = make_field(3, 2)
    els = list(enumerate_field(spec))
    one = els[1]
    assert one.coeffs == (1, 0)
    for e in els[1:]:
        inv = e.inv()
        assert (inv * e).coeffs == (1, 0)


def test_inverse_and_group_order_in_every_small_extension_field():
    for p in primes_in_range(2, 16):
        m = 2
        while p**m <= 256:
            spec = make_field(p, m)
            one = spec.one()
            for a in list(enumerate_field(spec))[1:]:
                assert a * a.inv() == one
                assert a ** (spec.q - 1) == one
                assert a ** -1 == a.inv()
            m += 1
