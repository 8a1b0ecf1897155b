"""Tests for the primality test and the primes in a range."""

import re

import pytest

from weilzeta.errors import InvalidInput
from weilzeta.primes import is_prime, primes_in_range


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


def test_is_prime_refuses_a_number_that_is_not_an_int():
    # a float that equals a prime is refused, not answered
    for n in (3.0, 7.0, 4.0, "5", None):
        with pytest.raises(InvalidInput,
                           match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            is_prime(n)
