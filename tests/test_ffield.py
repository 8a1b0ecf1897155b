"""Tests for F_p[x] helpers and the primitive moduli of F_{p^m}."""

import random
from itertools import product

import pytest

from weilzeta import ffield
from weilzeta.errors import InvalidDegree, InvalidInput, InvalidPrime
from weilzeta.ffield import _berlekamp, _pmod, _pmul
from weilzeta.primes import is_prime
from weilzeta.variety import make_field


def _is_irreducible(f, p):
    """f is irreducible exactly when it is square-free and its Berlekamp
    space is the constants alone."""
    found = _berlekamp(f, p)
    return found is not None and found[0] == 1


def _order_of_x(f, p):
    """Multiplicative order of x modulo f, f(0) != 0, by walking its powers."""
    power, k = _pmod((0, 1), f, p), 1
    while power != (1,):
        power, k = _pmod(_pmul(power, (0, 1), p), f, p), k + 1
    return k


def test_make_field_prime_field_modulus():
    # x = -2 = 3 generates F_5^*, and x = -1 does not
    assert make_field(5, 1) == (2, 1)
    assert make_field(2, 1) == (1, 1)
    assert make_field(7, 1) == (2, 1)


def test_make_field_smallest_primitive_modulus():
    # the only irreducible quadratic over F_2, and it is primitive
    assert make_field(2, 2) == (1, 1, 1)
    # x^2 + 1 is irreducible over F_3, but x^2 = -1 has order 4 < 8
    assert make_field(3, 2) == (2, 1, 1)
    # 7 is prime, so every irreducible cubic over F_2 is primitive
    assert make_field(2, 3) == (1, 0, 1, 1)


@pytest.mark.parametrize("p, m", [(2, 10), (3, 6), (5, 3)])
def test_make_field_tries_no_multiple_of_x(monkeypatch, p, m):
    # a zero constant term makes x a zero divisor, and a constant term
    # whose norm (-1)^m f_0 does not generate F_p^* cannot give x the full
    # order, so make_field powers x modulo neither
    tried = []
    ppowmod = ffield._ppowmod

    def recording(base, e, f, q):
        tried.append(f)
        return ppowmod(base, e, f, q)

    monkeypatch.setattr(ffield, "_ppowmod", recording)
    modulus = make_field(p, m)
    assert tried[-1] == modulus
    for f in tried:
        norm = (-1) ** m * f[0] % p
        assert norm and len({pow(norm, k, p) for k in range(p - 1)}) == p - 1, f


def test_make_field_is_the_first_candidate_on_which_x_has_full_order():
    for p, m in ((p, m) for p in range(2, 1025) if is_prime(p)
                 for m in range(1, 11) if p ** m <= 1024):
        q = p ** m
        modulus = make_field(p, m)
        assert _order_of_x(modulus, p) == q - 1, modulus
        for tail in product(range(1, p), *[range(p)] * (m - 1)):
            f = tail + (1,)
            if f == modulus:
                break
            assert _order_of_x(f, p) != q - 1, f
        else:
            raise AssertionError(f"{modulus} is not a candidate modulus of F_{q}")


def _mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _monic(p, n):
    """Every monic polynomial of degree n over F_p, low degree first."""
    return [tail + (1,) for tail in product(range(p), repeat=n)]


def test_is_irreducible_matches_trial_division():
    # trial division run as a sieve: the reducible monic polynomials of
    # degree n are the products of monic g and h with deg g + deg h = n
    for p, top in ((2, 6), (3, 6), (5, 4), (7, 4)):
        for n in range(2, top + 1):
            reducible = {_mul_mod(g, h, p)
                         for d in range(1, n // 2 + 1)
                         for g in _monic(p, d) for h in _monic(p, n - d)}
            for f in _monic(p, n):
                assert _is_irreducible(f, p) == (f not in reducible), (p, f)


def test_berlekamp_splits_square_free_products():
    rng = random.Random(20261018)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        chosen = set()
        for _ in range(rng.randint(1, 6)):
            while True:
                f = tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))) + (1,)
                if _is_irreducible(f, p):
                    break
            chosen.add(f)
        f = (1,)
        for g in chosen:
            f = _mul_mod(f, g, p)
        k, split = _berlekamp(f, p)
        factors = split()
        assert len(factors) == k == len(chosen)
        assert all(_is_irreducible(g, p) for g in factors)
        prod = (1,)
        for g in factors:
            prod = _mul_mod(prod, g, p)
        assert prod == f
        assert set(factors) == chosen


@pytest.mark.parametrize("f, p", [
    ((1, 2, 1), 3),        # (x + 1)^2
    ((0, 0, 1, 1), 5),     # x^2 (x + 1)
    ((1, 0, 1), 2),        # x^2 + 1 = (x + 1)^2 over F_2
    ((0, 0, 0, 1), 7),     # x^3
    ((2, 0, 0, 1), 3),     # x^3 + 2 = (x + 2)^3 over F_3
    ((4, 4, 4, 4, 1, 1), 5),  # (x^2 + 2)^2 (x + 1), the square irreducible
])
def test_berlekamp_refuses_a_square_factor(f, p):
    assert _berlekamp(f, p) is None
    assert not _is_irreducible(f, p)


def test_make_field_rejects_bad_arguments():
    with pytest.raises(InvalidPrime):
        make_field(4, 1)
    with pytest.raises(InvalidDegree):
        make_field(5, 0)
    # a float that equals a prime or a degree is refused before any work
    for p, m, name, value in ((3, 2.0, "m", "2.0"), (3.0, 2, "p", "3.0"),
                              (3.0, 1, "p", "3.0"), (5, 1.0, "m", "1.0")):
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got {value}$"):
            make_field(p, m)
