"""Tests for Gaussian integers, Cornacchia, and the CM trace formula."""

import pytest

from weilzeta.cmcurve import (
    FrobeniusData,
    GaussianInt,
    cornacchia_two_squares,
    count_via_character,
    ec_count,
    frobenius_eigenvalues,
    frobenius_trace,
    grossencharacter_psi,
    grossencharacter_trace_d1,
)
from weilzeta.errors import HasseViolation, InvalidInput, InvalidPrime
from weilzeta.ffield import primes_in_range
from weilzeta.variety import count_points, weierstrass_variety


def test_gaussian_integer_arithmetic():
    a = GaussianInt(1, 2)
    b = GaussianInt(3, 4)
    assert a * b == GaussianInt(-5, 10)
    assert a + b == GaussianInt(4, 6)
    assert a - b == GaussianInt(-2, -2)
    assert b.conjugate() == GaussianInt(3, -4)
    assert b.norm() == 25
    assert b.trace() == 6
    assert str(GaussianInt(-1, 2)) == "-1 + 2i"
    assert str(GaussianInt(3, -4)) == "3 - 4i"


def test_gaussian_norm_is_multiplicative():
    a = GaussianInt(2, 7)
    b = GaussianInt(-3, 5)
    assert (a * b).norm() == a.norm() * b.norm()


def test_cornacchia_two_squares_small_primes():
    assert cornacchia_two_squares(5) == (2, 1)
    assert cornacchia_two_squares(13) == (3, 2)
    a, b = cornacchia_two_squares(997)
    assert a * a + b * b == 997


def test_cornacchia_sweep_against_direct_search():
    for p in primes_in_range(5, 300):
        if p % 4 != 1:
            continue
        a, b = cornacchia_two_squares(p)
        # the two-square representation of a prime is unique up to order
        found = [
            (x, y)
            for x in range(1, p)
            for y in range(1, x + 1)
            if x * x + y * y == p
        ]
        assert found == [(max(abs(a), abs(b)), min(abs(a), abs(b)))]


def test_cornacchia_rejects_wrong_residue_class():
    with pytest.raises(InvalidInput):
        cornacchia_two_squares(7)
    with pytest.raises(InvalidPrime):
        cornacchia_two_squares(12)


def test_grossencharacter_primary_normalization():
    assert grossencharacter_psi(5) == GaussianInt(-1, 2)
    assert grossencharacter_psi(13) == GaussianInt(3, 2)
    assert grossencharacter_psi(17) == GaussianInt(1, 4)
    assert grossencharacter_psi(29) == GaussianInt(-5, 2)
    assert grossencharacter_psi(37) == GaussianInt(-1, 6)
    for p in primes_in_range(5, 200):
        if p % 4 != 1:
            continue
        psi = grossencharacter_psi(p)
        assert psi.norm() == p
        assert psi.re % 2 == 1 and psi.im % 2 == 0 and psi.im > 0
        assert (psi.re + psi.im) % 4 == 1


def test_grossencharacter_inert_primes_give_zero():
    assert grossencharacter_psi(7) == GaussianInt(0, 0)
    assert grossencharacter_psi(11) == GaussianInt(0, 0)
    assert grossencharacter_trace_d1(7) == 0


def test_grossencharacter_trace_matches_brute_force():
    for p in primes_in_range(5, 200):
        assert grossencharacter_trace_d1(p) == frobenius_trace(-1, 0, p)


def test_grossencharacter_predicts_extension_field_counts():
    # the Grossencharacter trace and the recurrence for N_m against the
    # Zech-table enumeration of the projective model over F_{p^m}
    cases = 0
    for p in primes_in_range(5, 64):
        v = weierstrass_variety(-1, 0, p)
        fd = frobenius_eigenvalues(grossencharacter_trace_d1(p), p)
        for m in range(1, 4):
            if p ** m > 2 ** 12:
                break
            assert fd.extension_count(m) == count_points(v, m), (p, m)
            cases += 1
    assert cases == 36


def test_frobenius_trace_frozen_values():
    assert frobenius_trace(-1, 0, 5) == -2
    assert frobenius_trace(-1, 0, 13) == 6
    assert frobenius_trace(-1, 0, 7) == 0


def test_frobenius_eigenvalues_invariants():
    fd = frobenius_eigenvalues(-2, 5)
    assert fd.a == -2 and fd.q == 5
    assert fd.disc == -16
    assert FrobeniusData(-2, 5).disc == -16


@pytest.mark.parametrize("a, q, text", [
    (-2, 5, "-1 +- 1/2*i*sqrt(16)"),
    (3, 5, "3/2 +- 1/2*i*sqrt(11)"),
    (-3, 2, "-3/2 +- 1/2*sqrt(1)"),
    (0, 7, "0 +- 1/2*i*sqrt(28)"),
    (5, 1, "5/2 +- 1/2*sqrt(21)"),
    (4, 4, "2 (double)"),
    (-6, 9, "-3 (double)"),
])
def test_eigenvalue_str_prints_half_the_trace_and_half_the_root(a, q, text):
    assert frobenius_eigenvalues(a, q).eigenvalue_str() == text


def test_power_sums_and_extension_counts():
    fd = frobenius_eigenvalues(-2, 5)
    assert fd.power_sum(1) == -2
    assert fd.power_sum(2) == -6
    assert fd.power_sum(3) == 22
    assert fd.extension_count(1) == 8
    assert fd.extension_count(2) == 32
    assert fd.extension_count(3) == 104
    assert fd.extension_count(4) == 640


def test_extension_counts_match_enumeration_over_f25():
    # supersingular over F_7: a = 0, so N_2 = 49 + 1 + 14 = 64
    fd = frobenius_eigenvalues(0, 7)
    assert fd.extension_count(2) == 64


def test_count_via_character():
    assert count_via_character(-2, 5) == 8
    assert count_via_character(0, 7) == 8
    for p in primes_in_range(5, 100):
        a = frobenius_trace(-1, 0, p)
        assert count_via_character(a, p) == ec_count(-1, 0, p)


def test_count_via_character_rejects_hasse_violations():
    with pytest.raises(HasseViolation):
        count_via_character(6, 5)
    with pytest.raises(HasseViolation):
        count_via_character(1, 0)


def test_gaussian_int_equality_and_hash_follow_the_fields():
    a, b = GaussianInt(3, -4), GaussianInt(3, -4)
    assert a == b and hash(a) == hash(b) and len({a, b, GaussianInt(-4, 3)}) == 2
    assert a != GaussianInt(3, 4)
    assert a != (3, -4)
