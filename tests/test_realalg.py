"""Tests for exact real algebraic number arithmetic."""

import math
import random
from fractions import Fraction as F

import pytest

from weilzeta import qpoly
from weilzeta.errors import DivisionByZero, InvalidInterval, NotIrreducible
from weilzeta.realalg import (
    RealNumberField,
    _interval_eval,
    minimal_polynomial,
)


def test_constructor_validates_minpoly_and_interval():
    with pytest.raises(NotIrreducible):
        RealNumberField((-4, 0, 1), (F(1), F(3)))
    with pytest.raises(InvalidInterval):
        RealNumberField((-2, 0, 1), (F(2), F(3)))
    with pytest.raises(InvalidInterval):
        RealNumberField((-2, 0, 1), (F(-2), F(2)))


def test_quadratic_rejects_perfect_squares():
    with pytest.raises(NotIrreducible):
        RealNumberField.quadratic(4)
    with pytest.raises(NotIrreducible):
        RealNumberField.quadratic(0)


def test_sqrt2_squares_to_two():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2 * r2 == K.from_rational(F(2))
    assert (r2 * r2 - K.from_rational(F(2))).is_zero()


def test_sqrt2_decimal_and_interval():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2.decimal_str(30) == "1.41421356237309504880168872421"
    lo, hi = r2.interval()
    assert lo < hi
    assert lo * lo < 2 < hi * hi


def test_comparisons_are_exact():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2 < K.from_rational(F(3, 2))
    assert r2 > K.from_rational(F(7, 5))
    assert K.from_rational(F(239, 169)) < r2 < K.from_rational(F(577, 408))


def test_sign_and_floor():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert (r2 - K.from_rational(F(3, 2))).sign() == -1
    assert (r2 - r2).sign() == 0
    assert r2.sign() == 1
    assert math.floor(K.from_rational(F(10)) * r2) == 14
    assert math.floor(-(K.from_rational(F(10)) * r2)) == -15


def test_inverse_and_division_by_zero():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2.inverse() * r2 == K.one()
    # 1/sqrt(2) = sqrt(2)/2
    assert r2.inverse() == K.element((F(0), F(1, 2)))
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_field_operations_mixed_with_rationals():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    x = K.one() + r2
    assert (x - K.one()) == r2
    assert x * (K.one() - r2) * K.from_rational(F(-1)) == K.one()
    assert minimal_polynomial(x) == (-1, -2, 1)


def test_is_rational_and_as_fraction():
    K = RealNumberField.quadratic(2)
    assert not K.gen().is_rational()
    v = K.from_rational(F(7, 3))
    assert v.is_rational()
    assert v.as_fraction() == F(7, 3)


def test_rationals_field_degenerate_case():
    Q = RealNumberField.rationals()
    assert Q.gen().as_fraction() == F(0)
    assert (Q.one() + Q.one()).as_fraction() == F(2)
    assert math.floor(Q.from_rational(F(-5, 2))) == -3


def test_minimal_polynomial_is_primitive_with_positive_leading():
    K = RealNumberField.quadratic(2)
    assert minimal_polynomial(K.gen()) == (-2, 0, 1)
    assert minimal_polynomial(K.from_rational(F(3, 2))) == (-3, 2)
    # 10*sqrt(2) has minimal polynomial x^2 - 200
    assert minimal_polynomial(K.from_rational(F(10)) * K.gen()) == (-200, 0, 1)


def test_minimal_polynomial_of_an_element_of_a_proper_subfield():
    # theta^2 = sqrt(2) in Q(2^(1/4)): the first dependent power is x^2,
    # neither 1 (rationals) nor x^4 (generators of the whole field)
    K = RealNumberField((-2, 0, 0, 0, 1), (1, 2))
    assert minimal_polynomial(K.gen() ** 2) == (-2, 0, 1)
    assert minimal_polynomial(K.gen()) == (-2, 0, 0, 0, 1)


@pytest.mark.parametrize("minpoly, interval", [
    ((-2, 0, 1), (1, 2)),
    ((-1, -3, 0, 1), (1, 2)),
    ((-2, 0, 0, 0, 1), (1, 2)),
    ((1, 0, -10, 0, 1), (3, 4)),
])
def test_minimal_polynomial_properties_on_random_elements(minpoly, interval):
    # coordinates often vanish in odd positions, which lands in subfields
    rng = random.Random(4242)
    K = RealNumberField(minpoly, interval)
    for _ in range(40):
        coords = [F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                  if i % 2 == 0 or rng.random() < 0.5 else F(0)
                  for i in range(K.degree)]
        x = K.element(coords)
        mp = minimal_polynomial(x)
        value = K.zero()
        for c in reversed(mp):
            value = value * x + c
        assert value.is_zero(), (coords, mp)
        assert qpoly.factor_int(mp)[1] == [(mp, 1)], (coords, mp)
        assert qpoly.primitive_int(mp) == mp and mp[-1] > 0
        assert K.degree % (len(mp) - 1) == 0


def test_equality_across_field_representations():
    K1 = RealNumberField.quadratic(2)
    K2 = RealNumberField.quadratic(2)
    assert K1 == K2
    assert K1.gen() == K2.gen()
    assert (K1.one() + K1.gen()) - K1.one() == K2.gen()
    assert minimal_polynomial(K1.gen()) != minimal_polynomial(RealNumberField.quadratic(3).gen())
    assert K1.gen() != K1.from_rational(F(141, 100))


def test_refine_to_width_shrinks_interval():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    r2.refine_to_width(F(1, 10**12))
    lo, hi = r2.interval()
    assert hi - lo <= F(1, 10**12)


def test_golden_ratio_arithmetic():
    K = RealNumberField.quadratic(5)
    phi = K.element((F(1, 2), F(1, 2)))
    # phi^2 = phi + 1
    assert phi * phi == phi + K.one()
    assert minimal_polynomial(phi) == (-1, -1, 1)
    assert phi.decimal_str(10) == "1.618033989"


@pytest.mark.parametrize("K, theta", [
    (RealNumberField.rationals(), F(0)),
    (RealNumberField((-5, 1), (F(4), F(6))), F(5)),
])
def test_degree_one_fields_use_the_general_arithmetic(K, theta):
    x = K.from_rational(F(-3, 7))
    assert K.gen().as_fraction() == theta
    assert (x * K.from_rational(F(14))).as_fraction() == F(-6)
    assert x.inverse().as_fraction() == F(-7, 3)
    assert (x ** 3).as_fraction() == F(-27, 343)
    assert (x ** -2).as_fraction() == F(49, 9)
    assert x * x.inverse() == K.one()
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_cube_root_of_two_reduces_modulo_its_minimal_polynomial():
    K = RealNumberField((-2, 0, 0, 1), (F(1), F(2)))
    theta = K.gen()
    assert theta ** 3 == 2
    assert theta ** 4 == K.element((0, 2, 0))
    x = K.one() + theta
    assert x * x.inverse() == K.one()
    assert x.inverse() == K.element((F(1, 3), F(-1, 3), F(1, 3)))
    assert theta ** -1 == K.element((0, 0, F(1, 2)))


def _interval_eval_on_fractions(p, lo, hi):
    """The enclosure as monomial interval arithmetic on Fractions computes it."""
    plo, phi = F(1), F(1)
    acc_lo, acc_hi = F(0), F(0)
    for c in p:
        if c:
            c = F(c)
            acc_lo += min(c * plo, c * phi)
            acc_hi += max(c * plo, c * phi)
        cands = (plo * lo, plo * hi, phi * lo, phi * hi)
        plo, phi = min(cands), max(cands)
    return acc_lo, acc_hi


def _random_rational(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-30, 30)
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


def _random_endpoints(rng):
    """[lo, hi] with lo == hi, both ends negative, 0 inside, or anywhere."""
    a, b = sorted(F(rng.randint(1, 10**5), rng.randint(1, 999)) for _ in range(2))
    kind = rng.randrange(4)
    if kind == 0:
        x = rng.choice((a, -a))
        return x, x  # the interval of a degree-one field
    if kind == 1:
        return -b, -a
    if kind == 2:
        return -a, b
    return rng.choice((a, -b)), rng.choice((b, b + a))


def test_interval_eval_on_integers_matches_fraction_arithmetic():
    rng = random.Random(20260418)
    for _ in range(3000):
        degree = rng.randint(1, 6)
        coords = tuple(_random_rational(rng) for _ in range(degree))
        lo, hi = _random_endpoints(rng)
        assert lo <= hi
        got = _interval_eval(coords, lo, hi)
        assert got == _interval_eval_on_fractions(coords, lo, hi), (coords, lo, hi)
        assert all(type(v) is F for v in got)


def test_interval_eval_of_zero_is_zero():
    assert _interval_eval((), F(1), F(2)) == (0, 0)
    assert _interval_eval((0, F(0), 0), F(-3, 2), F(5, 7)) == (0, 0)
    assert _interval_eval((0,), F(4, 3), F(4, 3)) == (0, 0)


def test_sign_at_matches_exact_evaluation():
    rng = random.Random(20260419)
    for _ in range(3000):
        degree = rng.randint(0, 6)
        if rng.randrange(2):
            p = tuple(rng.randint(-20, 20) for _ in range(degree + 1))
        else:
            p = tuple(_random_rational(rng) for _ in range(degree + 1))
        x = rng.choice((0, rng.randint(-9, 9), F(rng.randint(-10**4, 10**4), rng.randint(1, 999))))
        v = qpoly.eval_at(p, x)
        assert qpoly._sign_at(p, x) == (v > 0) - (v < 0), (p, x)
    # exact roots, from a factor (x - r) with rational r
    for r in (F(3, 7), F(-5, 2), 0, 4):
        p = qpoly.mul((-r, 1), (1, F(2, 3), 5))
        assert qpoly._sign_at(p, r) == 0
