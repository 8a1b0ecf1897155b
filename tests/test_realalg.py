"""Tests for exact real algebraic number arithmetic."""

import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from weilzeta import qpoly
from weilzeta.errors import DivisionByZero, InvalidInput, InvalidInterval, NotIrreducible
from weilzeta.realalg import (
    RealNumberField,
    _decimal,
    _interval_eval,
    minimal_polynomial,
)


def _coords(x):
    """x's coordinates as Fractions."""
    return tuple(F(c, x.den) for c in x.nums)


def _as_fraction(x):
    """A rational element as a Fraction."""
    assert x.is_rational()
    return F(x.nums[0], x.den)


def _bracket(K):
    """The isolating interval of K's generator as Fractions."""
    lo, hi, d = K.bracket
    return F(lo, d), F(hi, d)


def _enclosure(x):
    """The current enclosure of x as Fractions."""
    lo, hi, s = _interval_eval(x.nums, x.den, *x.field.bracket)
    return F(lo, s), F(hi, s)


def test_constructor_validates_minpoly_and_interval():
    with pytest.raises(NotIrreducible):
        RealNumberField((-4, 0, 1), (F(1), F(3)))
    # a coefficient that int() would change is not truncated to Q(sqrt(2))
    for minpoly in ((-2.5, 0, 1), (-2, F(1, 3), 1), (-2, 0, 1.5)):
        with pytest.raises(NotIrreducible, match="^minimal polynomial must be monic with integer"):
            RealNumberField(minpoly, (1, 2))
    assert RealNumberField((-2.0, F(0), 1), (1, 2)).minpoly == (-2, 0, 1)
    with pytest.raises(InvalidInterval):
        RealNumberField((-2, 0, 1), (F(2), F(3)))
    with pytest.raises(InvalidInterval):
        RealNumberField((-2, 0, 1), (F(-2), F(2)))


def test_quadratic_rejects_perfect_squares():
    with pytest.raises(NotIrreducible):
        RealNumberField.quadratic(4)
    with pytest.raises(NotIrreducible):
        RealNumberField.quadratic(0)


def test_quadratic_of_a_negative_integer_is_invalid_input():
    with pytest.raises(InvalidInput, match=r"^sqrt\(-2\) is not real$"):
        RealNumberField.quadratic(-2)


@pytest.mark.parametrize("call, message", [
    (lambda K: RealNumberField((-2, 0, 1), (1.0, 2)), "expected an int or a Fraction, got 1.0"),
    (lambda K: K.element((1.5, 0)), "expected an int or a Fraction, got 1.5"),
    (lambda K: K.from_rational(0.5), "expected an int or a Fraction, got 0.5"),
    (lambda K: K.from_rational("1/2"), "expected an int or a Fraction, got '1/2'"),
    (lambda K: RealNumberField.quadratic(2.5), "d must be an integer, got 2.5"),
], ids=["interval", "element", "from_rational", "from_rational str", "quadratic"])
def test_non_rational_inputs_are_invalid_input(call, message):
    K = RealNumberField.quadratic(2)
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call(K)
    # ints and Fractions are accepted, and an integral d of another type
    assert K.element((F(1, 2), 1)) == K.from_rational(F(1, 2)) + K.gen()
    assert RealNumberField.quadratic(2.0) == RealNumberField((-2, 0, 1), (F(1), 2)) == K


def test_sqrt2_squares_to_two():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2 * r2 == K.from_rational(F(2))
    assert (r2 * r2 - K.from_rational(F(2))).is_zero()


def test_sqrt2_decimal_and_interval():
    K = RealNumberField.quadratic(2)
    r2 = K.gen()
    assert r2.decimal_str(30) == "1.41421356237309504880168872421"
    lo, hi = _enclosure(r2)
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
    assert _as_fraction(v) == F(7, 3)


def test_rationals_field_degenerate_case():
    Q = RealNumberField.rationals()
    assert _as_fraction(Q.gen()) == F(0)
    assert _as_fraction(Q.one() + Q.one()) == F(2)
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
    refinements = 0
    lo, hi = _enclosure(r2)
    while hi - lo > F(1, 10**12):
        K.refine()
        refinements += 1
        lo, hi = _enclosure(r2)
    # each refinement halves the width-1 interval
    assert refinements == 40 and lo * lo < 2 < hi * hi


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
    assert _as_fraction(K.gen()) == theta
    assert _as_fraction(x * K.from_rational(F(14))) == F(-6)
    assert _as_fraction(x.inverse()) == F(-7, 3)
    assert _as_fraction(x ** 3) == F(-27, 343)
    assert _as_fraction(x ** -2) == F(49, 9)
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


def _over_one_denominator(values):
    """(numerators, d): the rationals as ints over their least common denominator."""
    d = math.lcm(*(F(v).denominator for v in values))
    return tuple(int(F(v) * d) for v in values), d


def test_interval_eval_on_integers_matches_fraction_arithmetic():
    rng = random.Random(20260418)
    for _ in range(3000):
        degree = rng.randint(1, 6)
        coords = tuple(_random_rational(rng) for _ in range(degree))
        lo, hi = _random_endpoints(rng)
        assert lo <= hi
        nums, den = _over_one_denominator(coords)
        (a, b), d = _over_one_denominator((lo, hi))
        # the same endpoints over a larger denominator give the same enclosure
        k = rng.choice((1, 2, 8))
        low, high, s = _interval_eval(nums, den, a * k, b * k, d * k)
        assert all(type(v) is int for v in (low, high, s)) and s > 0
        assert (F(low, s), F(high, s)) == _interval_eval_on_fractions(coords, lo, hi), (
            coords, lo, hi)


def test_interval_eval_of_zero_is_zero():
    assert _interval_eval((0,), 1, 1, 2, 1)[:2] == (0, 0)
    assert _interval_eval((0, 0, 0), 1, -21, 10, 14)[:2] == (0, 0)
    assert _interval_eval((0,), 1, 4, 4, 3)[:2] == (0, 0)


def _eval_at(p, x):
    """Horner evaluation; exact for rational x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_sign_at_matches_exact_evaluation():
    # _sign_at takes integer coefficients; every caller passes integers
    rng = random.Random(20260419)
    for _ in range(3000):
        degree = rng.randint(0, 6)
        p = tuple(rng.choice((rng.randint(-20, 20), rng.randint(-10**9, 10**9)))
                  for _ in range(degree + 1))
        x = rng.choice((0, rng.randint(-9, 9), F(rng.randint(-10**4, 10**4), rng.randint(1, 999))))
        v = _eval_at(p, x)
        assert qpoly._sign_at(p, x) == (v > 0) - (v < 0), (p, x)
    # exact roots, from a factor (q*x - r) with rational r = a/q
    for r in (F(3, 7), F(-5, 2), 0, 4):
        p = qpoly.mul((-r.numerator, r.denominator), (1, 2, 5))
        assert qpoly._sign_at(p, r) == 0


def _ref_divmod(num, den):
    """Long division on Fractions."""
    num, den = qpoly.trim(num), qpoly.trim(den)
    quo = [F(0)] * max(len(num) - len(den) + 1, 1)
    rem = [F(c) for c in num]
    for k in range(len(num) - len(den), -1, -1):
        quo[k] = rem[k + len(den) - 1] / den[-1]
        for j, b in enumerate(den):
            rem[k + j] -= quo[k] * b
    return qpoly.trim(quo), qpoly.trim(rem)


def _ext_gcd_inverse(x):
    """1/x by the extended Euclid on Fractions: u with u*x + v*minpoly = 1."""
    a, b = qpoly.trim(_coords(x)), x.field.minpoly
    ua, ub = (F(1),), ()
    while b:
        quo, rem = _ref_divmod(a, b)
        a, b = b, rem
        ua, ub = ub, qpoly.sub(ua, qpoly.mul(quo, ub))
    assert len(a) == 1
    u = _ref_divmod(qpoly.scale(ua, 1 / F(a[0])), x.field.minpoly)[1]
    return x.field.element(u + (0,) * (x.field.degree - len(u)))


@pytest.mark.parametrize("minpoly, interval", [
    ((-5, 1), (4, 6)),
    ((-2, 0, 1), (1, 2)),
    ((-1, -1, 1), (-1, 0)),
    ((-2, 0, 0, 1), (1, 2)),
    ((1, -3, 0, 1), (0, 1)),
    ((-2, 0, 0, 0, 1), (1, 2)),
    ((1, 0, -10, 0, 1), (3, 4)),
    ((-3, 1, 0, 2, 1), (0, 2)),
])
def test_inverse_by_elimination_matches_the_extended_euclid(minpoly, interval):
    rng = random.Random(repr(minpoly))
    K = RealNumberField(minpoly, interval)
    for _ in range(60):
        coords = [F(rng.randint(-50, 50), rng.randint(1, 12)) if rng.random() < 0.7 else F(0)
                  for _ in range(K.degree)]
        x = K.element(coords)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert inv == _ext_gcd_inverse(x), (minpoly, coords)
        assert all(type(c) is int for c in inv.nums + (inv.den,))
        assert x * inv == K.one() and inv * x == 1, (minpoly, coords)


def _decimal_reference(n, d, digits):
    """The rendering before digits were formed on integers: Decimal division."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(n) / Decimal(d))


def test_decimal_digits_match_the_decimal_reference():
    rng = random.Random(20261101)
    cases = [(3, 2, 30), (2, 1, 30), (100, 1, 30), (1, 1000, 30), (1, 3, 30), (10**40, 1, 30),
             (10**40 + 1, 1, 30), (1, 10**40, 30), (1, 10**6, 30), (1, 10**7, 30),
             (123 * 10**31, 1, 30), (10**30 - 1, 10**30, 30), (5, 2 * 10**30, 30),
             (999999, 10**5, 5), (25, 10, 1), (35, 10, 1), (1, 7, 1)]
    for _ in range(3000):
        kind = rng.randrange(5)
        if kind == 0:  # short exact quotients
            n, d = rng.randint(1, 10**6), rng.choice((1, 2, 4, 5, 8, 10, 16, 20, 25, 125))
        elif kind == 1:  # huge and tiny values print in exponent notation
            n, d = rng.randint(1, 10**9) * 10**rng.randint(0, 60), rng.randint(1, 10**9)
            n, d = (n, d) if rng.random() < 0.5 else (d, n)
        elif kind == 2:  # ties at the last digit, rounded half-even
            n, d = rng.randint(1, 10**8) * 10 + 5, 10**rng.randint(1, 12)
        else:
            n, d = rng.randint(1, 10**rng.randint(1, 80)), rng.randint(1, 10**rng.randint(1, 80))
        cases.append((n, d, rng.choice((1, 2, 5, 10, 12, 30, 31))))
    for n, d, digits in cases:
        assert _decimal(n, d, digits) == _decimal_reference(n, d, digits), (n, d, digits)


def _decimal_str_on_fractions(x, digits):
    """decimal_str as it ran on Fractions: the same refinements, the midpoint
    formatted by Decimal division."""
    if x.is_zero():
        return "0"
    if x.sign() < 0:
        return "-" + _decimal_str_on_fractions(-x, digits)
    lo, _ = _enclosure(x)
    while not lo > 0:
        x.field.refine()
        lo, _ = _enclosure(x)
    target = lo * F(10) ** -(digits + 3)
    lo, hi = _enclosure(x)
    while not hi - lo < target:
        x.field.refine()
        lo, hi = _enclosure(x)
    mid = (lo + hi) / 2
    return _decimal_reference(mid.numerator, mid.denominator, digits)


_FIELDS = [((0, 1), (0, 0)), ((-5, 1), (4, 6)), ((7, 1), (-8, 0)), ((-2, 0, 1), (1, 2)),
           ((-2, 0, 1), (-2, -1)), ((-1, -1, 1), (-1, 0)), ((-2, 0, 0, 1), (1, 2)),
           ((1, -3, 0, 1), (0, 1)), ((1, 0, -10, 0, 1), (3, 4)), ((-3, 1, 0, 2, 1), (0, 2))]


def _random_coords(rng, degree):
    scale = rng.choice((1, 1, F(1, 10**9), 10**12, 10**40))
    return [F(rng.randint(-50, 50), rng.randint(1, 12)) * scale if rng.random() < 0.75 else F(0)
            for _ in range(degree)]


def test_decimal_str_matches_the_fraction_and_decimal_reference():
    rng = random.Random(20261102)
    for _ in range(400):
        minpoly, interval = rng.choice(_FIELDS)
        coords = _random_coords(rng, len(minpoly) - 1)
        digits = rng.choice((5, 10, 12, 30))
        # two fields with one state each, so both start from the same interval
        x = RealNumberField(minpoly, interval).element(coords)
        y = RealNumberField(minpoly, interval).element(coords)
        assert x.decimal_str(digits) == _decimal_str_on_fractions(y, digits), (
            minpoly, coords, digits)
        assert _bracket(x.field) == _bracket(y.field)


def _enclosure_until(x, done):
    """Refine a Fraction copy of x's isolating interval until done(lo, hi)
    holds for the Fraction enclosure of x; return that enclosure."""
    minpoly = x.field.minpoly
    lo, hi = _bracket(x.field)
    while True:
        elo, ehi = _interval_eval_on_fractions(_coords(x), lo, hi)
        if done(elo, ehi):
            return elo, ehi
        mid = (lo + hi) / 2
        if (_eval_at(minpoly, mid) > 0) == (_eval_at(minpoly, hi) > 0):
            hi = mid
        else:
            lo = mid


def _ref_sign(x):
    if x.is_zero():
        return 0
    lo, _ = _enclosure_until(x, lambda lo, hi: lo > 0 or hi < 0)
    return 1 if lo > 0 else -1


def test_integer_arithmetic_matches_the_fraction_reference():
    rng = random.Random(20261103)
    for _ in range(300):
        minpoly, interval = rng.choice(_FIELDS)
        K = RealNumberField(minpoly, interval)
        x = K.element(_random_coords(rng, K.degree))
        y = K.element(_random_coords(rng, K.degree))
        product = _ref_divmod(qpoly.mul(_coords(x), _coords(y)), minpoly)[1]
        assert _coords(x * y) == product + (F(0),) * (K.degree - len(product)), (minpoly, x, y)
        assert _coords(x + y) == tuple(a + b for a, b in zip(_coords(x), _coords(y)))
        assert all(type(c) is int for c in (x * y).nums + ((x * y).den,))
        if not x.is_zero():
            assert x.inverse() == _ext_gcd_inverse(x), (minpoly, x)
        for a, b in ((x, y), (y, x), (x, x)):
            sign = _ref_sign(K.element([p - q for p, q in zip(_coords(a), _coords(b))]))
            assert (a < b, a == b, a > b) == (sign < 0, sign == 0, sign > 0), (minpoly, a, b)
        lo, _ = _enclosure_until(x, lambda lo, hi: math.floor(lo) == math.floor(hi))
        assert math.floor(x) == math.floor(lo), (minpoly, x)
