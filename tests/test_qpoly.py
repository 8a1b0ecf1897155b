"""Tests for exact rational polynomial helpers."""

import random
import time
from fractions import Fraction

import pytest

from weilzeta import qpoly as qp


def test_trim_strips_trailing_zeros():
    assert qp.trim((1, 2, 0, 0)) == (1, 2)
    assert qp.trim((0, 0)) == ()
    assert qp.trim(()) == ()


def test_degree():
    assert qp.degree(()) == -1
    assert qp.degree((5,)) == 0
    assert qp.degree((1, 0, 3)) == 2
    assert qp.degree((1, 0, 0)) == 0


def test_add_sub_neg_scale():
    assert qp.add((1, 2), (3, -2)) == (4,)
    assert qp.sub((1, 2), (1, 2)) == ()
    assert qp.neg((1, -2, 3)) == (-1, 2, -3)
    assert qp.scale((1, 2), Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 1))
    assert qp.scale((1, 2), 0) == ()


def test_mul_known_products():
    # (1 - t)(1 - 5t) = 1 - 6t + 5t^2
    assert qp.mul((1, -1), (1, -5)) == (1, -6, 5)
    assert qp.mul((1, 2, 5), (1, -1)) == (1, 1, 3, -5)
    assert qp.mul((), (1, 2)) == ()


def _eval_at(p, x):
    """Horner evaluation, the reference for sign tests; exact for rational x."""
    acc = 0
    for c in reversed(qp.trim(p)):
        acc = acc * x + c
    return acc


def test_eval_at():
    assert _eval_at((1, -6, 5), Fraction(1)) == 0
    assert _eval_at((1, 2, 5), Fraction(1, 2)) == Fraction(13, 4)
    assert _eval_at((), Fraction(7)) == 0


def test_deriv():
    assert qp.deriv((1, 2, 5)) == (2, 10)
    assert qp.deriv((3,)) == ()
    assert qp.deriv(()) == ()


def _ref_divmod(num, den):
    """Long division on Fractions, the reference for remainders and quotients."""
    num, den = qp.trim(num), qp.trim(den)
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = [Fraction(c) for c in num]
    for k in range(len(num) - len(den), -1, -1):
        quo[k] = rem[k + len(den) - 1] / den[-1]
        for j, b in enumerate(den):
            rem[k + j] -= quo[k] * b
    return qp.trim(quo), qp.trim(rem)


def test_ref_divmod_obeys_the_division_law():
    rng = random.Random(7)
    for _ in range(50):
        num = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6)))
        den = qp.trim(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))))
        if not den:
            continue
        q, r = _ref_divmod(num, den)
        assert qp.add(qp.mul(q, den), r) == qp.trim(num)
        assert qp.degree(r) < qp.degree(den)


def test_gcd_is_primitive_common_factor():
    a = qp.mul((-1, 1), (2, 1))
    b = qp.mul((-1, 1), (1, 3))
    assert qp.gcd_poly(a, b) == (-1, 1)
    assert qp.gcd_poly((1, 2, 5), (1, -1)) == (1,)
    # integers with positive leading coefficient, not the monic (1/2, 1)
    a = qp.mul((-1, -2), (2, 1))
    b = qp.mul((1, 2), (1, 3))
    assert qp.gcd_poly(a, b) == (1, 2)
    assert qp.gcd_poly(qp.scale(a, Fraction(1, 3)), b) == (1, 2)
    assert all(type(c) is int for c in qp.gcd_poly(a, b))


def test_exact_quo_divides_in_integers_or_returns_none():
    rng = random.Random(5)
    for _ in range(200):
        b = qp.primitive_int(qp.trim(tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))))
        if not b:
            continue
        c = qp.trim(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 6))))
        a = qp.mul(b, c)
        assert qp.exact_quo(a, b) == c
        if len(b) > 1:
            # one more unit in the constant term leaves a remainder
            assert qp.exact_quo(qp.add(a, (1,)), b) is None
    # not integral over Z, though b divides a over Q
    assert qp.exact_quo((1, 3), (2, 6)) is None
    assert qp.exact_quo((), (1, 1)) == ()
    assert qp.exact_quo((1,), (1, 1)) is None


def test_divmod_exact_and_remainder():
    # (x^3 - 1) / (x - 1) is exact; (x^2 + 1) / (x + 1) leaves a constant
    assert qp.exact_quo((-1, 0, 0, 1), (-1, 1)) == (1, 1, 1)
    assert _ref_divmod((-1, 0, 0, 1), (-1, 1)) == ((1, 1, 1), ())
    assert qp.exact_quo((1, 0, 1), (1, 1)) is None
    q, r = _ref_divmod((1, 0, 1), (1, 1))
    assert r != () and qp.degree(r) < 1
    assert qp.add(qp.mul(q, (1, 1)), r) == (1, 0, 1)


def test_primitive_int_normalizes():
    assert qp.primitive_int((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    assert qp.primitive_int((Fraction(-2), Fraction(-4))) == (1, 2)
    assert qp.primitive_int((Fraction(0), Fraction(1, 2))) == (0, 1)


def test_factor_int_content_multiplicity_and_sign():
    # -6 * (1 - t)^3 * (1 + t + t^2) = 6 * (t - 1)^3 * (1 + t + t^2)
    cube = qp.mul(qp.mul((1, -1), (1, -1)), (1, -1))
    p = qp.scale(qp.mul(cube, (1, 1, 1)), -6)
    content, factors = qp.factor_int(p)
    assert content == 6
    assert sorted(factors) == [((-1, 1), 3), ((1, 1, 1), 1)]
    rebuilt = (content,)
    for fac, mult in factors:
        assert fac[-1] > 0
        assert qp.primitive_int(fac) == fac
        for _ in range(mult):
            rebuilt = qp.mul(rebuilt, fac)
    assert rebuilt == p
    assert qp.factor_int((-2, 0, 0, 1)) == (1, [((-2, 0, 0, 1), 1)])
    assert qp.factor_int((5,)) == (5, [])


def _sympy_factor_list(p):
    import sympy

    poly = sympy.Poly(list(reversed(qp.trim(p))), sympy.Symbol("t"), domain="ZZ")
    content, factors = poly.factor_list()
    return int(content), [(tuple(int(c) for c in reversed(fac.all_coeffs())), int(mult))
                          for fac, mult in factors]


def _product(factors):
    out = (1,)
    for fac in factors:
        out = qp.mul(out, fac)
    return out


def _x_power_minus_one(n):
    return (-1,) + (0,) * (n - 1) + (1,)


def _cyclotomic(n):
    """Phi_n as x^n - 1 divided by Phi_d for the proper divisors d of n."""
    phi = _x_power_minus_one(n)
    for d in range(1, n):
        if n % d == 0:
            phi = qp.exact_quo(phi, _cyclotomic(d))
    return phi


# Swinnerton-Dyer polynomials for sqrt 2, sqrt 3 (and sqrt 5): irreducible,
# yet split into factors of degree <= 2 modulo every prime
_SWINNERTON_DYER = ((1, 0, -10, 0, 1), (576, 0, -960, 0, 352, 0, -40, 0, 1))

# Every distinct input that the seed-1 cli_corpus and extfield_weil jobs
# of perfbench pass to factor_int
_BENCHMARK_INPUTS = (
    (1,), (1, 1), (-2, 0, 1), (1, -4, 3), (1, 0, 3), (1, 1, 3), (1, 2, 3),
    (1, 3, 3), (2, -4, 1), (-2, 0, 0, 1), (1, -13, 39, -27), (1, -4, 0, 12),
    (1, 13, 130, 1210), (1, -6, 14, -21, 21), (1, 4, 16, 52, 160),
    (1, -7, 21, -42, 63, -63), (1, -6, 12, -6, -24, 66), (1, -5, 5, 10, -25, -5),
    (1, -4, 0, 12, 0, -36), (1, 4, 16, 52, 160, 484), (1, 5, 20, 65, 200, 605),
    (1, 6, 24, 78, 240, 726), (1, 7, 28, 91, 280, 847),
)


def _random_products(rng, count):
    inputs = []
    for _ in range(count):
        p = (rng.choice((-1, 1)) * rng.randint(1, 12),)
        for _ in range(rng.randint(1, 4)):
            fac = qp.trim(tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 5))))
            for _ in range(rng.randint(1, 3)):
                p = qp.mul(p, fac or (1,))
        if rng.random() < 0.2:
            p = (0,) * rng.randint(1, 2) + p
        inputs.append(p)
    return inputs


def test_factor_int_matches_sympy():
    inputs = _random_products(random.Random(20261018), 150)
    inputs += [_cyclotomic(n) for n in range(1, 31)]
    inputs += [_x_power_minus_one(n) for n in range(1, 31)]
    inputs += list(_SWINNERTON_DYER) + list(_BENCHMARK_INPUTS)
    assert len(inputs) == 235
    for p in inputs:
        assert qp.factor_int(p) == _sympy_factor_list(p), p


def test_factor_int_recombination_is_bounded():
    # x^24 - 1 is the product of the eight Phi_d, d | 24; modulo a prime
    # p > 3 it splits into 12 or more factors, since p^2 = 1 mod 24
    divisors = [d for d in range(1, 25) if 24 % d == 0]
    lin_quad = [(k, 1) for k in range(-5, 6) if k] + [(k, 0, 1) for k in range(1, 6)]
    cases = ((_x_power_minus_one(24), sorted(_cyclotomic(d) for d in divisors)),
             (_product(lin_quad), sorted(lin_quad)))
    assert qp.degree(cases[1][0]) == 20
    for p, expected in cases:
        start = time.perf_counter()
        content, factors = qp.factor_int(p)
        assert time.perf_counter() - start < 2.0
        assert content == 1
        assert sorted(fac for fac, _ in factors) == expected
        assert all(mult == 1 for _, mult in factors)


def test_factor_int_keeps_phi_252_whole():
    # Phi_252 (degree 72) is irreducible, yet splits into 12 factors mod 5:
    # recombination tries every subset of up to six of them, and rejects
    # almost all by constant term and coefficient bound before dividing
    phi = _cyclotomic(252)
    assert qp.degree(phi) == 72
    start = time.perf_counter()
    assert qp.factor_int(phi) == (1, [(phi, 1)])
    assert time.perf_counter() - start < 5.0


def test_reverse():
    assert qp.reverse((1, 2, 5)) == (5, 2, 1)
    assert qp.reverse((1,)) == (1,)


def test_compose_linear_scales_argument():
    assert qp.compose_linear((1, 2, 5), Fraction(3)) == (1, 6, 45)
    assert qp.compose_linear((1, 1), Fraction(-1, 2)) == (1, Fraction(-1, 2))


def test_poly_str_rendering():
    assert qp.poly_str((1, -6, 5)) == "1 - 6*t + 5*t^2"
    assert qp.poly_str(()) == "0"
    assert qp.poly_str((2, -4, 1), var="x") == "2 - 4*x + x^2"
    assert qp.poly_str((0, 1)) == "t"


def test_cauchy_root_bound():
    assert qp.cauchy_root_bound((-2, 0, 1)) == (3, 1)
    # (|lead| + max |c|) / |lead|
    assert qp.cauchy_root_bound((1, -6, 0, -2)) == (8, 2)
    assert qp.cauchy_root_bound((5,)) == (1, 1)
    # all real roots of x^2 - 2 lie in [-3, 3]
    assert qp.count_roots((-2, 0, 1), Fraction(-3), Fraction(3)) == 2
    assert qp.count_roots((-2, 0, 1), -6, 6, d=2) == 2


def test_count_roots_brackets():
    p = (-2, 0, 1)
    assert qp.count_roots(p, Fraction(0), Fraction(3)) == 1
    assert qp.count_roots(p, Fraction(2), Fraction(3)) == 0


def test_largest_real_root_bracket():
    # x^3 - 3x + 1 has one real root in each of (-4, 0), (0, 1) and (1, 2);
    # bisecting (-4, 4] ends on the last of these
    p = (1, -3, 0, 1)
    lo, hi, d = qp.largest_real_root(p)
    assert (Fraction(lo, d), Fraction(hi, d)) == (1, 2)
    assert qp.count_roots(p, lo, hi, d=d) == 1
    assert qp.count_roots(p, Fraction(hi, d), Fraction(*qp.cauchy_root_bound(p))) == 0
    lo, hi, d = qp.largest_real_root((-2, -2, 1))
    assert (Fraction(lo, d), Fraction(hi, d)) == (0, 3)


def test_isolate_no_real_roots():
    assert qp.largest_real_root((1, 0, 1)) is None
    assert qp.largest_real_root((5,)) is None


def test_largest_real_root_refuses_multiple_roots():
    with pytest.raises(ValueError):
        qp.largest_real_root((0, 0, 1, -1))


def test_largest_real_root_linear_is_exact():
    assert qp.largest_real_root((3, 2)) == (-3, -3, 2)
    assert qp.largest_real_root((3, -2)) == (3, 3, 2)


def test_largest_real_root_with_rational_roots():
    # (x - 1)(x - 2)(x - 3): the bisection ends on the root 3 exactly
    lo, hi, d = qp.largest_real_root((-6, 11, -6, 1))
    assert lo == hi and Fraction(hi, d) == 3
    # x (x^2 - 2x - 2): rational root 0 below the largest root 1 + sqrt(3)
    p = (0, -2, -2, 1)
    lo, hi, d = qp.largest_real_root(p)
    assert lo < hi
    assert qp.count_roots(p, lo, hi, d=d) == 1
    assert (_eval_at(p, Fraction(lo, d)) < 0) != (_eval_at(p, Fraction(hi, d)) < 0)
    assert qp.count_roots(p, Fraction(hi, d), Fraction(*qp.cauchy_root_bound(p))) == 0


def test_refine_bracket_halves_and_keeps_root():
    # x^2 - 2 is negative at 1; the half that holds sqrt(2) comes back over
    # twice the denominator
    assert qp.refine_bracket((-2, 0, 1), 1, 2, 1, -1) == (2, 3, 2)
    assert qp.refine_bracket((-2, 0, 1), 2, 3, 2, -1) == (5, 6, 4)
    assert qp.count_roots((-2, 0, 1), 5, 6, d=4) == 1
    # a rational root hit exactly collapses the bracket
    assert qp.refine_bracket((-3, 2), 1, 2, 1, -1) == (3, 3, 2)


def test_sturm_chain_signs_count_roots():
    chain = qp.sturm_chain((-2, 0, 1))
    # chain starts with p and p' = 2x, each divided by its content
    assert chain == [(-2, 0, 1), (0, 1), (1,)]
    assert all(type(c) is int for member in chain for c in member)
    assert qp.count_roots((-2, 0, 1), Fraction(1), Fraction(2), chain=chain) == 1
    # x^3 - 3x + 1 has three real roots, in (-2, -1), (0, 1) and (1, 2)
    chain = qp.sturm_chain((1, -3, 0, 1))
    assert chain == [(1, -3, 0, 1), (-1, 0, 1), (-1, 2), (1,)]
    assert [qp.count_roots((1, -3, 0, 1), Fraction(a), Fraction(a + 1), chain=chain)
            for a in range(-3, 3)] == [0, 1, 0, 1, 1, 0]


def _fraction_sturm_chain(p):
    """The classical chain on Fractions: p, p', then minus the remainder of
    the two before, by division over Q."""
    p = qp.trim(p)
    chain = [tuple(Fraction(c) for c in p), qp.deriv(p)]
    while chain[-1]:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(qp.neg(rem))
    return [c for c in chain if c]


def _random_int_poly(rng):
    degree = rng.randint(0, 9)
    coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
              for _ in range(degree)]
    lead = rng.choice((1, -1, rng.randint(-50, 50) or 3))
    if rng.randrange(3) == 0:
        # a square factor, so the chain ends in a nonconstant gcd
        return qp.mul(qp.mul((rng.randint(-5, 5), 1), (rng.randint(-5, 5), 1)), coeffs + [lead])
    return tuple(coeffs + [lead])


def test_integer_sturm_chain_is_a_positive_multiple_of_the_fraction_chain():
    rng = random.Random(20261019)
    for _ in range(400):
        p = _random_int_poly(rng)
        chain, reference = qp.sturm_chain(p), _fraction_sturm_chain(p)
        assert len(chain) == len(reference), p
        for member, classical in zip(chain, reference):
            assert all(type(c) is int for c in member), p
            assert len(member) == len(classical), p
            ratio = Fraction(member[-1]) / classical[-1]
            assert ratio > 0, p
            assert tuple(ratio * c for c in classical) == member, p
        ends = sorted({Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 300))
                       for _ in range(4)})
        for lo, hi in zip(ends, ends[1:]):
            assert (qp.count_roots(p, lo, hi, chain)
                    == qp.count_roots(p, lo, hi, reference)), (p, lo, hi)


def test_pseudo_rem_is_a_positive_multiple_of_the_remainder():
    rng = random.Random(4099)
    for _ in range(300):
        a, b = _random_int_poly(rng), _random_int_poly(rng)
        rem, reference = qp._pseudo_rem(a, b), _ref_divmod(a, b)[1]
        assert len(rem) == len(reference), (a, b)
        if rem:
            ratio = Fraction(rem[-1]) / reference[-1]
            assert ratio > 0 and tuple(ratio * c for c in reference) == rem, (a, b)


def _refine_recomputing_sign(p, lo, hi):
    """Halving on Fractions that evaluates the sign at lo on every step."""
    mid = (lo + hi) / 2
    slo, smid = _eval_at(p, lo), _eval_at(p, mid)
    if smid == 0:
        return mid, mid
    if (slo < 0) != (smid < 0):
        return lo, mid
    return mid, hi


def test_refine_bracket_with_a_carried_sign_matches_signs_recomputed():
    # the sign at lo survives every halving, so refining integer endpoints
    # with the first sign gives the brackets that recomputing it at each
    # step on Fractions gives
    for p, lo, hi in [((-2, 0, 1), 1, 2), ((-2, 0, 0, 1), 1, 2), ((1, -3, 0, 1), 0, 1),
                      ((-1, -1, 1), 1, 2), ((-3, 0, 1), -2, -1), ((-6, 11, -6, 1), 2, 4),
                      ((7, 0, -13, 0, 3), -2, -1)]:
        d = 1
        flo, fhi = Fraction(lo), Fraction(hi)
        sign_lo = qp._sign_at(p, lo, d)
        for _ in range(60):
            if lo == hi:
                break
            flo, fhi = _refine_recomputing_sign(p, flo, fhi)
            lo, hi, d = qp.refine_bracket(p, lo, hi, d, sign_lo)
            assert (Fraction(lo, d), Fraction(hi, d)) == (flo, fhi), p
        assert qp.count_roots(p, flo - Fraction(1, 10**30), fhi) == 1, p


def test_sign_at_over_a_denominator_is_the_sign_at_the_ratio():
    rng = random.Random(20261020)
    for _ in range(500):
        p = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 6)))
        a, d = rng.randint(-10**4, 10**4), rng.randint(1, 999)
        x = rng.choice((a, Fraction(a, rng.randint(1, 99))))
        v = _eval_at(p, Fraction(x) / d)
        assert qp._sign_at(p, x, d) == (v > 0) - (v < 0), (p, x, d)


def test_ratio_str_prints_as_fraction_does():
    rng = random.Random(99)
    for _ in range(500):
        a = rng.choice((0, rng.randint(-50, 50), rng.randint(-10**20, 10**20)))
        b = rng.choice((1, -1, rng.randint(-999, 999) or 7, rng.randint(1, 10**20)))
        assert qp.ratio_str(a, b) == str(Fraction(a, b)), (a, b)
