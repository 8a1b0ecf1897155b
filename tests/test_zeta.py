"""Tests for zeta series, rational reconstruction, and Weil checks."""

import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from weilzeta import qpoly, zeta
from weilzeta.errors import (
    DimensionMismatch,
    EmptySeries,
    FunctionalEquationViolated,
    InsufficientPrecision,
    InternalError,
    InvalidInput,
    MixedWeightFactor,
    NoRationalFit,
    NotIntegral,
    NotNormalized,
    WeightOutOfRange,
    WeilZetaError,
)
from weilzeta.qlinalg import solve_right
from weilzeta.variety import PointCountSeries
from weilzeta.zeta import (
    RationalFunctionQ,
    WeilFactorization,
    _numeric_roots,
    betti_check,
    curve_numerator,
    functional_equation_check,
    pade_reconstruct,
    point_count_from_zeta,
    rational_function,
    rh_check,
    weight_split,
    with_sign,
    zeta_series,
)

E5_COUNTS = PointCountSeries(5, (8, 32, 104, 640))
P1_F2_COUNTS = PointCountSeries(2, (3, 5, 9))


def _zeta_e5():
    return pade_reconstruct(zeta_series(E5_COUNTS), 2, 2)


def test_zeta_series_frozen_coefficients():
    s = zeta_series(E5_COUNTS)
    assert s.coeffs == (1, 8, 48, 248, 1248)
    s2 = zeta_series(P1_F2_COUNTS)
    assert s2.coeffs == (1, 3, 7, 15)


def test_zeta_series_rejects_empty():
    with pytest.raises(EmptySeries):
        zeta_series(PointCountSeries(5, ()))


def test_zeta_series_multiplicative_over_disjoint_union():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [rng.randint(0, 20) for _ in range(n)]
        b = [rng.randint(0, 20) for _ in range(n)]
        za = zeta_series(PointCountSeries(7, tuple(a))).coeffs
        zb = zeta_series(PointCountSeries(7, tuple(b))).coeffs
        zu = zeta_series(PointCountSeries(7, tuple(x + y for x, y in zip(a, b)))).coeffs
        conv = tuple(
            sum(za[i] * zb[k - i] for i in range(k + 1)) for k in range(n + 1)
        )
        assert zu == conv


def test_pade_reconstruct_elliptic_curve():
    z = _zeta_e5()
    assert z.num == (1, 2, 5)
    assert z.den == (1, -6, 5)
    assert str(z) == "(1 + 2*t + 5*t^2) / (1 - 6*t + 5*t^2)"


def test_pade_reconstruct_projective_line():
    z = pade_reconstruct(zeta_series(P1_F2_COUNTS), 0, 2)
    assert z.num == (1,)
    assert z.den == (1, -3, 2)


def test_pade_insufficient_precision():
    s = zeta_series(PointCountSeries(5, (8, 32)))
    with pytest.raises(InsufficientPrecision):
        pade_reconstruct(s, 2, 2)


def test_pade_no_rational_fit():
    s = zeta_series(E5_COUNTS)
    with pytest.raises(NoRationalFit):
        pade_reconstruct(s, 0, 1)


def test_rational_function_cancels_common_factor():
    # (1+2t+5t^2)(1-t) over (1-t)(1-5t)
    z = rational_function((1, 1, 3, -5), (1, -6, 5))
    assert z.num == (1, 2, 5)
    assert z.den == (1, -5)


def test_rational_function_requires_integer_normal_form():
    with pytest.raises(NotIntegral):
        rational_function((1, 1), (2, 1))
    with pytest.raises(NotIntegral):
        rational_function((2, 1), (1, 1))


def test_curve_numerator_full_mode():
    assert curve_numerator(PointCountSeries(5, (8, 32)), 1) == (1, 2, 5)
    assert curve_numerator(PointCountSeries(5, (8, 32, 104)), 1) == (1, 2, 5)


def test_curve_numerator_symmetric_mode():
    assert curve_numerator(PointCountSeries(5, (8,)), 1, mode="symmetric") == (1, 2, 5)
    # supersingular curve over F_7 has trace zero
    assert curve_numerator(PointCountSeries(7, (8,)), 1, mode="symmetric") == (1, 0, 7)


def test_curve_numerator_detects_inconsistent_counts():
    with pytest.raises(FunctionalEquationViolated):
        curve_numerator(PointCountSeries(5, (8, 33)), 1)


def test_functional_equation_signs():
    # point: Z = 1/(1-t), chi = 1
    z_point = RationalFunctionQ((1,), (1, -1))
    assert functional_equation_check(z_point, 5, 0, 1) == -1
    # projective line: chi = 2
    z_line = RationalFunctionQ((1,), (1, -3, 2))
    assert functional_equation_check(z_line, 2, 1, 2) == 1
    # projective plane: chi = 3
    z_plane = RationalFunctionQ((1,), (1, -13, 39, -27))
    assert functional_equation_check(z_plane, 3, 2, 3) == -1
    # elliptic curve: chi = 0
    assert functional_equation_check(_zeta_e5(), 5, 1, 0) == 1


def test_functional_equation_odd_exponent_undetermined():
    # q = 4 with a genuine weight-1 factor: only the squared identity applies
    z = RationalFunctionQ((1, -2), (1, -5, 4))
    assert functional_equation_check(z, 4, 1, 1) is None


def test_functional_equation_violation_reports_residuals():
    z = RationalFunctionQ((1, 1), (1, -5))
    with pytest.raises(FunctionalEquationViolated) as info:
        functional_equation_check(z, 5, 1, 0)
    assert info.value.residual_plus is not None
    assert info.value.residual_minus is not None
    z_line = RationalFunctionQ((1,), (1, -3, 2))
    with pytest.raises(FunctionalEquationViolated):
        functional_equation_check(z_line, 2, 1, 1)


def test_weight_split_elliptic_curve():
    fact = weight_split(_zeta_e5(), 5, 1)
    assert fact.factors == ((0, (1, -1)), (1, (1, 2, 5)), (2, (1, -5)))
    assert fact.chi == 0
    assert fact.parity_ok
    assert fact.misplaced == ()
    assert fact.sign is None
    signed = with_sign(fact, 1)
    assert signed.sign == 1
    assert signed.factors == fact.factors


def test_with_sign_copies_every_other_field():
    fact = weight_split(RationalFunctionQ((1,), (1, -3, 2)), 4, 1)
    assert fact.misplaced and fact.sign is None
    signed = with_sign(fact, -1)
    assert signed.sign == -1 and fact.sign is None
    for name in ("q", "n", "factors", "chi", "misplaced"):
        assert getattr(signed, name) == getattr(fact, name), name
    assert signed != fact and with_sign(signed, None) == fact
    assert hash(with_sign(signed, None)) == hash(fact)
    # the copy goes through the constructor, so its checks run again
    signed.chi += 1
    with pytest.raises(InternalError, match="^chi does not match factor degrees$"):
        with_sign(signed, 1)


def test_weil_factorization_constructor_messages():
    line = ((0, (1, -1)), (1, (1,)), (2, (1, -5)))
    assert WeilFactorization(5, 1, line, 2).misplaced == ()
    cases = (
        ((5, 1, line[::2], 2), InternalError, "factorization must list every weight 0..2n"),
        ((5, 1, ((0, (1, -1)), (1, (2, 1)), (2, (1, -5))), 1), NotNormalized,
         "P_1 must have constant term 1"),
        ((5, 1, ((0, (1, -2)),) + line[1:], 2), WeightOutOfRange,
         "weight-0 factor must be 1 - t, got 1 - 2*t"),
        ((5, 1, line[:2] + ((2, (1, -4)),), 2), WeightOutOfRange,
         "weight-2 factor must be 1 - 5*t, got 1 - 4*t"),
        ((5, 1, line, 0), InternalError, "chi does not match factor degrees"),
    )
    for args, error, message in cases:
        with pytest.raises(error) as info:
            WeilFactorization(*args)
        assert str(info.value) == message


def test_rational_function_equality_and_hash_follow_the_fields():
    a, b = RationalFunctionQ((1, 2), (1, -5)), RationalFunctionQ((1, 2), (1, -5))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != RationalFunctionQ((1, -5), (1, 2))
    assert a != ((1, 2), (1, -5))


def test_weight_split_projective_plane():
    z = RationalFunctionQ((1,), (1, -13, 39, -27))
    fact = weight_split(z, 3, 2)
    assert fact.factor(0) == (1, -1)
    assert fact.factor(2) == (1, -3)
    assert fact.factor(4) == (1, -9)
    assert fact.factor(1) == (1,)
    assert fact.chi == 3


def test_weight_split_mixed_weight_factor():
    z = RationalFunctionQ((1,), (1, -1, -1))
    with pytest.raises(MixedWeightFactor):
        weight_split(z, 2, 1)


def test_weight_split_weight_out_of_range():
    z = RationalFunctionQ((1,), (1, -8))
    with pytest.raises(WeightOutOfRange):
        weight_split(z, 2, 1)


def test_weight_split_records_misplaced_parity():
    # weight-1 factor sitting in the denominator
    z = RationalFunctionQ((1,), (1, -3, 2))
    fact = weight_split(z, 4, 1)
    assert not fact.parity_ok
    assert len(fact.misplaced) == 1


def test_rh_check_passes_on_true_weight():
    r = rh_check((1, 2, 5), 5, 1)
    assert r.max_modulus_deviation < 1e-12
    assert r.reciprocal_ok is True
    assert r.passed
    r2 = rh_check((1, -5), 5, 2)
    assert r2.max_modulus_deviation < 1e-12
    assert r2.reciprocal_ok is True


@pytest.mark.parametrize("factor, q, power", [
    ((1, -1, 5), 5, 2),
    ((1, 2, 7), 7, 2),
    ((1, 2, 5), 5, 3),
])
def test_rh_check_repeated_factor(factor, q, power):
    P = (1,)
    for _ in range(power):
        P = qpoly.mul(P, factor)
    r = rh_check(P, q, 1)
    assert r.max_modulus_deviation < 1e-12
    assert r.reciprocal_ok is True
    assert r.passed


def test_rh_check_detects_wrong_modulus():
    r = rh_check((1, -3), 5, 1)
    assert abs(r.max_modulus_deviation - 0.2546440075) < 1e-9
    assert not r.passed
    # degree times weight odd: exact reciprocity is inapplicable
    assert r.reciprocal_ok is None


@pytest.mark.parametrize("P, q, i", [
    ((1, -1), 2 ** 1100 + 1, 0),  # q itself is no double
    ((1, -1), 2 ** 600, 4),       # q is, q^2 is not
])
def test_rh_check_q_power_outside_doubles_is_invalid_input(P, q, i):
    with pytest.raises(InvalidInput, match="overflows a double"):
        rh_check(P, q, i)


def test_rh_check_without_roots_needs_no_power_of_q():
    assert rh_check((1,), 2 ** 1100 + 1, 2).passed


def test_rh_check_exact_reciprocity_failure():
    r = rh_check((1, 0, 25), 5, 1)
    assert r.reciprocal_ok is False
    assert not r.passed


def test_betti_check():
    fact = weight_split(_zeta_e5(), 5, 1)
    assert betti_check(fact, (1, 2, 1)) == (True, True, True)
    assert betti_check(fact, (1, 3, 1)) == (True, False, True)
    with pytest.raises(DimensionMismatch):
        betti_check(fact, (1, 2))


def test_point_count_recovery_round_trip():
    z = _zeta_e5()
    assert [point_count_from_zeta(z, m) for m in (1, 2, 3, 4)] == [8, 32, 104, 640]
    z_plane = RationalFunctionQ((1,), (1, -13, 39, -27))
    assert point_count_from_zeta(z_plane, 1) == 13
    assert point_count_from_zeta(z_plane, 2) == 91
    # counts beyond the input window follow from rationality
    assert point_count_from_zeta(z, 5) == 3208


def test_point_count_from_zeta_requires_integer_counts():
    z = RationalFunctionQ((1,), (1, Fraction(-1, 2)))
    with pytest.raises(NotIntegral):
        point_count_from_zeta(z, 1)


def _weil_numerator(q, traces):
    num = (1,)
    for a in traces:
        num = qpoly.mul(num, (1, -a, q))
    return num


def test_pade_and_point_count_round_trip_on_random_weil_numerators():
    # N_m = q^m + 1 - sum_i s_m(a_i), with s_m the power sums of the roots
    # of x^2 - a_i x + q; point_count_from_zeta must reproduce them, and
    # pade_reconstruct must rebuild num/den from their zeta series
    rng = random.Random(1009)
    for _ in range(200):
        q = rng.choice((2, 3, 4, 5, 7, 9))
        g = rng.randint(1, 3)
        bound = int(2 * q ** 0.5)
        traces = [rng.randint(-bound, bound) for _ in range(g)]
        z = RationalFunctionQ(_weil_numerator(q, traces), (1, -(q + 1), q))
        sums = [(2, a) for a in traces]
        expected = []
        for m in range(1, 2 * g + 3):
            expected.append(q ** m + 1 - sum(s1 for _, s1 in sums))
            sums = [(s1, a * s1 - q * s0) for (s0, s1), a in zip(sums, traces)]
        counts = [point_count_from_zeta(z, m) for m in range(1, 2 * g + 3)]
        assert counts == expected, (q, traces)
        assert pade_reconstruct(zeta_series(counts), 2 * g, 2) == z, (q, traces)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_pade_no_rational_fit_names_the_first_differing_order(k):
    # 1/(1 - 2t) through order k - 1, then one coefficient off
    coeffs = [Fraction(2) ** j for j in range(9)]
    coeffs[k] += 1
    with pytest.raises(NoRationalFit, match=f"at order {k}$"):
        pade_reconstruct(coeffs, 0, 1)


def _pade_by_re_expansion(coeffs, num_deg, den_deg):
    """The Pade fit verified the classical way: num/den re-expanded as a
    power series on Fractions and compared with every series term."""
    order = len(coeffs) - 1

    def c(k):
        return Fraction(coeffs[k]) if 0 <= k <= order else Fraction(0)

    den = [Fraction(1)]
    if den_deg:
        sol = solve_right([[c(k - j) for j in range(1, den_deg + 1)]
                           for k in range(num_deg + 1, num_deg + den_deg + 1)],
                          [-c(k) for k in range(num_deg + 1, num_deg + den_deg + 1)])
        if sol is None:
            raise NoRationalFit("no denominator matches the series")
        den += sol
    num = [sum(den[j] * c(k - j) for j in range(min(k, den_deg) + 1))
           for k in range(num_deg + 1)]
    expanded = []
    for k in range(order + 1):
        acc = num[k] if k <= num_deg else Fraction(0)
        for j in range(1, min(k, den_deg) + 1):
            acc -= den[j] * expanded[k - j]
        expanded.append(acc)
        if acc != c(k):
            raise NoRationalFit(f"re-expansion differs from the series at order {k}")
    return _ref_rational_function(num, den)


def _ref_divmod(num, den):
    """Long division on Fractions."""
    num, den = qpoly.trim(num), qpoly.trim(den)
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = [Fraction(c) for c in num]
    for k in range(len(num) - len(den), -1, -1):
        quo[k] = rem[k + len(den) - 1] / den[-1]
        for j, b in enumerate(den):
            rem[k + j] -= quo[k] * b
    return qpoly.trim(quo), qpoly.trim(rem)


def _ref_gcd(p, q):
    """Monic gcd by Euclid on Fractions."""
    a, b = qpoly.trim(p), qpoly.trim(q)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a)


def _ref_zeta_series(counts):
    """The series recurrence k * c_k = sum N_m c_(k-m) on Fractions."""
    cs = [Fraction(1)]
    for k in range(1, len(counts) + 1):
        cs.append(sum(Fraction(counts[m - 1]) * cs[k - m] for m in range(1, k + 1)) / k)
    return tuple(cs)


def _ref_rational_function(num, den):
    """rational_function on Fractions: the monic gcd cancelled by long
    division, then everything divided by den(0)."""
    num = qpoly.trim(tuple(Fraction(c) for c in num))
    den = qpoly.trim(tuple(Fraction(c) for c in den))
    if not den or den[0] == 0:
        raise NotNormalized("denominator must have nonzero constant term")
    if not num:
        raise NotNormalized("zero is not a valid zeta function")
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    scale = den[0]
    num, den = tuple(c / scale for c in num), tuple(c / scale for c in den)
    if num[0] != 1:
        raise NotIntegral(f"numerator constant term {num[0]} != 1")
    for c in num + den:
        if c.denominator != 1:
            raise NotIntegral(f"non-integer coefficient {c} after normalization")
    return RationalFunctionQ(tuple(int(c) for c in num), tuple(int(c) for c in den))


def _outcome(fit, coeffs, num_deg, den_deg):
    try:
        z = fit(coeffs, num_deg, den_deg)
    except WeilZetaError as exc:
        return type(exc).__name__, str(exc)
    return z.num, z.den


def _random_series(rng):
    """Coefficients of a zeta series, of a rational function (sometimes with
    one coefficient off), or of a geometric series, whose wide splits give
    singular, under-determined denominator systems."""
    order = rng.randint(1, 8)
    kind = rng.randrange(3)
    if kind == 0:
        return zeta_series([rng.randint(-3, 40) for _ in range(order)]).coeffs
    if kind == 1:
        num = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        den = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        coeffs = _pade_series(num, den, order)
        if rng.randrange(3) == 0:
            coeffs[rng.randrange(order + 1)] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return coeffs
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
    return [a ** k for k in range(order + 1)]


def _pade_series(num, den, order):
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        acc -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(acc)
    return out


def test_pade_check_by_multiplication_matches_re_expansion():
    rng = random.Random(20261019)
    failures = fits = 0
    for _ in range(200):
        coeffs = _random_series(rng)
        order = len(coeffs) - 1
        for den_deg in range(order + 1):
            for num_deg in range(order - den_deg + 1):
                got = _outcome(pade_reconstruct, coeffs, num_deg, den_deg)
                assert got == _outcome(_pade_by_re_expansion, coeffs, num_deg, den_deg), (
                    coeffs, num_deg, den_deg)
                failures += "re-expansion" in got[1] if isinstance(got[0], str) else 0
                fits += not isinstance(got[0], str)
    # both branches are exercised many times
    assert failures > 500 and fits > 300, (failures, fits)


def test_tiny_root_moduli_keep_relative_precision():
    # roots +-i * 2^-350 and +-i * 2^-600, far below any fixed absolute
    # scale such as 2^-256 or 2^-512
    poly = (1, 0, 2 ** 700)
    assert [abs(rho) for rho in _numeric_roots(poly)] == [2.0 ** -350] * 2
    assert [abs(rho) for rho in _numeric_roots((1, 0, 2 ** 1200))] == [2.0 ** -600] * 2
    assert weight_split(RationalFunctionQ(poly, (1,)), 2 ** 700, 1).factor(1) == poly
    assert rh_check(poly, 2 ** 700, 1).max_modulus_deviation == 0.0


@pytest.mark.parametrize("call", [
    lambda poly: _numeric_roots(poly),
    lambda poly: weight_split(RationalFunctionQ(poly, (1,)), 2, 1),
    lambda poly: rh_check(poly, 2, 1),
])
def test_root_below_the_double_range_raises_internal_error(call):
    # the root 2^-1100 would round to 0.0 and reach log() in weight_split
    with pytest.raises(InternalError, match="outside the range of doubles"):
        call((1, -2 ** 1100))


def test_two_seeds_on_one_root_raise_internal_error(monkeypatch):
    # both seeds of 1 + t + t^2 near one root: Newton lands both on it, and
    # without the distinctness check the other root would go missing
    monkeypatch.setattr(zeta, "_aberth_seeds",
                        lambda a: (0, [complex(-0.5, 0.86), complex(-0.5, 0.87)]))
    with pytest.raises(InternalError, match="distinctness"):
        _numeric_roots((1, 1, 1))


def _mpmath_roots(coeffs):
    # the root finder zeta used before its pure-Python one: mpmath.polyroots
    # at 60 digits, escalating once to 120, each root checked by its
    # relative residual
    import mpmath

    deg = qpoly.degree(coeffs)
    if deg < 1:
        return []
    high_first = list(reversed(qpoly.trim(coeffs)))
    for dps in (60, 120):
        with mpmath.workdps(dps):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in high_first],
                                     maxsteps=200, extraprec=120)
            vals = []
            for rho in roots:
                res = abs(mpmath.polyval(high_first, rho))
                scale_sum = sum(abs(mpmath.mpf(a)) * abs(rho) ** (deg - j)
                                for j, a in enumerate(high_first))
                if scale_sum == 0 or res / scale_sum > mpmath.mpf("1e-10"):
                    break
                vals.append(complex(rho))
            else:
                return vals
    raise InternalError(f"mpmath failed the residual check for {qpoly.poly_str(coeffs)}")


def _differential_cases():
    """250 (P, q, i) with P(0) = 1: the shapes the Weil pipeline produces."""
    rng = random.Random(15)
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 121, 125)
    cases = []
    for _ in range(90):      # Weil products, genus <= 4
        q = rng.choice(qs)
        bound = isqrt(4 * q)
        traces = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 4))]
        cases.append((_weil_numerator(q, traces), q, 1))
    for _ in range(30):      # repeated factors: a^2 = 4q, or equal traces
        q = rng.choice((4, 9, 25, 49, 121))
        bound = isqrt(4 * q)
        a, b = rng.choice((-bound, bound)), rng.randint(-bound, bound)
        cases.append((_weil_numerator(q, rng.choice(([a, a], [a, b], [b, b, a]))), q, 1))
    for _ in range(40):      # one trace outside the Hasse range
        q = rng.choice(qs)
        out = rng.choice((-1, 1)) * (isqrt(4 * q) + rng.randint(1, 6))
        traces = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [out]
        cases.append((_weil_numerator(q, traces), q, 1))
    for q in (2, 3, 5, 7, 9, 25, 49, 125):   # 1 - q^j t and 1 + q t^2
        cases += [((1, -q ** j), q, 2 * j) for j in range(3)] + [((1, 0, q), q, 1)]
    for _ in range(250 - len(cases)):        # random integer polynomials
        middle = [rng.randint(-20, 20) for _ in range(rng.randint(0, 7))]
        lead = rng.choice((-1, 1)) * rng.randint(1, 20)
        cases.append(((1, *middle, lead), rng.choice(qs), rng.randint(0, 4)))
    return cases


def _radical(P):
    """P / gcd(P, P') in primitive form, on Fractions; P when square-free."""
    g = _ref_gcd(P, qpoly.deriv(P))
    return qpoly.primitive_int(_ref_divmod(P, g)[0]) if len(g) > 1 else P


def _weil_outcome(P, q, i):
    try:
        split = weight_split(RationalFunctionQ(P, (1,)), q, 4)
    except WeilZetaError as exc:
        split = (type(exc).__name__, str(exc))
    r = rh_check(P, q, i)
    return split, f"{r.max_modulus_deviation:.3e}", r.passed


def test_numeric_roots_match_mpmath_on_weil_shaped_polynomials(monkeypatch):
    # differential against mpmath, the root finder's former implementation:
    # the moduli of the roots are the same doubles, so the deviation that
    # rh_check reports and the weights that weight_split prints agree
    cases = _differential_cases()
    assert len(cases) == 250
    oracle = lru_cache(maxsize=None)(_mpmath_roots)
    # both passes factor the same polynomials; factor each once
    monkeypatch.setattr(qpoly, "factor_int", lru_cache(maxsize=None)(qpoly.factor_int))
    for P, _, _ in cases:
        radical = _radical(P)
        assert (sorted(abs(rho) for rho in _numeric_roots(radical))
                == sorted(abs(rho) for rho in oracle(radical))), P
    ours = [_weil_outcome(*case) for case in cases]
    monkeypatch.setattr(zeta, "_numeric_roots", oracle)
    for case, outcome in zip(cases, ours):
        assert _weil_outcome(*case) == outcome, case
    kinds = {split[0] for split, _, _ in ours if isinstance(split, tuple)}
    assert "MixedWeightFactor" in kinds


# --- the integer Weil path against its Fraction reference ---

def _ref_functional_equation(z, q, n, chi):
    """functional_equation_check with the power of q as a Fraction;
    'violated' in place of the exception."""
    qn = q ** n
    lhs = qpoly.mul(qpoly.compose_linear(qpoly.reverse(z.num), qn), z.den)
    rhs = qpoly.mul(z.num, qpoly.compose_linear(qpoly.reverse(z.den), qn))
    e = n * chi
    if e % 2:
        sq = qpoly.sub(qpoly.scale(qpoly.mul(lhs, lhs), Fraction(q) ** e), qpoly.mul(rhs, rhs))
        return "violated" if sq else None
    scaled = qpoly.scale(lhs, Fraction(q) ** (e // 2))
    if not qpoly.sub(scaled, rhs):
        return 1
    return -1 if not qpoly.add(scaled, rhs) else "violated"


def _fe_outcome(z, q, n, chi):
    try:
        return functional_equation_check(z, q, n, chi)
    except FunctionalEquationViolated as exc:
        assert all(type(c) is int for c in exc.residual_plus + (exc.residual_minus or ()))
        return "violated"


def _weil_style_zeta(rng):
    """(z, q, n): a curve of genus 1-3 (chi <= 0), some traces repeated or
    outside the Hasse range, or a variety whose even factors repeat."""
    q = rng.choice((2, 3, 4, 5, 7, 8, 9, 25, 27))
    bound = isqrt(4 * q)
    if rng.randrange(3):
        traces = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 3))]
        if rng.randrange(3) == 0:
            traces[-1] = traces[0]
        if rng.randrange(4) == 0:
            traces[0] = rng.choice((-1, 1)) * (bound + rng.randint(1, 3))
        return RationalFunctionQ(_weil_numerator(q, traces), (1, -(q + 1), q)), q, 1
    n = rng.randint(1, 3)
    den = (1,)
    for i in range(2 * n + 1):
        for _ in range(rng.randint(1, 2) if 0 < i < 2 * n else 1):
            den = qpoly.mul(den, (1, -q ** i) if i % 2 == 0 else (1,))
    return RationalFunctionQ((1,), den), q, n


def test_integer_weil_path_matches_the_fraction_reference():
    # seeded Weil-style count series through every Pade split, then the
    # functional equation of each fit, against the Fraction reference
    rng = random.Random(20261021)
    negative_chi = fits = 0
    for _ in range(120):
        z, q, n = _weil_style_zeta(rng)
        m_max = len(z.num) + len(z.den) - 1
        counts = [point_count_from_zeta(z, m) for m in range(1, m_max + 1)]
        coeffs = zeta_series(counts).coeffs
        assert coeffs == _ref_zeta_series(counts)
        assert all(type(c) is int for c in coeffs)
        for den_deg in range(m_max + 1):
            num_deg = m_max - den_deg
            got = _outcome(pade_reconstruct, coeffs, num_deg, den_deg)
            assert got == _outcome(_pade_by_re_expansion, coeffs, num_deg, den_deg), (
                counts, num_deg, den_deg)
            if isinstance(got[0], str):
                continue
            fits += 1
            fit = RationalFunctionQ(*got)
            chi = len(fit.den) - len(fit.num)
            negative_chi += chi < 0
            assert _fe_outcome(fit, q, n, chi) == _ref_functional_equation(fit, q, n, chi)
            assert _fe_outcome(fit, q, n, chi + 1) == _ref_functional_equation(
                fit, q, n, chi + 1)
    assert fits > 400 and negative_chi > 200, (fits, negative_chi)


def test_gcd_and_radical_match_the_fraction_reference(monkeypatch):
    rng = random.Random(20261022)
    radicals = []
    monkeypatch.setattr(zeta, "_numeric_roots",
                        lambda coeffs: radicals.append(coeffs) or [])
    for _ in range(150):
        common = qpoly.trim(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        a = qpoly.mul(common or (1,), tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        b = qpoly.mul(common or (1,), tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        if rng.randrange(3) == 0:
            a = qpoly.scale(a, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        g = qpoly.gcd_poly(a, b)
        if not qpoly.trim(a) and not qpoly.trim(b):
            assert g == ()
            continue
        assert all(type(c) is int for c in g) and g[-1] > 0 and qpoly.primitive_int(g) == g
        assert tuple(Fraction(c, g[-1]) for c in g) == _ref_gcd(a, b)
        # P(0) = 1, often with repeated factors; rh_check hands the root
        # finder P / gcd(P, P') in primitive form, or P itself
        q = rng.choice((2, 3, 5, 9))
        traces = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        P = _weil_numerator(q, traces + rng.sample(traces, rng.randint(0, len(traces))))
        rh_check(P, q, 1)
        assert radicals.pop() == _radical(P), P


def test_rational_library_inputs_keep_their_values_and_messages():
    assert zeta_series([1, 0]).coeffs == (1, 1, Fraction(1, 2))
    assert zeta_series([Fraction(1, 2)]).coeffs == (1, Fraction(1, 2))
    with pytest.raises(NotIntegral, match=r"^numerator constant term 1/2 != 1$"):
        rational_function((1, 1), (2, 1))
    with pytest.raises(NotIntegral, match=r"^numerator constant term -1/2 != 1$"):
        rational_function((1, 1), (-2, 1))
    with pytest.raises(NotIntegral, match=r"^non-integer coefficient 5/3 after normalization$"):
        rational_function((3, 5), (3, 1))
    with pytest.raises(NotIntegral, match=r"^non-integer coefficient -1/4 after normalization$"):
        rational_function((Fraction(1, 2), 0, 1), (Fraction(1, 2), Fraction(-1, 8)))
    rng = random.Random(20261023)
    for _ in range(300):
        counts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.randrange(3) == 0
                  else rng.randint(-3, 30) for _ in range(rng.randint(1, 6))]
        assert zeta_series(counts).coeffs == _ref_zeta_series(counts)
        num, den = ([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                     for _ in range(rng.randint(0, 4))] for _ in range(2))
        common = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if rng.randrange(2):
            num, den = qpoly.mul(num, common), qpoly.mul(den, common)
        try:
            got = rational_function(num, den)
        except WeilZetaError as exc:
            got = type(exc).__name__, str(exc)
        try:
            ref = _ref_rational_function(num, den)
        except WeilZetaError as exc:
            ref = type(exc).__name__, str(exc)
        assert got == ref, (num, den)


def test_round_scaled_rounds_like_round_of_a_fraction():
    rng = random.Random(20261024)
    cases = [(2.5, 0), (3.5, 0), (-2.5, 0), (0.75, 1), (-0.75, 1), (5.0, -1), (7.0, -1)]
    for _ in range(500):
        x = rng.choice((-1, 1)) * rng.random() * 2.0 ** rng.randint(-60, 60)
        cases.append((x, rng.randint(-80, 300)))
    for x, e in cases:
        assert zeta._round_scaled(x, e) == round(Fraction(x) * Fraction(2) ** e), (x, e)
