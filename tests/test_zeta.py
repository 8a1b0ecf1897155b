"""Tests for zeta series, rational reconstruction, and Weil checks."""

import random
from fractions import Fraction

import pytest

from weilzeta import qpoly
from weilzeta.errors import (
    DimensionMismatch,
    EmptySeries,
    FunctionalEquationViolated,
    InsufficientPrecision,
    MixedWeightFactor,
    NoRationalFit,
    NotIntegral,
    WeightOutOfRange,
)
from weilzeta.variety import PointCountSeries
from weilzeta.zeta import (
    RationalFunctionQ,
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
