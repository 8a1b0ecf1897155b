"""Tests for errors.data_lines, the line reader of every input parser, and
for check_int and check_ints, the one test of an integer argument."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import weilzeta as wz
from weilzeta.errors import (LITERAL_DIGITS, InvalidInput, ParseError, check_int,
                             check_ints, data_lines)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_data_lines_skip_blanks_and_comments():
    text = "# a comment\n\n  field p=5  \n\t# indented comment\r\npoly X0\n"
    assert list(data_lines(text)) == [(3, "field p=5"), (5, "poly X0")]


@pytest.mark.parametrize("number", [
    "9" * (LITERAL_DIGITS + 1),
    "9_" * (LITERAL_DIGITS // 2) + "9",  # int() reads 501 digits joined by '_'
    "９" * (LITERAL_DIGITS + 1),  # fullwidth digits, which int() reads
    "1" * LITERAL_DIGITS + "_",
], ids=["digits", "underscores", "fullwidth", "trailing-underscore"])
def test_data_lines_refuse_a_run_past_the_bound(number):
    text = "field minpoly=-2 0 1\n\ngen 1 " + number + "/2\n"
    with pytest.raises(ParseError, match=r"^line 3: a number has more than 1000 digits$"):
        list(data_lines(text))


def test_data_lines_keep_numbers_within_the_bound():
    # runs of exactly LITERAL_DIGITS, and a long line of short numbers
    text = ("-" + "9" * LITERAL_DIGITS + "." + "9" * LITERAL_DIGITS + "\n"
            + " ".join(["123_456"] * 2000) + "\n" + "X0*" * 5000 + "X0\n")
    assert [no for no, _ in data_lines(text)] == [1, 2, 3]


def test_check_int_takes_an_int_alone():
    assert check_int("n", 7) == 7 and check_int("n", True) is True
    assert check_ints("xs", [1, False, -3]) == (1, False, -3)
    assert check_ints("xs", iter(())) == ()
    for value in (3.0, Fraction(3), "3", None, 2.5):
        message = f"^n must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInput, match=message):
            check_int("n", value)
    # the first element that is not an int is named
    with pytest.raises(InvalidInput, match=r"^xs must be integers, got 2\.0$"):
        check_ints("xs", (1, 2.0, "3"))


def _sqrt2():
    return wz.RealNumberField.quadratic(2)


def _lattice():
    K = _sqrt2()
    return wz.PseudoLattice(field=K, generators=(K.one(), K.gen()))


# Each entry point below once read a float or a Fraction as an int, let it
# through into its arithmetic, failed with a builtin error, or blamed
# another argument or text the caller never wrote
@pytest.mark.parametrize("call, message", [
    (lambda: wz.ec_count(1.5, 0, 5), "A must be an integer, got 1.5"),
    (lambda: wz.ec_count(1, 1, 5.0), "p must be an integer, got 5.0"),
    (lambda: wz.cornacchia_two_squares(5.0), "p must be an integer, got 5.0"),
    (lambda: wz.grossencharacter_psi(13.0), "p must be an integer, got 13.0"),
    (lambda: wz.FrobeniusData(2.0, 5), "a must be an integer, got 2.0"),
    (lambda: wz.frobenius_eigenvalues(2, Fraction(5)), "q must be an integer, got Fraction(5, 1)"),
    (lambda: wz.FrobeniusData(2, 5).power_sum(1.5), "m must be an integer, got 1.5"),
    (lambda: wz.count_via_character(1.5, 5), "a must be an integer, got 1.5"),
    (lambda: wz.VarietySpec(5, "affine", 1.0, 0, ()), "dim must be an integer, got 1.0"),
    (lambda: wz.VarietySpec(5, "affine", 1, "0", ()), "vardim must be an integer, got '0'"),
    (lambda: wz.primes_in_range(5.0, 13), "lo must be an integer, got 5.0"),
    (lambda: wz.primes_in_range(5, 13.0), "hi must be an integer, got 13.0"),
    (lambda: wz.count_series(wz.load_variety(SAMPLES / "p1_f2.variety"), 2, budget="x"),
     "budget must be an integer, got 'x'"),
    (lambda: wz.count_points(wz.load_variety(SAMPLES / "p1_f2.variety"), 1, budget=None),
     "budget must be an integer, got None"),
    (lambda: wz.RealNumberField((-2, 0, 1), (1, 2), den=0.5), "den must be an integer, got 0.5"),
    (lambda: wz.RealNumberField((-2.0, 0, 1), (1, 2)),
     "minpoly coefficients must be integers, got -2.0"),
    (lambda: wz.RealNumberField.quadratic(Fraction(3)),
     "d must be an integer, got Fraction(3, 1)"),
    (lambda: _sqrt2().from_rational(1, den=0.5), "den must be an integer, got 0.5"),
    (lambda: _sqrt2().gen().decimal_str(2.5), "digits must be an integer, got 2.5"),
    (lambda: _sqrt2().gen() ** 2.0, "e must be an integer, got 2.0"),
    (lambda: wz.HeckeLikeMatrix(2.0, ((2, 1), (1, 1))), "b must be an integer, got 2.0"),
    (lambda: wz.HeckeLikeMatrix(2, ((2, 1), (1, 2)), ell=3.0), "ell must be an integer, got 3.0"),
    (lambda: wz.point_count_from_frobenius(_lattice(), ((1, 0), (0, 1)), 5.5),
     "q must be an integer, got 5.5"),
    (lambda: wz.betti_check(wz.weight_split(wz.RationalFunctionQ((1,), (1, -1)), 3, 0), (1.0,)),
     "expected Betti numbers must be integers, got 1.0"),
    (lambda: wz.curve_trace_cohomology(1.0, (_sqrt2().gen(),)),
     "genus must be an integer, got 1.0"),
    (lambda: wz.PointCountSeries(3, ("a",)), "point counts must be integers, got 'a'"),
    (lambda: wz.curve_numerator(wz.PointCountSeries(3.0, (4, 16)), 1),
     "q must be an integer, got 3.0"),
    (lambda: wz.PointCountSeries(1, (2, 2)), "q must be >= 2, got 1"),
    (lambda: wz.weierstrass_variety(1.5, 1, 5), "A must be an integer, got 1.5"),
    (lambda: wz.weierstrass_variety(1, "1", 5), "B must be an integer, got '1'"),
    (lambda: wz.weierstrass_variety(1, 1, 5.0), "p must be an integer, got 5.0"),
], ids=["ec_count A", "ec_count p", "cornacchia", "psi", "FrobeniusData", "eigenvalues",
        "power_sum", "count_via_character", "variety dim", "variety vardim", "primes lo",
        "primes hi", "count_series budget", "count_points budget", "field den", "field minpoly",
        "quadratic", "from_rational den", "decimal_str", "pow", "matrix b", "matrix ell",
        "frobenius q", "betti", "cohomology", "series counts", "series q", "series q < 2",
        "weierstrass A", "weierstrass B", "weierstrass p"])
def test_integer_arguments_refuse_other_types_by_name(call, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()
