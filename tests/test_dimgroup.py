"""Tests for dimension groups built from primitive integer matrices."""

import random
from fractions import Fraction as F

import pytest

from weilzeta.dimgroup import (
    HeckeLikeMatrix,
    build,
    equivalent,
    frobenius_shift_matches_eigenvalue,
    hecke_companion,
    make_matrix,
    parse_matrix,
    shift,
    shift_inverse,
    trace_value,
    unit_decomposition,
)
from weilzeta.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidInput,
    NotPrimitive,
    NotRepresentable,
    ParseError,
)
from weilzeta.realalg import RealNumberField, minimal_polynomial, same_number


def _hecke_group():
    return build(make_matrix([[3, 1], [1, 1]], ell=2))


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        make_matrix([[1, 2]])
    with pytest.raises(InvalidInput):
        make_matrix([[-1, 1], [1, 1]])
    with pytest.raises(NotPrimitive):
        make_matrix([[0, 1], [1, 0]])
    with pytest.raises(NotPrimitive):
        make_matrix([[1, 1], [0, 1]])
    with pytest.raises(NotPrimitive):
        make_matrix([[2, 0], [0, 3]])


def test_matrix_ell_tag_requires_symmetry_and_det():
    with pytest.raises(InvalidInput):
        make_matrix([[3, 1], [2, 1]], ell=1)
    with pytest.raises(InvalidInput):
        make_matrix([[3, 1], [1, 1]], ell=3)
    T = make_matrix([[3, 1], [1, 1]], ell=2)
    assert T.det() == 2
    assert T.ell == 2


def test_primitivity_allows_zero_entries():
    T = make_matrix([[0, 1], [1, 1]])
    assert T.rows == ((0, 1), (1, 1))


def test_build_certifies_perron_eigenvalue():
    G = _hecke_group()
    assert minimal_polynomial(G.lam) == (2, -4, 1)
    K = RealNumberField.quadratic(2)
    two_plus_root2 = K.from_rational(F(2)) + K.gen()
    assert same_number(G.lam, two_plus_root2)


def test_build_left_eigenvector_normalized():
    G = _hecke_group()
    assert G.w[0] == G.field.one()
    # w_2 = lambda - 3 = sqrt(2) - 1
    assert G.w[1] == G.field.element((F(-3), F(1)))
    assert G.w[1].decimal_str(10) == "0.4142135624"


def test_build_golden_ratio_case():
    G = build(make_matrix([[0, 1], [1, 1]]))
    assert minimal_polynomial(G.lam) == (-1, -1, 1)
    assert G.w[1] == G.lam


def test_build_separates_a_rational_eigenvalue():
    # chi = x (x^2 - 2x - 2): the factors x and x^2 - 2x - 2 both have real
    # roots, one of them rational; lambda = 1 + sqrt(3)
    G = build(make_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 2]]))
    assert G.field.minpoly == (-2, -2, 1)
    assert minimal_polynomial(G.lam) == (-2, -2, 1)
    assert G.field.interval() == (F(3, 2), F(3))
    assert G.w == (G.field.one(), G.field.one(), G.lam)


def test_build_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrum):
        build(make_matrix([[1]]))


def test_build_one_dimensional():
    G = build(make_matrix([[2]]))
    assert G.lam == G.field.from_rational(F(2))
    assert trace_value(G, ((3,), 2)) == G.field.from_rational(F(3, 4))


def test_trace_values_frozen():
    G = _hecke_group()
    one = G.field.one()
    assert trace_value(G, ((1, 0), 0)) == one
    assert trace_value(G, ((0, 1), 0)) == G.w[1]
    # tau(e_1 at level 1) = 1/lambda = (2 - sqrt(2))/2
    assert trace_value(G, ((1, 0), 1)) == G.lam.inverse()
    assert trace_value(G, ((1, 0), 1)).decimal_str(10) == "0.2928932188"


def test_trace_is_level_coherent():
    G = _hecke_group()
    rng = random.Random(17)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        k = rng.randint(0, 5)
        Tv = tuple(sum(G.matrix.rows[i][j] * v[j] for j in range(2)) for i in range(2))
        assert trace_value(G, (v, k)) == trace_value(G, (Tv, k + 1))


def test_shift_multiplies_trace_by_lambda():
    G = _hecke_group()
    rng = random.Random(29)
    for _ in range(30):
        x = ((rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(0, 4))
        assert trace_value(G, shift(G, x)) == G.lam * trace_value(G, x)
        assert trace_value(G, shift_inverse(G, x)) * G.lam == trace_value(G, x)


def test_shift_inverse_undoes_shift():
    G = _hecke_group()
    x = ((2, -1), 1)
    assert equivalent(G, shift_inverse(G, shift(G, x)), x)


def test_equivalent_relations():
    G = _hecke_group()
    assert equivalent(G, ((1, 0), 0), ((1, 0), 0))
    assert equivalent(G, ((1, 0), 0), ((3, 1), 1))
    assert equivalent(G, ((1, 1), 0), ((4, 2), 1))
    assert not equivalent(G, ((1, 0), 0), ((0, 1), 0))
    assert not equivalent(G, ((1, 0), 0), ((1, 0), 1))


def test_unit_decomposition_hecke_example():
    G = _hecke_group()
    ud = unit_decomposition(G, 2)
    assert ud.minpoly == (1, -4, 2)
    assert ud.verified is False
    assert ud.lam_unit.decimal_str(10) == "1.707106781"
    assert ud.lam_unit * G.field.from_rational(F(2)) == G.lam


def test_unit_decomposition_requires_ell_at_least_two():
    with pytest.raises(InvalidInput):
        unit_decomposition(_hecke_group(), 1)


def test_unit_decomposition_verified_unit():
    G = build(make_matrix([[4]], ell=4))
    ud = unit_decomposition(G, 4)
    assert ud.minpoly == (-1, 1)
    assert ud.verified is True


def test_hecke_companion_frozen():
    assert hecke_companion(4, 2).rows == ((3, 1), (1, 1))
    assert hecke_companion(5, 2).rows == ((3, 2), (2, 2))
    assert hecke_companion(4, 3).rows == ((2, 1), (1, 2))


def test_hecke_companion_not_representable():
    with pytest.raises(NotRepresentable):
        hecke_companion(3, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(-2, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(2, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(6, 2)


def test_frobenius_shift_matches_eigenvalue():
    G = build(hecke_companion(4, 2))
    assert frobenius_shift_matches_eigenvalue(G, 4, 2)
    assert not frobenius_shift_matches_eigenvalue(G, 5, 2)
    # x^2 - 2x + 2 has complex roots
    assert not frobenius_shift_matches_eigenvalue(G, 2, 2)
    other = build(make_matrix([[3, 2], [2, 2]], ell=2))
    assert not frobenius_shift_matches_eigenvalue(other, 4, 2)
    # reducible Frobenius polynomial never matches a minimal polynomial
    reducible = build(hecke_companion(4, 3))
    assert not frobenius_shift_matches_eigenvalue(reducible, 4, 3)


def test_parse_matrix():
    T = parse_matrix("3 1\n1 1\n")
    assert T.rows == ((3, 1), (1, 1))
    with pytest.raises(ParseError):
        parse_matrix("3 1\n1\n")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("3 x\n1 1\n")
