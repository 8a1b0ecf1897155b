"""Tests for pseudo-lattices, endomorphism rings, and density witnesses."""

import re
from fractions import Fraction as F

import pytest

from weilzeta.errors import (
    DependentGenerators,
    DimensionMismatch,
    FieldMismatch,
    InvalidInput,
    NotEndomorphism,
    NotNormalized,
    ParseError,
)
from weilzeta.pseudolattice import (
    PseudoLattice,
    contains,
    coordinates,
    curve_trace_cohomology,
    density_witness,
    endo_matrix,
    endo_ring_basis,
    endo_ring_rank,
    is_endomorphism,
    parse_lattice,
    point_count_from_frobenius,
)
from weilzeta import pseudolattice
from weilzeta.qlinalg import echelon, mat_mul_int
from weilzeta.realalg import RealNumberField


def _sqrt_lattice(d):
    K = RealNumberField.quadratic(d)
    return PseudoLattice(K, (K.one(), K.gen()))


def test_constructor_invariants():
    K = RealNumberField.quadratic(2)
    with pytest.raises(NotNormalized):
        PseudoLattice(K, (K.from_rational(F(2)), K.gen()))
    with pytest.raises(DependentGenerators):
        PseudoLattice(K, (K.one(), K.from_rational(F(2))))
    with pytest.raises(FieldMismatch):
        PseudoLattice(K, (K.one(), RealNumberField.quadratic(3).gen()))
    assert _sqrt_lattice(2).rank == 2


def test_contains_and_coordinates():
    L = _sqrt_lattice(2)
    K = L.field
    x = K.element((F(3), F(2)))
    assert contains(L, x)
    assert coordinates(L, x) == (3, 2)
    assert not contains(L, K.element((F(0), F(1, 2))))
    with pytest.raises(InvalidInput):
        coordinates(L, K.element((F(0), F(1, 2))))


def test_is_endomorphism():
    L = _sqrt_lattice(2)
    K = L.field
    assert is_endomorphism(L, K.gen())
    assert is_endomorphism(L, K.one() + K.gen())
    assert not is_endomorphism(L, K.element((F(1, 2), F(0))))
    assert not is_endomorphism(L, K.element((F(0), F(1, 2))))


def test_endo_matrix_columns_are_images():
    L = _sqrt_lattice(2)
    assert endo_matrix(L, L.field.gen()) == ((0, 2), (1, 0))
    half_r2 = L.field.element((F(0), F(1, 2)))
    with pytest.raises(NotEndomorphism, match=r"image of generator 1 falls outside"):
        endo_matrix(L, half_r2)
    # the message names the first generator whose image falls outside:
    # sqrt(2)/2 maps 1 into Z + Z*sqrt(2)/2, and sqrt(2)/2 to 1/2
    L2 = PseudoLattice(L.field, (L.field.one(), half_r2))
    with pytest.raises(NotEndomorphism, match=r"image of generator 2 falls outside"):
        endo_matrix(L2, half_r2)


def test_endo_matrix_multiplication_form():
    # u + v*sqrt(d) acts by [[u, d*v], [v, u]] on (1, sqrt(d))
    for d in (2, 3, 5):
        L = _sqrt_lattice(d)
        K = L.field
        for u, v in ((0, 1), (2, 3), (-1, 4)):
            alpha = K.element((F(u), F(v)))
            assert endo_matrix(L, alpha) == ((u, d * v), (v, u))


def test_endo_matrix_and_is_endomorphism_take_one_elimination(monkeypatch):
    # Z + Z t + Z t^2 + Z t^3 in Q(2^(1/4)): every image of a generator is
    # read off one echelon of the generators and all the images
    K = RealNumberField((-2, 0, 0, 0, 1), (1, 2))
    t = K.gen()
    L = PseudoLattice(K, (K.one(), t, t * t, t * t * t))
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    monkeypatch.setattr(pseudolattice, "echelon", counting)
    assert endo_matrix(L, t) == ((0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert calls == [4]
    assert not is_endomorphism(L, t * K.from_rational(F(1, 2)))
    assert calls == [4, 4]


def test_endo_ring_rank_quadratic():
    for d in (2, 3, 5):
        rank, basis = endo_ring_rank(_sqrt_lattice(d))
        assert rank == 2
        assert len(basis) == 2


def test_endo_ring_basis_is_canonical():
    L = _sqrt_lattice(2)
    basis = endo_ring_basis(L)
    assert [coordinates(L, e) for e in basis] == [(1, 0), (0, 1)]


def test_endo_ring_of_rescaled_lattice():
    # generators 1 and sqrt(2)/2 still have endomorphism ring Z[sqrt(2)]
    K = RealNumberField.quadratic(2)
    half_r2 = K.element((F(0), F(1, 2)))
    L = PseudoLattice(K, (K.one(), half_r2))
    rank, basis = endo_ring_rank(L)
    assert rank == 2
    assert endo_matrix(L, K.gen()) == ((0, 1), (2, 0))


def test_endo_ring_cubic_generator_pair_is_rank_one():
    Kc = RealNumberField((-2, 0, 0, 1), (F(1), F(2)))
    L = PseudoLattice(Kc, (Kc.one(), Kc.gen()))
    rank, basis = endo_ring_rank(L)
    assert rank == 1
    assert coordinates(L, basis[0]) == (1, 0)


def test_endo_matrices_commute():
    L = _sqrt_lattice(2)
    basis = endo_ring_basis(L)
    mats = [endo_matrix(L, e) for e in basis]
    for A in mats:
        for B in mats:
            assert mat_mul_int(A, B) == mat_mul_int(B, A)


def test_endo_matrix_respects_multiplication():
    L = _sqrt_lattice(2)
    K = L.field
    a = K.element((F(1), F(2)))
    b = K.element((F(3), F(-1)))
    prod = mat_mul_int(endo_matrix(L, a), endo_matrix(L, b))
    assert tuple(tuple(row) for row in prod) == endo_matrix(L, a * b)


def test_curve_trace_cohomology_ranks():
    K = RealNumberField.quadratic(2)
    coh = curve_trace_cohomology(1, (K.gen(),))
    assert [piece.rank for piece in coh] == [1, 2, 1]
    quartic = RealNumberField((1, 0, -10, 0, 1), (F(3), F(4)))
    g = quartic.gen()
    coh2 = curve_trace_cohomology(2, (g, g * g, g * g * g))
    assert [piece.rank for piece in coh2] == [1, 4, 1]
    with pytest.raises(DimensionMismatch):
        curve_trace_cohomology(2, (g, g * g))


def test_point_count_from_frobenius_real_multiplier():
    L = _sqrt_lattice(2)
    K = L.field
    # multiplier 1 + sqrt(2) has matrix trace 2
    assert point_count_from_frobenius(L, K.one() + K.gen(), 2) == 1
    assert point_count_from_frobenius(L, K.from_rational(F(3)), 9) == 4


def test_point_count_from_frobenius_integer_matrix():
    L = _sqrt_lattice(2)
    # complex eigenvalues: trace -2, so 1 + 5 - (-2) = 8 points
    assert point_count_from_frobenius(L, [[-1, -4], [1, -1]], 5) == 8
    with pytest.raises(DimensionMismatch):
        point_count_from_frobenius(L, [[1, 2, 3], [4, 5, 6]], 5)


@pytest.mark.parametrize("call, message", [
    (lambda L: density_witness(L, 0.001), "expected an int or a Fraction, got 0.001"),
    (lambda L: point_count_from_frobenius(L, [[1.5, 0], [0, 1.5]], 5),
     "Frobenius matrix entries must be integers, got 1.5"),
    (lambda L: point_count_from_frobenius(L, [["1", 0], [0, 1]], 5),
     "Frobenius matrix entries must be integers, got '1'"),
], ids=["float eps", "float matrix", "str matrix"])
def test_non_numeric_inputs_are_invalid_input(call, message):
    L = _sqrt_lattice(2)
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call(L)
    # an integral value of another type is read as its int
    assert point_count_from_frobenius(L, [[1.0, 0], [0, F(3)]], 5) == 2


def test_density_witness_golden_convergent():
    L = _sqrt_lattice(2)
    w = density_witness(L)
    assert (w.c0, w.c1) == (577, -408)
    assert w.value.sign() == 1
    assert w.value < L.field.from_rational(F(1, 1000))
    tight = density_witness(L, F(1, 10**6))
    assert (tight.c0, tight.c1) == (665857, -470832)


def test_density_witness_requires_dense_lattice():
    Q = RealNumberField.rationals()
    L1 = PseudoLattice(Q, (Q.one(),))
    with pytest.raises(InvalidInput):
        density_witness(L1)
    with pytest.raises(InvalidInput):
        density_witness(_sqrt_lattice(2), F(0))


def test_parse_lattice_round_trip():
    text = "field minpoly=-2 0 1\nroot in [1, 2]\ngen 1 0\ngen 0 1\n"
    L = parse_lattice(text)
    assert L.rank == 2
    assert endo_matrix(L, L.field.gen()) == ((0, 2), (1, 0))


def test_parse_lattice_errors():
    with pytest.raises(ParseError):
        parse_lattice("field minpoly=-2 0 1\nroot in [1, 2]\ngen 1\n")
    with pytest.raises(ParseError):
        parse_lattice("root in [1, 2]\ngen 1 0\n")
    with pytest.raises(ParseError):
        parse_lattice("field minpoly=-2 0 1\ngen 1 0\ngen 0 1\n")


def test_constructor_messages():
    K = RealNumberField.quadratic(2)
    cases = (
        ((), InvalidInput, "a pseudo-lattice needs at least one generator"),
        ((K.one(), RealNumberField.quadratic(3).gen()), FieldMismatch,
         "generators must live in the lattice's field"),
        ((K.gen(), K.one()), NotNormalized, "first generator must be 1"),
        ((K.one(), K.gen(), K.gen() + 1), DependentGenerators,
         "generators are linearly dependent over the rationals"),
    )
    for generators, error, message in cases:
        with pytest.raises(error) as info:
            PseudoLattice(K, generators)
        assert str(info.value) == message
