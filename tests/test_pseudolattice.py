"""Tests for pseudo-lattices, endomorphism rings, and density witnesses."""

import random
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
from weilzeta import pseudolattice as pl
from weilzeta.qlinalg import echelon, mat_mul_int
from weilzeta.realalg import RealNumberField


def _frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


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

    monkeypatch.setattr(pl, "echelon", counting)
    assert endo_matrix(L, t) == ((0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert calls == [4]
    assert not is_endomorphism(L, t * K.from_rational(F(1, 2)))
    assert calls == [4, 4]


def test_rank_rational():
    assert pl.rank_rational(_frac_matrix([[1, 2], [2, 4]])) == 1
    assert pl.rank_rational(_frac_matrix([[1, 0], [0, 1]])) == 2
    assert pl.rank_rational([]) == 0


def test_hnf_rows_canonical_form():
    assert pl.hnf_rows([[2, 4], [1, 1]]) == [[1, 1], [0, 2]]
    assert pl.hnf_rows([[0, 2], [1, 0], [0, 0]]) == [[1, 0], [0, 2]]
    # already canonical input is a fixed point
    assert pl.hnf_rows([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


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


def _old_hnf(M):
    """Row Hermite normal form H of M and a unimodular U with U M = H, by
    Euclidean steps on rows; U is never reduced, so its entries grow."""
    m = len(M)
    n = len(M[0]) if m else 0
    H = [list(row) for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c] != 0), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            while H[i][c] != 0:
                q = H[r][c] // H[i][c]
                H[r] = [a - q * b for a, b in zip(H[r], H[i])]
                U[r] = [a - q * b for a, b in zip(U[r], U[i])]
                H[r], H[i] = H[i], H[r]
                U[r], U[i] = U[i], U[r]
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
            U[r] = [-a for a in U[r]]
        for j in range(r):
            q = H[j][c] // H[r][c]
            if q:
                H[j] = [a - q * b for a, b in zip(H[j], H[r])]
                U[j] = [a - q * b for a, b in zip(U[j], U[r])]
        r += 1
        if r == m:
            break
    return H, U


def _kernel_route(L):
    """Generator coordinates of End(L)'s canonical basis by the kernel
    route: the integer kernel of the (b*D) x (b + b^2) system
    x_j g_j g_i - sum_k y_{i,k} g_k = 0, read off U of the transposed
    system, then the Hermite normal form of its projection onto x."""
    b = L.rank
    gens = L.generators
    cols = pl._scaled([g * h for h in gens for g in gens] + list(gens))
    rows = [[cols[i * b + j][t] for j in range(b)] + [0] * (i * b)
            + [-cols[b * b + k][t] for k in range(b)] + [0] * ((b - 1 - i) * b)
            for i in range(b) for t in range(L.field.degree)]
    H, U = _old_hnf([list(col) for col in zip(*rows)])
    kernel = [u[:b] for u, h in zip(U, H) if not any(h)]
    return [row for row in _old_hnf(kernel)[0] if any(row)]


# Q(sqrt 2), Q(2^(1/3)), x^3 - x - 1, Q(2^(1/4)), Q(sqrt 2 + sqrt 3),
# Q(2^(1/5)), x^5 - x - 1
_DIFFERENTIAL_FIELDS = [
    ((-2, 0, 1), (1, 2)),
    ((-2, 0, 0, 1), (1, 2)),
    ((-1, -1, 0, 1), (1, 2)),
    ((-2, 0, 0, 0, 1), (1, 2)),
    ((1, 0, -10, 0, 1), (3, 4)),
    ((-2, 0, 0, 0, 0, 1), (1, 2)),
    ((-1, -1, 0, 0, 0, 1), (1, 2)),
]


def _coordinate(rng, kind):
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(-999999, 999999)


def _seeded_lattices():
    """Two lattices per field, rank 1..D and coordinate kind. A lattice of
    full rank has generators theta^k (times 1/n for fractions) plus integer
    multiples of lower powers: the kernel route takes minutes on dense ones,
    or ones with fractions below the diagonal, in degree 5."""
    rng = random.Random(20261020)
    for minpoly, root in _DIFFERENTIAL_FIELDS:
        K = RealNumberField(minpoly, root)
        D = K.degree
        for b in range(1, D + 1):
            for kind in ("int", "fraction", "6-digit"):
                for _ in range(2):
                    if b < D:
                        gens = [[_coordinate(rng, kind) for _ in range(D)] for _ in range(1, b)]
                    else:
                        gens = [[_coordinate(rng, "int" if kind == "fraction" else kind)
                                 for _ in range(k)]
                                + [F(1, rng.randint(1, 4)) if kind == "fraction" else 1]
                                + [0] * (D - 1 - k) for k in range(1, D)]
                    try:
                        yield PseudoLattice(K, (K.one(), *map(K.element, gens)))
                    except DependentGenerators:
                        pass


def _sub_orders():
    """Z + Z t^2, Z + Z t^2/2 and Z + Z t^2 + Z t^3 in Q(t), t = 2^(1/4);
    Z + Z sqrt(2) in Q(s), s = sqrt(2) + sqrt(3), sqrt(2) = (s^3 - 9 s)/2;
    Z + Z u + Z (u^3 - u)/2 + Z u^4 in Q(u), u = 2^(1/6), where End(L) is
    spanned by 1 and 2 sqrt(2) = 2 g_2 + 4 g_3, not by generators; then
    seeded Z + Z (a + c sqrt(2)) in Q(t) and Q(s)."""
    K = RealNumberField((-2, 0, 0, 0, 1), (1, 2))
    t = K.gen()
    S = RealNumberField((1, 0, -10, 0, 1), (3, 4))
    U = RealNumberField((-2, 0, 0, 0, 0, 0, 1), (1, 2))
    u = U.gen()
    lattices = [PseudoLattice(K, (K.one(), t * t)),
                PseudoLattice(K, (K.one(), t * t * K.from_rational(F(1, 2)))),
                PseudoLattice(K, (K.one(), t * t, t * t * t)),
                PseudoLattice(S, (S.one(), S.element((0, F(-9, 2), 0, F(1, 2))))),
                PseudoLattice(U, (U.one(), u, U.element((0, F(-1, 2), 0, F(1, 2), 0, 0)),
                                  u * u * u * u))]
    rng = random.Random(4)
    for kind in ("int", "fraction", "6-digit"):
        for _ in range(2):
            a, c = _coordinate(rng, kind), _coordinate(rng, kind) or 1
            lattices.append(PseudoLattice(K, (K.one(), K.element((a, 0, c, 0)))))
            lattices.append(PseudoLattice(S, (S.one(), S.element((a, F(-9, 2) * c, 0, F(c, 2))))))
    return lattices


def test_endo_ring_basis_matches_the_kernel_route():
    seeded = list(_seeded_lattices())
    for L in seeded + _sub_orders():
        assert [list(coordinates(L, e)) for e in endo_ring_basis(L)] == _kernel_route(L)
    assert len(seeded) >= 150
    assert [endo_ring_rank(L)[0] for L in _sub_orders()] == [2, 2, 1] + [2] * 14


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
