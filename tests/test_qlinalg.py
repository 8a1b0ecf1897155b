"""Tests for exact linear algebra over Q and Z."""

import random
from fractions import Fraction

from weilzeta import qlinalg as la


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_solve_right_unique_solution():
    A = _frac_matrix([[2, 1], [1, 3]])
    b = [Fraction(5), Fraction(10)]
    x = la.solve_right(A, b, Fraction(0))
    assert x == [Fraction(1), Fraction(3)]


def test_solve_right_inconsistent_returns_none():
    A = _frac_matrix([[1, 1], [2, 2]])
    b = [Fraction(1), Fraction(3)]
    assert la.solve_right(A, b, Fraction(0)) is None


def test_solve_right_underdetermined_sets_free_vars_to_zero():
    A = _frac_matrix([[1, 1]])
    b = [Fraction(4)]
    x = la.solve_right(A, b, Fraction(0))
    assert x is not None
    assert A[0][0] * x[0] + A[0][1] * x[1] == Fraction(4)
    assert x.count(Fraction(0)) >= 1


def test_nullspace_dimension_and_membership():
    A = _frac_matrix([[1, 2, 3]])
    basis = la.nullspace(A, Fraction(0), Fraction(1))
    assert len(basis) == 2
    for v in basis:
        assert sum(A[0][j] * v[j] for j in range(3)) == 0


def test_rank_rational():
    assert la.rank_rational(_frac_matrix([[1, 2], [2, 4]])) == 1
    assert la.rank_rational(_frac_matrix([[1, 0], [0, 1]])) == 2
    assert la.rank_rational([]) == 0


def test_det_int_known_values():
    assert la.det_int([[3, 1], [1, 1]]) == 2
    assert la.det_int([[1, 2], [3, 4]]) == -2
    assert la.det_int([[5]]) == 5
    assert la.det_int([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == 6


def test_det_int_random_against_leibniz():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c, d, e, f, g, h, i = (rng.randint(-4, 4) for _ in range(9))
        A = [[a, b, c], [d, e, f], [g, h, i]]
        expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert la.det_int(A) == expected


def test_charpoly_int_low_first():
    # det(xI - A) for [[3,1],[1,1]] is x^2 - 4x + 2
    assert la.charpoly_int([[3, 1], [1, 1]]) == (2, -4, 1)
    assert la.charpoly_int([[5]]) == (-5, 1)
    assert la.charpoly_int([[0, 2], [1, 0]]) == (-2, 0, 1)


def test_charpoly_trace_and_det_coefficients():
    rng = random.Random(3)
    for _ in range(20):
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        cp = la.charpoly_int(A)
        assert cp[3] == 1
        assert cp[2] == -(A[0][0] + A[1][1] + A[2][2])
        assert cp[0] == -la.det_int(A)


def test_charpoly_satisfies_cayley_hamilton():
    rng = random.Random(4)
    for n in range(1, 6):
        for _ in range(10):
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            acc = [[0] * n for _ in range(n)]
            for c in reversed(la.charpoly_int(A)):
                acc = la.mat_mul_int(acc, A)
                for i in range(n):
                    acc[i][i] += c
            assert acc == [[0] * n for _ in range(n)]


def test_identity_and_matrix_products():
    I = la.identity_int(2)
    A = [[3, 1], [1, 1]]
    assert la.mat_mul_int(A, I) == [[3, 1], [1, 1]]
    assert la.mat_mul_int(I, A) == [[3, 1], [1, 1]]
    assert la.mat_vec_int(A, [1, 0]) == [3, 1]
    assert la.mat_mul_int([[0, 2], [1, 0]], [[0, 2], [1, 0]]) == [[2, 0], [0, 2]]


def test_hnf_rows_canonical_form():
    assert la.hnf_rows([[2, 4], [1, 1]]) == [[1, 1], [0, 2]]
    assert la.hnf_rows([[0, 2], [1, 0], [0, 0]]) == [[1, 0], [0, 2]]
    # already canonical input is a fixed point
    assert la.hnf_rows([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_with_transform_is_unimodular():
    M = [[2, 4], [1, 1], [3, 3]]
    H, U = la.hnf_with_transform(M)
    assert la.mat_mul_int(U, M) == H
    assert abs(la.det_int(U)) == 1
    assert H[-1] == [0, 0]


def test_kernel_int_spans_integer_kernel():
    A = [[1, 2, 3]]
    K = la.kernel_int(A)
    assert len(K) == 2
    for v in K:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in A)
    # (1, 1, -1) must be an integer combination of the kernel basis
    target = [1, 1, -1]
    sol = la.solve_right(
        [[Fraction(K[i][j]) for i in range(2)] for j in range(3)],
        [Fraction(t) for t in target],
        Fraction(0),
    )
    assert sol is not None
    assert all(s.denominator == 1 for s in sol)


def test_kernel_int_trivial():
    assert la.kernel_int([[1, 0], [0, 1]]) == []
