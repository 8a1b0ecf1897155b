"""Tests for exact linear algebra over Q and Z."""

import random
from fractions import Fraction
from math import lcm

from weilzeta import dimgroup as dg
from weilzeta import qlinalg as la


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(rows):
    """Each rational row times the lcm of its denominators: integer rows
    with the same row space, as echelon takes them."""
    out = []
    for row in rows:
        s = lcm(*(Fraction(v).denominator for v in row))
        out.append([int(v * s) for v in row])
    return out


def _solve_right(A, b):
    """A x = b over Q read off echelon as zeta.pade_reconstruct reads it:
    None when inconsistent, free unknowns zero."""
    n = len(A[0]) if A else 0
    M, pivots, _ = la.echelon(_int_rows([list(row) + [rhs] for row, rhs in zip(A, b)]), n)
    if any(row[n] for row in M[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(M, pivots):
        x[c] = Fraction(row[n], row[c])
    return x


def _nullspace(A):
    """Kernel basis of A over Q read off echelon, one vector per free
    column; realalg.minimal_polynomial reads the first one."""
    n = len(A[0]) if A else 0
    M, pivots, _ = la.echelon(_int_rows(A), n)
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(M, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis


def test_solve_right_unique_solution():
    A = _frac_matrix([[2, 1], [1, 3]])
    b = [Fraction(5), Fraction(10)]
    x = _solve_right(A, b)
    assert x == [Fraction(1), Fraction(3)]


def test_solve_right_inconsistent_returns_none():
    A = _frac_matrix([[1, 1], [2, 2]])
    b = [Fraction(1), Fraction(3)]
    assert _solve_right(A, b) is None


def test_solve_right_underdetermined_sets_free_vars_to_zero():
    A = _frac_matrix([[1, 1]])
    b = [Fraction(4)]
    x = _solve_right(A, b)
    assert x is not None
    assert A[0][0] * x[0] + A[0][1] * x[1] == Fraction(4)
    assert x.count(Fraction(0)) >= 1


def test_nullspace_dimension_and_membership():
    A = _frac_matrix([[1, 2, 3]])
    basis = _nullspace(A)
    assert len(basis) == 2
    for v in basis:
        assert sum(A[0][j] * v[j] for j in range(3)) == 0


def test_det_int_known_values():
    assert dg.det_int([[3, 1], [1, 1]]) == 2
    assert dg.det_int([[1, 2], [3, 4]]) == -2
    assert dg.det_int([[5]]) == 5
    assert dg.det_int([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == 6


def test_det_int_random_against_leibniz():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c, d, e, f, g, h, i = (rng.randint(-4, 4) for _ in range(9))
        A = [[a, b, c], [d, e, f], [g, h, i]]
        expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert dg.det_int(A) == expected


def test_charpoly_int_low_first():
    # det(xI - A) for [[3,1],[1,1]] is x^2 - 4x + 2
    assert dg.charpoly_int([[3, 1], [1, 1]])[0] == (2, -4, 1)
    assert dg.charpoly_int([[5]])[0] == (-5, 1)
    assert dg.charpoly_int([[0, 2], [1, 0]])[0] == (-2, 0, 1)


def test_charpoly_trace_and_det_coefficients():
    rng = random.Random(3)
    for _ in range(20):
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        cp = dg.charpoly_int(A)[0]
        assert cp[3] == 1
        assert cp[2] == -(A[0][0] + A[1][1] + A[2][2])
        assert cp[0] == -dg.det_int(A)


def test_charpoly_satisfies_cayley_hamilton():
    rng = random.Random(4)
    for n in range(1, 6):
        for _ in range(10):
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            acc = [[0] * n for _ in range(n)]
            for c in reversed(dg.charpoly_int(A)[0]):
                acc = la.mat_mul_int(acc, A)
                for i in range(n):
                    acc[i][i] += c
            assert acc == [[0] * n for _ in range(n)]


def test_identity_and_matrix_products():
    I = [[1, 0], [0, 1]]
    A = [[3, 1], [1, 1]]
    assert la.mat_mul_int(A, I) == [[3, 1], [1, 1]]
    assert la.mat_mul_int(I, A) == [[3, 1], [1, 1]]
    assert dg.mat_vec_int(A, [1, 0]) == [3, 1]
    assert la.mat_mul_int([[0, 2], [1, 0]], [[0, 2], [1, 0]]) == [[2, 0], [0, 2]]


def _rational_case(rng):
    """A seeded m x n rational matrix and right-hand side, biased toward the
    shapes elimination gets wrong: zero rows and columns, wide and tall,
    rank-deficient, consistent and inconsistent."""
    def entry():
        roll = rng.random()
        if roll < 0.35:
            return Fraction(0)
        if roll < 0.7:
            return Fraction(rng.randint(-6, 6))
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if rng.random() < 0.5:
        # product of m x k and k x n factors: rank at most k < min(m, n) mostly
        k = rng.randint(0, min(m, n))
        B = [[entry() for _ in range(k)] for _ in range(m)]
        C = [[entry() for _ in range(n)] for _ in range(k)]
        A = [[sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
             for i in range(m)]
    else:
        A = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        A[rng.randrange(m)] = [Fraction(0)] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in A:
            row[j] = Fraction(0)
    if rng.random() < 0.5:
        x = [entry() for _ in range(n)]
        b = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = [entry() for _ in range(m)]
    return A, b


def _from_sympy(r):
    return Fraction(int(r.p), int(r.q))


def test_elimination_matches_sympy_over_qq():
    import sympy

    rng = random.Random(20261019)
    consistent = inconsistent = deficient = 0
    for _ in range(300):
        A, b = _rational_case(rng)
        m, n = len(A), len(A[0])
        S = sympy.Matrix(m, n, lambda i, j: sympy.Rational(A[i][j].numerator,
                                                          A[i][j].denominator))
        R, piv = S.rref()
        M, pivots, _ = la.echelon(_int_rows(A), n)
        assert tuple(pivots) == piv
        for i in range(m):
            expect = [_from_sympy(v) for v in R.row(i)]
            got = ([Fraction(v, M[i][pivots[i]]) for v in M[i]] if i < len(pivots)
                   else M[i])
            assert got == expect, (A, i)
        assert len(pivots) == S.rank()
        deficient += S.rank() < min(m, n)
        assert _nullspace(A) == [[_from_sympy(v) for v in vec] for vec in S.nullspace()]

        Sb = S.row_join(sympy.Matrix(m, 1, lambda i, _: sympy.Rational(
            b[i].numerator, b[i].denominator)))
        Rb, pivb = Sb.rref()
        x = _solve_right(A, b)
        if n in pivb:
            inconsistent += 1
            assert x is None
        else:
            consistent += 1
            expect = [Fraction(0)] * n
            for i, c in enumerate(pivb):
                expect[c] = _from_sympy(Rb[i, n])
            assert x == expect

        if m == n:
            Z = [[int(v * 12) for v in row] for row in A]
            assert dg.det_int(Z) == int(sympy.Matrix(Z).det())
    assert min(consistent, inconsistent, deficient) >= 50


def test_charpoly_int_adjugate_inverts_x_minus_a():
    # adj(xI - A) (xI - A) = det(xI - A) I at integer points x
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(10):
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            cp, Ms = dg.charpoly_int(A)
            assert len(Ms) == n and Ms[0] == [[int(i == j) for j in range(n)] for i in range(n)]
            for x in (-3, 0, 2, 7):
                adj = [[0] * n for _ in range(n)]
                for M in Ms:
                    adj = [[x * a + m for a, m in zip(ra, rm)] for ra, rm in zip(adj, M)]
                xa = [[x * (i == j) - A[i][j] for j in range(n)] for i in range(n)]
                chi = sum(c * x ** k for k, c in enumerate(cp))
                assert la.mat_mul_int(adj, xa) == [[chi * (i == j) for j in range(n)]
                                                   for i in range(n)]
