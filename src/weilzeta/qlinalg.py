"""Exact linear algebra: generic field elimination and integer lattices.

The field routines work over any type supporting +, -, *, / and equality
with its own zero (Fraction, finite field elements, real algebraic
numbers). Integer routines cover determinants, characteristic polynomials,
Hermite normal form and kernels, all in arbitrary precision.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(rows, ncols, zero):
    """Reduced row echelon form over a field, pivoting in the first ncols columns.

    Returns (M, pivots): M the reduced rows, pivots the pivot column of
    each of the first len(pivots) rows. Further rows are zero in the
    first ncols columns.
    """
    M = [list(row) for row in rows]
    m = len(M)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][c] != zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = M[r][c]
        M[r] = [v / inv for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != zero:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def solve_right(A, b, zero):
    """Solve A x = b over a field; returns None when inconsistent.

    A is a list of rows. Underdetermined systems get free variables set to
    zero, so the result is deterministic.
    """
    n = len(A[0]) if A else 0
    M, pivots = _reduce([list(row) + [rhs] for row, rhs in zip(A, b)], n, zero)
    if any(row[n] != zero for row in M[len(pivots):]):
        return None
    x = [zero] * n
    for i, c in enumerate(pivots):
        x[c] = M[i][n]
    return x


def nullspace(A, zero, one):
    """Basis of the right kernel of A over a field, as a list of vectors."""
    n = len(A[0]) if A else 0
    M, pivots = _reduce(A, n, zero)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [zero] * n
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = zero - M[i][f]
        basis.append(v)
    return basis


def rank_rational(A):
    """Rank of a matrix with int or Fraction entries."""
    if not A:
        return 0
    M = [[Fraction(v) for v in row] for row in A]
    return len(_reduce(M, len(M[0]), Fraction(0))[1])


# --- integer matrices ---

def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_int(A, B):
    n, k = len(A), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(k)]
            for i in range(n)]


def mat_vec_int(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def det_int(A):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pr is None:
                return 0
            M[k], M[pr] = M[pr], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def charpoly_int(A):
    """Characteristic polynomial det(xI - A), monic, coefficients low first.

    Faddeev-LeVerrier with exact rational steps; integer input gives
    integer output.
    """
    n = len(A)
    cs = [Fraction(1)]  # leading coefficient of x^n
    M = [[Fraction(0)] * n for _ in range(n)]
    I = identity_int(n)
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        AM = [[sum(Fraction(A[i][t]) * M[t][j] for t in range(n))
               for j in range(n)] for i in range(n)]
        M = [[AM[i][j] + cs[0] * I[i][j] for j in range(n)] for i in range(n)]
        AMk = [[sum(Fraction(A[i][t]) * M[t][j] for t in range(n))
                for j in range(n)] for i in range(n)]
        trace = sum(AMk[i][i] for i in range(n))
        cs.insert(0, -trace / k)
    out = []
    for c in cs:
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def hnf_with_transform(M):
    """Row Hermite normal form H of M with unimodular U such that U M = H.

    Pivots are positive, entries above each pivot reduced to [0, pivot).
    Zero rows sink to the bottom.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    H = [list(row) for row in M]
    U = identity_int(m)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c] != 0), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            # euclidean steps on rows r and i in column c
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


def hnf_rows(M):
    """Nonzero rows of the row Hermite normal form (canonical lattice basis)."""
    H, _ = hnf_with_transform(M)
    return [row for row in H if any(v != 0 for v in row)]


def kernel_int(A):
    """Basis of the integer kernel {x in Z^n : A x = 0} for integer A.

    Returned as rows; the basis spans every integer solution.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    At = [[A[i][j] for i in range(m)] for j in range(n)]
    H, U = hnf_with_transform(At)
    return [U[i] for i in range(n) if all(v == 0 for v in H[i])]
