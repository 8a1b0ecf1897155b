"""Exact linear algebra over Q and Z, in arbitrary precision.

One fraction-free Gauss-Jordan elimination serves rank and det, and its
callers read solutions and kernel vectors off it; it takes ints or
Fractions and works on ints. Integer routines add the characteristic
polynomial with its adjugate, Hermite normal form and integer kernels.
"""

from math import lcm


def echelon(rows, ncols):
    """Fraction-free Gauss-Jordan elimination, pivoting in the first ncols columns.

    Rows of ints or Fractions are scaled to integers by the lcm of their
    denominators. In each column the first nonzero row at or below the next
    pivot row becomes the pivot row p, and every other row becomes
    (p[c] * row - row[c] * p) / d, d the previous pivot (E. H. Bareiss,
    Math. Comp. 22, 1968; G. C. Nakos, P. R. Turner and R. M. Williams,
    SIGSAM Bull. 31, 1997). Each division is exact: every entry is a minor
    of the row-scaled input on the pivot rows and columns so far, bordered
    by its own row and column, or in a pivot row with its own column in
    place of that row's pivot column; Sylvester's identity makes d divide
    the cross product, with skipped columns and any rank.

    Returns (M, pivots, sign): pivot row i holds the last pivot at column
    pivots[i] and zeros at the other pivot columns, so M[i][j] / M[i][pivots[i]]
    is the reduced row echelon form; later rows are zero in the first ncols
    columns; sign is the parity of the row swaps.
    """
    M = []
    for row in rows:
        s = lcm(*(v.denominator for v in row))
        M.append([v.numerator * (s // v.denominator) for v in row])
    pivots = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(M):
            break
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
            sign = -sign
        top = M[r]
        p = top[c]
        for i, row in enumerate(M):
            if i != r:
                f = row[c]
                M[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return M, pivots, sign


def rank_rational(A):
    """Rank of a matrix with int or Fraction entries."""
    return len(echelon(A, len(A[0]) if A else 0)[1])


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
    """Determinant: the swap sign times the last pivot of echelon at full rank."""
    M, pivots, sign = echelon(A, len(A))
    if len(pivots) < len(A):
        return 0
    return sign * M[-1][-1] if A else 1


def charpoly_int(A):
    """det(xI - A), monic with coefficients low first, and the adjugate.

    Faddeev-LeVerrier: M_1 = I, M_k = A M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(A M_k) / k, exact on integers since the c are. Returns
    the coefficients and [M_1, ..., M_n], with adj(xI - A) the sum of
    M_k x^(n-k).
    """
    n = len(A)
    cs = [1]  # leading coefficient of x^n
    Ms = []
    AM = [[0] * n for _ in range(n)]  # A M_0 with M_0 = 0
    for k in range(1, n + 1):
        Ms.append([[AM[i][j] + (cs[0] if i == j else 0) for j in range(n)] for i in range(n)])
        AM = mat_mul_int(A, Ms[-1])
        cs.insert(0, -sum(AM[i][i] for i in range(n)) // k)
    return tuple(cs), Ms


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
