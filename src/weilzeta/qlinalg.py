"""Exact linear algebra over Q and Z, in arbitrary precision.

One fraction-free Gauss-Jordan elimination on ints, off which callers read
ranks, determinants, solutions and kernels over Q; the integer matrix
product. The Hermite normal form lives in pseudolattice, charpoly and det
in dimgroup, beside their callers; callers check their integer inputs
with errors.check_int and check_ints.
"""


def echelon(rows, ncols):
    """Fraction-free Gauss-Jordan elimination, pivoting in the first ncols columns.

    Rows hold ints; a caller with rational rows scales each to integers
    first, which keeps the row space. In each column the first nonzero row
    at or below the next pivot row becomes the pivot row p, and every other
    row becomes (p[c] * row - row[c] * p) / d, d the previous pivot (E. H.
    Bareiss, Math. Comp. 22, 1968; G. C. Nakos, P. R. Turner and R. M.
    Williams, SIGSAM Bull. 31, 1997). Each division is exact: every entry is
    a minor of the input on the pivot rows and columns so far, bordered
    by its own row and column, or in a pivot row with its own column in
    place of that row's pivot column; Sylvester's identity makes d divide
    the cross product, with skipped columns and any rank.

    Returns (M, pivots, sign): pivot row i holds the last pivot at column
    pivots[i] and zeros at the other pivot columns, so M[i][j] / M[i][pivots[i]]
    is the reduced row echelon form; later rows are zero in the first ncols
    columns; sign is the parity of the row swaps.
    """
    M = [list(row) for row in rows]
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


# --- integer matrices ---

def mat_mul_int(A, B):
    n, k = len(A), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(k)]
            for i in range(n)]
