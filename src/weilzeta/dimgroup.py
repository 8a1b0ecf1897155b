"""Dimension groups of primitive non-negative integer matrices.

A primitive matrix T generates a direct limit Z^b -> Z^b -> ... whose
elements are pairs (v, k) of an integer vector and a level, identified
under v ~ Tv at the next level. The Perron-Frobenius eigenvalue lambda
and a left eigenvector w with w_1 = 1 give an exact trace
(v, k) |-> <v, w> / lambda^k into the real subgroup Z[1/lambda]-span of
the w entries; the shift (v, k) |-> (Tv, k) scales the trace by lambda
and models a Frobenius action.

lambda is found from the exact characteristic polynomial: factor over the
rationals, bracket the largest real root of each factor by Sturm
bisection, keep the largest of these. w is row 0 of adj(lambda I - T), a
polynomial in lambda whose integer matrix coefficients come from the
characteristic polynomial's own loop. No floating point enters any trusted value.
"""

from functools import reduce
from operator import or_

from . import qpoly
from .errors import (DegenerateSpectrum, DimensionMismatch, InternalError,
                     InvalidInput, NotPrimitive, NotRepresentable, ParseError,
                     check_int, check_ints, data_lines, read_text)
from .qlinalg import echelon, mat_mul_int
from .realalg import (RealNumberField, algebraic_str, interval_str, matrix_str,
                      num_str, poly_x_str, refine_bracket)


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


class HeckeLikeMatrix:
    """Primitive non-negative integer matrix, optionally det/symmetry tagged.

    Primitivity means some power has strictly positive entries; by
    Wielandt's bound it suffices to look at exponents up to (b-1)^2 + 1.
    When ell is given the matrix must in addition be symmetric with
    determinant ell.
    """

    __slots__ = ("b", "rows", "ell")

    def __init__(self, b, rows, ell=None):
        self.b = b
        self.rows = rows
        self.ell = ell
        if check_int("b", b) < 1 or len(rows) != b:
            raise DimensionMismatch(f"expected {b} rows")
        for row in rows:
            if len(row) != b:
                raise DimensionMismatch("matrix must be square")
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise InvalidInput(f"entries must be non-negative integers, got {v!r}")
        # Once a power of A is positive, so is every higher one, so A^bound
        # is positive exactly when A^(2^k) is for the least 2^k >= bound;
        # k squarings of the positivity pattern, rows as bitmasks, reach it.
        bound = (b - 1) ** 2 + 1
        power = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
        for _ in range((bound - 1).bit_length()):
            power = [reduce(or_, (row for k, row in enumerate(power) if mask >> k & 1), 0)
                     for mask in power]
        if any(mask != (1 << b) - 1 for mask in power):
            raise NotPrimitive(
                f"no power up to {bound} has all entries positive")
        if ell is not None:
            check_int("ell", ell)
            if any(rows[i][j] != rows[j][i] for i in range(b) for j in range(b)):
                raise InvalidInput("determinant-tagged matrix must be symmetric")
            d = det_int(rows)
            if d != ell:
                raise InvalidInput(f"determinant is {d}, expected {ell}")

    def det(self):
        return det_int(self.rows)

    def apply(self, v):
        return tuple(mat_vec_int(self.rows, v))

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def make_matrix(rows, ell=None):
    rows = tuple(map(tuple, rows))
    return HeckeLikeMatrix(b=len(rows), rows=rows, ell=ell)


def cauchy_root_bound(p):
    """(B, d): all real roots of p lie in (-B/d, B/d)."""
    p = qpoly.trim(p)
    if len(p) <= 1:
        return 1, 1
    lead = abs(p[-1])
    return lead + max(abs(c) for c in p[:-1]), lead


def largest_real_root(p):
    """Bracket (lo, hi, d) of the largest real root of a square-free
    polynomial, the root in (lo/d, hi/d], or None when it has no real root;
    a multiple root raises InvalidInput.

    (-B, B] is halved, keeping the upper half while it still holds a root,
    until the bracket holds exactly one root and p(lo/d) != 0. Each halving
    doubles d. Then lo < hi and p changes sign on the bracket, as
    refine_bracket expects, unless the root is hi/d itself: a rational root
    hit exactly, like the root of a degree-one input, comes back as the
    degenerate bracket (r, r, d).
    """
    p = qpoly.trim(p)
    n = len(p) - 1
    if n <= 0:
        return None
    if n == 1:
        return (-p[0], -p[0], p[1]) if p[1] > 0 else (p[0], p[0], -p[1])
    chain = qpoly.sturm_chain(p)
    # the chain ends in gcd(p, p'), a constant exactly when p is square-free;
    # at a multiple root the counts go wrong and the bisection would not stop
    if len(chain[-1]) > 1:
        raise InvalidInput("polynomial must be square-free")
    hi, d = cauchy_root_bound(p)
    lo = -hi
    k = qpoly.count_roots(p, lo, hi, chain, d)
    if k == 0:
        return None
    while k > 1 or qpoly._sign_at(chain[0], lo, d) == 0:
        lo, mid, hi, d = 2 * lo, lo + hi, 2 * hi, 2 * d
        right = qpoly.count_roots(p, mid, hi, chain, d)
        if right:
            lo, k = mid, right
        else:
            hi = mid
    if qpoly._sign_at(chain[0], hi, d) == 0:
        return hi, hi, d
    return lo, hi, d


def _dominant_root(charpoly):
    """(irreducible factor, isolating interval (lo, hi, d)) of the largest
    real root, which lies in [lo/d, hi/d]."""
    candidates = []
    for fac, _ in qpoly.factor_int(charpoly)[1]:
        bracket = largest_real_root(fac)
        if bracket is not None:
            # the sign at the lower end, which refinement keeps
            candidates.append((fac, bracket, qpoly._sign_at(fac, bracket[0], bracket[2])))
    if not candidates:
        raise InternalError("characteristic polynomial has no real root")
    best_poly, best, best_sign = candidates[0]
    for other_poly, other, other_sign in candidates[1:]:
        lo, hi, d = best
        olo, ohi, od = other
        # distinct irreducibles never share a root, so refinement separates
        while not (hi * od < olo * d or ohi * d < lo * od):
            if lo != hi:
                lo, hi, d = refine_bracket(best_poly, lo, hi, d, best_sign)
            if olo != ohi:
                olo, ohi, od = refine_bracket(other_poly, olo, ohi, od, other_sign)
        if olo * d > hi * od:
            best_poly, best, best_sign = other_poly, (olo, ohi, od), other_sign
        else:
            best = (lo, hi, d)
    return best_poly, best


class DimensionGroup:
    """Direct limit data: matrix, Perron-Frobenius lambda, left eigenvector."""

    __slots__ = ("matrix", "field", "lam", "w")

    def __init__(self, matrix, field, lam, w):
        self.matrix = matrix  # HeckeLikeMatrix
        self.field = field  # RealNumberField
        self.lam = lam  # RealAlgebraic
        self.w = w

    @property
    def b(self):
        return self.matrix.b


def build(T):
    """DimensionGroup of a primitive matrix.

    Exact pipeline: characteristic polynomial, factorization over Q,
    Sturm isolation of the largest real root lambda (DegenerateSpectrum
    unless lambda > 1), then the left eigenvector w with w_1 = 1 from row 0
    of adj(lambda I - T), re-verified entrywise, including positivity.
    """
    if not isinstance(T, HeckeLikeMatrix):
        T = make_matrix(T)
    chi, adjugate = charpoly_int(T.rows)
    minpoly, (lo, hi, d) = _dominant_root(chi)
    field = RealNumberField(minpoly, (lo, hi), d)
    lam = field.gen()
    if not lam > 1:
        raise DegenerateSpectrum(
            "Perron-Frobenius eigenvalue must exceed 1 for a dense limit")
    b = T.b
    zero = field.zero()
    # adj(lambda I - T) (lambda I - T) = det = 0 and lambda is a simple
    # eigenvalue (Perron-Frobenius), so the adjugate is c u w with c != 0 and
    # u the positive right eigenvector: row 0, by Horner in lambda over the
    # M_k, is a nonzero multiple of w
    v = [zero] * b
    for M in adjugate:
        v = [lam * x + m for x, m in zip(v, M[0])]
    scale = v[0].inverse()
    w = tuple(scale * entry for entry in v)
    for j in range(b):
        acc = zero
        for i in range(b):
            acc = acc + T.rows[i][j] * w[i]
        if acc != lam * w[j]:
            raise InternalError("wT = lambda w failed verification")
    for entry in w:
        if entry.sign() <= 0:
            raise InternalError("Perron-Frobenius eigenvector must be positive")
    return DimensionGroup(matrix=T, field=field, lam=lam, w=w)


def _check_element(G, x):
    v, k = x
    v = check_ints("vector entries", v)
    if len(v) != G.b:
        raise DimensionMismatch(f"vector must have length {G.b}")
    if check_int("level", k) < 0:
        raise InvalidInput("level must be non-negative")
    return v, k


def trace_value(G, x):
    """<v, w> / lambda^k, exact in Q(lambda)."""
    v, k = _check_element(G, x)
    acc = G.field.zero()
    for c, entry in zip(v, G.w):
        acc = acc + c * entry
    if k:
        acc = acc * G.lam.inverse() ** k
    return acc


def shift(G, x):
    """(v, k) -> (Tv, k); multiplies the trace by lambda."""
    v, k = _check_element(G, x)
    return G.matrix.apply(v), k


def shift_inverse(G, x):
    """(v, k) -> (v, k+1); divides the trace by lambda."""
    v, k = _check_element(G, x)
    return v, k + 1


def equivalent(G, x, y):
    """Direct-limit equality of (v, j) and (v', k).

    Both elements are pushed to level m = max(j, k); for invertible T one
    comparison decides, otherwise levels up to j + k + b are tried.
    """
    v, j = _check_element(G, x)
    u, k = _check_element(G, y)
    m = max(j, k)
    for _ in range(m - j):
        v = G.matrix.apply(v)
    for _ in range(m - k):
        u = G.matrix.apply(u)
    if v == u:
        return True
    if G.matrix.det() != 0:
        return False
    for _ in range(m, j + k + G.b):
        v = G.matrix.apply(v)
        u = G.matrix.apply(u)
        if v == u:
            return True
    return False


class UnitDecomposition:
    """lambda/ell with its minimal polynomial and the unit verdict."""

    __slots__ = ("lam_unit", "minpoly", "verified")

    def __init__(self, lam_unit, minpoly, verified):
        self.lam_unit = lam_unit  # RealAlgebraic
        self.minpoly = minpoly
        self.verified = verified


def unit_decomposition(G, ell):
    """Check whether lambda = ell * (algebraic unit).

    lambda/ell is a unit iff its minimal polynomial is monic over the
    integers (algebraic integer) with constant term +-1 (invertible). The
    verdict is reported, never assumed; it fails for most matrices.
    """
    if check_int("ell", ell) < 2:
        raise InvalidInput("ell must be at least 2")
    lam_unit = G.lam * G.field.from_rational(1, ell)
    # x |-> ell*x keeps lambda's minimal polynomial f irreducible, so that
    # of lambda/ell is the primitive part of sum f_i ell^i x^i
    minpoly = qpoly.primitive_int(qpoly.compose_linear(G.field.minpoly, ell))
    verified = minpoly[-1] == 1 and abs(minpoly[0]) == 1
    return UnitDecomposition(lam_unit=lam_unit, minpoly=minpoly, verified=verified)


def hecke_companion(a, ell):
    """Symmetric primitive matrix [[s, u], [u, t]] with trace a, det ell.

    Searches s + t = a, s*t - u^2 = ell with non-negative diagonal, u >= 1
    and entries at most a, taking the largest valid s first. Eigenvalues
    in the Hasse range a^2 < 4*ell admit no such matrix (a real symmetric
    matrix has real spectrum), reported as NotRepresentable.
    """
    from math import isqrt
    check_int("the trace", a)
    if check_int("ell", ell) < 2:
        raise InvalidInput("ell must be at least 2")
    if a * a < 4 * ell:
        raise NotRepresentable(
            f"x^2 - {a}x + {ell} has complex roots; no symmetric integer "
            f"matrix has that spectrum")
    if a < 0:
        raise NotRepresentable("non-negative entries force a non-negative trace")
    for s in range(a - 1, 0, -1):
        t = a - s
        u2 = s * t - ell
        if u2 < 1:
            continue
        u = isqrt(u2)
        if u * u != u2 or u > a:
            continue
        return make_matrix([[s, u], [u, t]], ell=ell)
    raise NotRepresentable(f"no symmetric matrix matches trace {a}, det {ell}")


def frobenius_shift_matches_eigenvalue(G, a, ell):
    """Whether lambda of G is exactly the largest root of x^2 - ax + ell.

    One exact comparison: the minimal polynomial of lambda must be that
    quadratic. lambda is the largest real root of the characteristic
    polynomial, which its minimal polynomial divides, so a match pins it
    to the larger root of the quadratic. A quadratic with complex roots
    has no real root to match, and one with a repeated root is reducible,
    so both fail the comparison.
    """
    check_int("ell", ell)
    check_int("the trace", a)
    return G.field.minpoly == qpoly.primitive_int((ell, -a, 1))


def parse_matrix(text, path="<string>", ell=None):
    """Whitespace-separated integer rows, one per line; '#' lines skipped.
    An entry has at most LITERAL_DIGITS digits (errors.data_lines). When ell
    is given the matrix must be symmetric with determinant ell."""
    rows = []
    for no, line in data_lines(text):
        try:
            rows.append([int(v) for v in line.split()])
        except ValueError:
            raise ParseError(f"line {no}: entries must be integers") from None
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    width = len(rows[0])
    for no, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"row {no}: expected {width} entries, got {len(row)}")
    if len(rows) != width:
        raise ParseError(f"{path}: matrix must be square, got {len(rows)}x{width}")
    return make_matrix(rows, ell=ell)


def load_matrix(path, ell=None):
    return parse_matrix(read_text(path), path=str(path), ell=ell)


def dimgroup_report(report, path, det_check=None):
    """Add the dimgroup report of the matrix file at path to report, with
    the symmetry and determinant check when det_check is given; returns
    whether the trace is coherent across levels and scales under shift."""
    T = load_matrix(path, ell=det_check)
    G = build(T)
    det = T.det()
    report.kv("input", path)
    report.kv("matrix", matrix_str(T.rows))
    report.kv("determinant", num_str(det))
    if det_check is not None:
        report.kv("det check", f"symmetric with determinant {det_check}: ok")
    report.kv("lambda minpoly", poly_x_str(G.field.minpoly))
    report.kv("lambda isolated in", interval_str(G.field))
    report.kv("lambda", G.lam.decimal_str(30))
    report.add("left eigenvector (w_1 = 1, coords in powers of lambda):")
    for k, entry in enumerate(G.w, start=1):
        report.add(f"  w_{k} = {algebraic_str(entry)}")
    report.add("sample trace values:")
    samples = [(tuple(int(j == i) for j in range(G.b)), 0) for i in range(G.b)]
    samples.append((samples[0][0], 1))
    for v, k in samples:
        val = trace_value(G, (v, k))
        report.add(f"  tau({v}, level {k}) = {algebraic_str(val)}")
    x = samples[0]
    coherent = trace_value(G, x) == trace_value(G, (G.matrix.apply(x[0]), x[1] + 1))
    report.kv("level coherence tau(v,k) = tau(Tv,k+1)", "exact" if coherent else "FAIL")
    scaling = trace_value(G, shift(G, x)) == G.lam * trace_value(G, x)
    report.kv("shift scaling tau(shift x) = lambda*tau(x)", "exact" if scaling else "FAIL")
    ell = det_check
    if ell is None and abs(det) >= 2:
        ell = abs(det)
    if ell is None:
        report.kv("unit decomposition", "skipped (no determinant >= 2 available)")
    else:
        unit = unit_decomposition(G, ell)
        report.add(f"unit decomposition (ell = {ell}):")
        report.add(f"  lambda/ell = {algebraic_str(unit.lam_unit)}")
        report.add(f"  minimal polynomial: {poly_x_str(unit.minpoly)}")
        report.add(f"  verified algebraic unit: {'true' if unit.verified else 'false'}")
    ok = coherent and scaling
    report.kv("verdict", "PASS" if ok else "FAIL")
    return ok
