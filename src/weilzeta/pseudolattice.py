"""Dense finitely generated subgroups of the reals ("pseudo-lattices").

A PseudoLattice is Z g_1 + ... + Z g_b inside one real algebraic number
field, normalized so g_1 = 1. Unlike a classical lattice in R^n it is
dense in R once b >= 2, which the density_witness construction certifies
by producing arbitrarily small positive elements from continued fractions.

The endomorphism ring {alpha : alpha L <= L} is computed exactly. In the
generator basis it is the integer vectors x for which every alpha*g_i has
integer coordinates. Eliminating the generators and their products turns
that into congruences modulo one integer N, a Hermite normal form with
entries reduced modulo N gives their solutions, and a last Hermite normal
form gives the canonical Z-basis.
"""

from math import floor, lcm
from time import perf_counter

from .errors import (DependentGenerators, DimensionMismatch, FieldMismatch,
                     InternalError, InvalidInput, NotEndomorphism,
                     NotNormalized, ParseError, read_text)
from .qlinalg import as_int, echelon, mat_mul_int
from .realalg import (RealAlgebraic, RealNumberField, algebraic_str, interval_str,
                      matrix_str, num_str, poly_x_str)


def rank_rational(A):
    """Rank of a matrix with int or Fraction entries."""
    return len(echelon(A, len(A[0]) if A else 0)[1])


def hnf_rows(M):
    """Nonzero rows of the row Hermite normal form of M, the canonical basis
    of the lattice its rows span: pivots positive, entries above each pivot
    reduced to [0, pivot)."""
    H = [list(row) for row in M]
    m = len(H)
    r = 0
    for c in range(len(H[0]) if m else 0):
        piv = next((i for i in range(r, m) if H[i][c] != 0), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        for i in range(r + 1, m):
            # euclidean steps on rows r and i in column c
            while H[i][c] != 0:
                q = H[r][c] // H[i][c]
                H[r] = [a - q * b for a, b in zip(H[r], H[i])]
                H[r], H[i] = H[i], H[r]
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
        for j in range(r):
            q = H[j][c] // H[r][c]
            if q:
                H[j] = [a - q * b for a, b in zip(H[j], H[r])]
        r += 1
        if r == m:
            break
    # rows from r on are zero in every column
    return H[:r]


class PseudoLattice:
    """Z-span of generators in one shared field, first generator 1."""

    __slots__ = ("field", "generators")

    def __init__(self, field, generators):
        self.field = field  # RealNumberField
        self.generators = generators
        if not generators:
            raise InvalidInput("a pseudo-lattice needs at least one generator")
        for g in generators:
            if not isinstance(g, RealAlgebraic) or g.field != field:
                raise FieldMismatch("generators must live in the lattice's field")
        if generators[0] != 1:
            raise NotNormalized("first generator must be 1")
        # scaling a row by its denominator keeps the rank
        if rank_rational([g.nums for g in generators]) != len(generators):
            raise DependentGenerators(
                "generators are linearly dependent over the rationals")

    @property
    def rank(self):
        return len(self.generators)

    def __repr__(self):
        return f"PseudoLattice(rank {self.rank} in {self.field!r})"


def _scaled(elements):
    """Numerators of the elements over their one common denominator."""
    den = lcm(*(x.den for x in elements))
    return [[c * (den // x.den) for c in x.nums] for x in elements]


def _int_coords(L, xs):
    """Integer coordinates in the generator basis of each element of xs,
    None for one that is not in L; one elimination serves them all."""
    if any(x.field != L.field for x in xs):
        raise FieldMismatch("element lives in a different field")
    b = L.rank
    # columns: the generators, then the xs, all over one denominator; the
    # generators are independent, so each pivot row gives one coordinate
    # of each x as its entry in x's column over its pivot
    M, _, _ = echelon(list(zip(*_scaled((*L.generators, *xs)))), b)
    found = []
    for j in range(b, b + len(xs)):
        coords = [divmod(row[j], row[i]) for i, row in enumerate(M[:b])]
        inside = not any(row[j] for row in M[b:]) and not any(r for _, r in coords)
        found.append(tuple(q for q, _ in coords) if inside else None)
    return found


def coordinates(L, x):
    """Integer coordinates of x in the generator basis; x must lie in L."""
    coords, = _int_coords(L, (x,))
    if coords is None:
        raise InvalidInput("element does not belong to the lattice")
    return coords


def contains(L, x):
    """Whether x is an integer combination of the generators."""
    return _int_coords(L, (x,))[0] is not None


def is_endomorphism(L, alpha):
    """Whether multiplication by alpha maps L into itself."""
    if alpha.field != L.field:
        raise FieldMismatch("multiplier lives in a different field")
    return None not in _int_coords(L, [alpha * g for g in L.generators])


def endo_matrix(L, alpha):
    """Integer matrix of multiplication by alpha; columns are images.

    alpha * g_j = sum_k M[k][j] * g_k.
    """
    columns = _int_coords(L, [alpha * g for g in L.generators])
    if None in columns:
        raise NotEndomorphism(
            f"multiplication by the given element does not preserve the lattice "
            f"(image of generator {columns.index(None) + 1} falls outside)")
    return tuple(zip(*columns))


def endo_ring_basis(L):
    """Canonical Z-basis of End(L) = {alpha : alpha L <= L}.

    Since g_1 = 1, an endomorphism alpha = alpha*g_1 lies in L: it is
    sum_j x_j g_j with x in Z^b, and alpha*g_i = sum_j x_j g_j g_i. In one
    elimination of the generators and the b^2 products, as in _int_coords,
    every pivot row holds the last pivot P, and the column of g_j g_i holds
    P times its generator coordinates in the rows k < b and its part outside
    the span of L in the rest. So x gives an endomorphism exactly when, for
    every i, sum_j x_j M[k][(j, i)] is 0 mod P for k < b and 0 for k >= b.
    A second elimination solves the exact equations as x = W c / Q, c the
    free coordinates and Q its last pivot, so with N = |P Q| every
    condition reads E c = 0 mod N; those of i = 1, where g_j g_1 = g_j, say
    that x is integral. Those c are the lattice dual to the span of the
    rows of E / N and Z^k: the columns of N H^-1, H the Hermite normal form
    of [E mod N; N I] (H. Cohen, GTM 138, 2.4; P. D. Domich, R. Kannan and
    L. E. Trotter, Math. Oper. Res. 12, 1987). So no entry grows far past
    N, and the Hermite normal form of the x they give is the basis.
    """
    b = L.rank
    gens = L.generators
    # column b + i*b + j is g_j * g_i
    M, _, _ = echelon(list(zip(*_scaled((*gens, *(g * h for h in gens for g in gens))))), b)
    P = M[0][0]
    products = [[row[b + i * b: b + i * b + b] for row in M] for i in range(b)]
    exact, pivots, _ = echelon([row for rows in products for row in rows[b:]], b)
    Q = exact[0][pivots[0]] if pivots else 1
    # W's columns: the solution of each free coordinate, times Q
    W = []
    for f in range(b):
        if f not in pivots:
            w = [0] * b
            w[f] = Q
            for row, c in zip(exact, pivots):
                w[c] = -row[f]
            W.append(w)
    N = abs(P * Q)
    E = [[sum(a * v for a, v in zip(row, w)) % N for w in W]
         for rows in products for row in rows[:b]]
    k = len(W)
    H = hnf_rows(E + [[N if s == t else 0 for s in range(k)] for t in range(k)])
    solutions = []
    for t in range(k):
        # H y = N e_t by back-substitution; each division is exact
        y = [0] * k
        for r in range(t, -1, -1):
            y[r] = ((N if r == t else 0)
                    - sum(H[r][s] * y[s] for s in range(r + 1, t + 1))) // H[r][r]
        solutions.append([sum(w[j] * v for w, v in zip(W, y)) // Q for j in range(b)])
    # x = e_1 solves the exact equations, so k >= 1 and the basis is not empty
    return tuple(sum((c * g for c, g in zip(row, gens)), L.field.zero())
                 for row in hnf_rows(solutions))


def endo_ring_rank(L):
    """(rank, canonical basis) of End(L); rank is between 1 and b."""
    basis = endo_ring_basis(L)
    return len(basis), basis


def curve_trace_cohomology(g, thetas):
    """(H^0, H^1, H^2) for a genus-g curve with H^1 = Z + sum Z theta_i."""
    if g < 1:
        raise InvalidInput("genus must be at least 1")
    thetas = tuple(thetas)
    if len(thetas) != 2 * g - 1:
        raise DimensionMismatch(f"genus {g} needs {2 * g - 1} generators beyond 1, "
                                f"got {len(thetas)}")
    field = thetas[0].field
    for th in thetas:
        if th.field != field:
            raise FieldMismatch("all generators must share one field")
    one = field.one()
    h1 = PseudoLattice(field=field, generators=(one,) + thetas)
    point = PseudoLattice(field=field, generators=(one,))
    return point, h1, point


def point_count_from_frobenius(L, omega, q):
    """1 + q - tr(omega) with omega acting on the lattice.

    omega is either a multiplier in L's field (its integer matrix is
    computed, requiring omega L <= L) or directly a square integer matrix
    of the right size, used when the Frobenius eigenvalues are complex and
    no real multiplier realizes them.
    """
    if isinstance(omega, RealAlgebraic):
        matrix = endo_matrix(L, omega)
    else:
        matrix = tuple(tuple(as_int(v, "Frobenius matrix entries must be integers")
                             for v in row) for row in omega)
        if len(matrix) != L.rank or any(len(row) != L.rank for row in matrix):
            raise DimensionMismatch(
                f"Frobenius matrix must be {L.rank}x{L.rank}")
    trace = sum(matrix[i][i] for i in range(len(matrix)))
    return 1 + q - trace


class DensityWitness:
    """Small positive lattice element c0*1 + c1*g_2 in (0, eps)."""

    __slots__ = ("c0", "c1", "value")

    def __init__(self, c0, c1, value):
        self.c0 = c0
        self.c1 = c1
        self.value = value  # RealAlgebraic


def density_witness(L, eps=None):
    """Element of L in (0, eps), from continued fractions of g_2; eps is an
    int or a Fraction, 1/1000 when None.

    Exists for rank >= 2 because g_2 is irrational, so the convergents
    h/k of its continued fraction satisfy |k g_2 - h| < 1/k, which drops
    below any positive bound.
    """
    if L.rank < 2:
        raise InvalidInput("rank 1 lattices are discrete; no witness exists")
    eps_elt = L.field.from_rational(1, 1000) if eps is None else L.field.from_rational(eps)
    if eps_elt.sign() <= 0:
        raise InvalidInput("eps must be positive")
    theta = L.generators[1]
    x = theta
    a = floor(x)
    h_prev, h_cur = 1, a
    k_prev, k_cur = 0, 1
    for _ in range(10000):
        value = k_cur * theta - h_cur
        if value.is_zero():
            raise InternalError("generator 2 turned out rational")
        positive = value.sign() > 0
        candidate = value if positive else -value
        if candidate < eps_elt:
            c0, c1 = (-h_cur, k_cur) if positive else (h_cur, -k_cur)
            return DensityWitness(c0=c0, c1=c1, value=candidate)
        x = (x - a).inverse()
        a = floor(x)
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    raise InternalError("continued fraction failed to converge")


# --- text format ---

# The most digits a numerator or denominator in a lattice file may have
LITERAL_DIGITS = 1000
_LITERAL_BOUND = 10 ** LITERAL_DIGITS


def _rational(text, no):
    """A plain integer literal as an int, a/b or a decimal as a Fraction;
    ParseError past LITERAL_DIGITS digits."""
    try:
        value = int(text)
    except ValueError:
        from fractions import Fraction
        # the exponent is checked before Fraction builds 10**exponent
        _, e, exponent = text.lower().partition("e")
        value = _LITERAL_BOUND if e and abs(int(exponent)) > LITERAL_DIGITS else Fraction(text)
    if max(abs(value.numerator), value.denominator) >= _LITERAL_BOUND:
        raise ParseError(f"line {no}: a number has more than {LITERAL_DIGITS} digits")
    return value


def parse_lattice(text, path="<string>"):
    """Parse the lattice text format.

    Lines: ``field minpoly=<ints low-to-high>``, ``root in [a, b]`` with
    rational endpoints, then one ``gen <coords>`` line per generator with
    exactly field-degree rational coordinates. '#' lines and blanks are
    skipped.
    """
    minpoly = None
    interval = None
    gens_raw = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("field"):
            rest = line[len("field"):].strip()
            if not rest.startswith("minpoly="):
                raise ParseError(f"line {no}: expected 'field minpoly=<coeffs>'")
            try:
                minpoly = tuple(int(v) for v in rest[len("minpoly="):].split())
            except ValueError:
                raise ParseError(f"line {no}: minpoly coefficients must be integers") from None
            if not minpoly:
                raise ParseError(f"line {no}: minpoly needs at least one coefficient")
        elif line.startswith("root in"):
            rest = line[len("root in"):].strip()
            if not (rest.startswith("[") and rest.endswith("]")):
                raise ParseError(f"line {no}: expected 'root in [a, b]'")
            parts = rest[1:-1].split(",")
            if len(parts) != 2:
                raise ParseError(f"line {no}: interval needs two endpoints")
            try:
                interval = (_rational(parts[0], no), _rational(parts[1], no))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {no}: endpoints must be rationals") from None
        elif line.startswith("gen"):
            rest = line[len("gen"):].strip()
            try:
                gens_raw.append((no, tuple(_rational(v, no) for v in rest.split())))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {no}: coordinates must be rationals") from None
        else:
            raise ParseError(f"line {no}: unrecognized line {line!r}")
    if minpoly is None:
        raise ParseError(f"{path}: missing 'field minpoly=' line")
    if interval is None:
        raise ParseError(f"{path}: missing 'root in [a, b]' line")
    if not gens_raw:
        raise ParseError(f"{path}: no generators")
    field = RealNumberField(minpoly, interval)
    gens = []
    for no, coords in gens_raw:
        if len(coords) != field.degree:
            raise ParseError(
                f"line {no}: expected {field.degree} coordinates, got {len(coords)}")
        gens.append(field.element(coords))
    return PseudoLattice(field=field, generators=tuple(gens))


def load_lattice(path):
    return parse_lattice(read_text(path), path=str(path))


def lattice_report(report, path):
    """Add the lattice report of the file at path to report; returns
    whether the endomorphism matrices commute."""
    L = load_lattice(path)
    report.kv("input", path)
    report.kv("field minpoly", poly_x_str(L.field.minpoly))
    report.kv("field root in", interval_str(L.field))
    report.kv("field degree", L.field.degree)
    report.kv("rank", L.rank)
    report.add("generators:")
    for k, g in enumerate(L.generators, start=1):
        report.add(f"  g_{k} = {algebraic_str(g)}")
    t0 = perf_counter()
    rank, basis = endo_ring_rank(L)
    report.timing("endo ring", perf_counter() - t0)
    report.kv("endomorphism ring rank", rank)
    report.add("endomorphism ring basis:")
    matrices = []
    for k, alpha in enumerate(basis, start=1):
        mat = endo_matrix(L, alpha)
        matrices.append(mat)
        report.add(f"  e_{k} = {algebraic_str(alpha)}")
        report.add(f"       matrix {matrix_str(mat)}")
    commutes = all(
        mat_mul_int(a, b) == mat_mul_int(b, a)
        for idx, a in enumerate(matrices) for b in matrices[idx + 1:])
    report.kv("endomorphism matrices commute", "yes" if commutes else "NO")
    if L.rank >= 2:
        witness = density_witness(L)
        report.add("density witness (0 < x < 1/1000):")
        report.add(f"  x = {num_str(witness.c0)}*g_1 + {num_str(witness.c1)}*g_2 "
                   f"= {algebraic_str(witness.value)}")
    report.kv("verdict", "PASS" if commutes else "FAIL")
    return commutes
