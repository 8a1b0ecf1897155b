"""Dense finitely generated subgroups of the reals ("pseudo-lattices").

A PseudoLattice is Z g_1 + ... + Z g_b inside one real algebraic number
field, normalized so g_1 = 1. Unlike a classical lattice in R^n it is
dense in R once b >= 2, which the density_witness construction certifies
by producing arbitrarily small positive elements from continued fractions.

The endomorphism ring {alpha : alpha L <= L} is computed exactly: writing
alpha in the generator basis and demanding integer coordinates for every
alpha*g_i turns End(L) into the projection of an integer kernel lattice,
and a Hermite normal form gives its canonical Z-basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from .errors import (DependentGenerators, DimensionMismatch, FieldMismatch,
                     InternalError, InvalidInput, NotEndomorphism,
                     NotNormalized, ParseError)
from .qlinalg import hnf_rows, kernel_int, rank_rational, solve_right
from .realalg import RealAlgebraic, RealNumberField


@dataclass(frozen=True)
class PseudoLattice:
    """Z-span of generators in one shared field, first generator 1."""

    field: RealNumberField
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InvalidInput("a pseudo-lattice needs at least one generator")
        for g in self.generators:
            if not isinstance(g, RealAlgebraic) or g.field != self.field:
                raise FieldMismatch("generators must live in the lattice's field")
        if self.generators[0] != 1:
            raise NotNormalized("first generator must be 1")
        coords = [g.coords for g in self.generators]
        if rank_rational(coords) != len(self.generators):
            raise DependentGenerators(
                "generators are linearly dependent over the rationals")

    @property
    def rank(self):
        return len(self.generators)

    def __repr__(self):
        return f"PseudoLattice(rank {self.rank} in {self.field!r})"


def _int_coords(L, x):
    """Integer coordinates of x in the generator basis, or None if x is not
    in L."""
    if x.field != L.field:
        raise FieldMismatch("element lives in a different field")
    deg = L.field.degree
    rows = [[L.generators[j].coords[r] for j in range(L.rank)] for r in range(deg)]
    sol = solve_right(rows, list(x.coords), Fraction(0))
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def coordinates(L, x):
    """Integer coordinates of x in the generator basis; x must lie in L."""
    coords = _int_coords(L, x)
    if coords is None:
        raise InvalidInput("element does not belong to the lattice")
    return coords


def contains(L, x):
    """Whether x is an integer combination of the generators."""
    return _int_coords(L, x) is not None


def is_endomorphism(L, alpha):
    """Whether multiplication by alpha maps L into itself."""
    if alpha.field != L.field:
        raise FieldMismatch("multiplier lives in a different field")
    return all(contains(L, alpha * g) for g in L.generators)


def endo_matrix(L, alpha):
    """Integer matrix of multiplication by alpha; columns are images.

    alpha * g_j = sum_k M[k][j] * g_k.
    """
    columns = []
    for j, g in enumerate(L.generators):
        coords = _int_coords(L, alpha * g)
        if coords is None:
            raise NotEndomorphism(
                f"multiplication by the given element does not preserve the lattice "
                f"(image of generator {j + 1} falls outside)")
        columns.append(coords)
    return tuple(zip(*columns))


def endo_ring_basis(L):
    """Canonical Z-basis of End(L) = {alpha : alpha L <= L}.

    Since g_1 = 1, any endomorphism alpha = alpha*g_1 lies in L, so alpha
    has integer generator coordinates x. The condition alpha*g_i in L for
    every i is linear in x and in the unknown integer coordinate vectors
    y_i of the images, giving one integer kernel computation. The
    projection of that kernel onto x, in Hermite normal form, is the
    basis.
    """
    b = L.rank
    deg = L.field.degree
    gen_coords = [g.coords for g in L.generators]
    prod_coords = [[(L.generators[j] * L.generators[i]).coords for j in range(b)]
                   for i in range(b)]
    # unknowns: x_1..x_b, then y_{i,k} for i,k = 1..b
    ncols = b + b * b
    rows = []
    for i in range(b):
        for t in range(deg):
            row = [Fraction(0)] * ncols
            for j in range(b):
                row[j] = Fraction(prod_coords[i][j][t])
            for k in range(b):
                row[b + i * b + k] = -Fraction(gen_coords[k][t])
            den = lcm(*(v.denominator for v in row))
            rows.append([int(v * den) for v in row])
    kernel = kernel_int(rows)
    projected = [vec[:b] for vec in kernel]
    basis_rows = hnf_rows(projected)
    elements = []
    for row in basis_rows:
        acc = L.field.zero()
        for c, g in zip(row, L.generators):
            acc = acc + c * g
        elements.append(acc)
    if not elements:
        raise InternalError("endomorphism ring lost the identity")
    return tuple(elements)


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
        matrix = tuple(tuple(int(v) for v in row) for row in omega)
        if len(matrix) != L.rank or any(len(row) != L.rank for row in matrix):
            raise DimensionMismatch(
                f"Frobenius matrix must be {L.rank}x{L.rank}")
    trace = sum(matrix[i][i] for i in range(len(matrix)))
    return 1 + q - trace


@dataclass(frozen=True)
class DensityWitness:
    """Small positive lattice element c0*1 + c1*g_2 in (0, eps)."""

    c0: int
    c1: int
    value: RealAlgebraic


def density_witness(L, eps=Fraction(1, 1000)):
    """Element of L in (0, eps), from continued fractions of g_2.

    Exists for rank >= 2 because g_2 is irrational, so the convergents
    h/k of its continued fraction satisfy |k g_2 - h| < 1/k, which drops
    below any positive bound.
    """
    if L.rank < 2:
        raise InvalidInput("rank 1 lattices are discrete; no witness exists")
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    theta = L.generators[1]
    eps_elt = L.field.from_rational(eps)
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
                interval = (Fraction(parts[0].strip()), Fraction(parts[1].strip()))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {no}: endpoints must be rationals") from None
        elif line.startswith("gen"):
            rest = line[len("gen"):].strip()
            try:
                gens_raw.append((no, tuple(Fraction(v) for v in rest.split())))
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lattice(fh.read(), path=str(path))
