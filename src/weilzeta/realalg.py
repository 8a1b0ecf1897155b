"""Exact real algebraic numbers as elements of a designated number field.

A RealNumberField is Q(theta) for theta the unique real root of a monic
irreducible integer polynomial inside a rational isolating interval,
certified by a Sturm count at construction. Elements are rational
coordinate vectors in the power basis 1, theta, ..., theta^(D-1).

Arithmetic is exact. Comparisons are decided by an exact zero test on the
coordinates followed by interval refinement, never by fixed-precision
floating point. The isolating interval narrows monotonically as a shared
cache; the numeric identity of every value is immutable.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from math import floor as _floor, lcm

from . import qpoly
from .errors import (DivisionByZero, FieldMismatch, InvalidInterval,
                     NotIrreducible)
from .qlinalg import nullspace


def _interval_eval(p, lo, hi):
    """Enclosure of p over [lo, hi] by monomial interval arithmetic, computed
    on integer numerators.

    With the coordinates c_i = C_i/D and the endpoints a/d, b/d over common
    denominators, x^i ranges over [P_i, Q_i]/d^i, where P_i and Q_i come
    from the min/max recurrence on the integers a and b, and term i lies
    between the ends of C_i*[P_i, Q_i]/(D*d^i). Horner in d sums the terms
    over D*d^n, so the enclosure is the rational pair that the same
    arithmetic on Fractions gives.
    """
    if not p:
        return Fraction(0), Fraction(0)
    den = lcm(*(c.denominator for c in p))
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    plo = phi = 1
    acc_lo = acc_hi = 0
    for c in p:
        acc_lo *= d
        acc_hi *= d
        if c:
            c = c.numerator * (den // c.denominator)
            # plo <= phi, so the sign of c orders the two products
            if c > 0:
                acc_lo += c * plo
                acc_hi += c * phi
            else:
                acc_lo += c * phi
                acc_hi += c * plo
        cands = (plo * a, plo * b, phi * a, phi * b)
        plo, phi = min(cands), max(cands)
    scale = den * d ** (len(p) - 1)
    return Fraction(acc_lo, scale), Fraction(acc_hi, scale)


class RealNumberField:
    """Q(theta) with theta pinned by minpoly plus an isolating interval."""

    def __init__(self, minpoly, interval):
        minpoly = tuple(int(c) for c in qpoly.trim(minpoly))
        if not minpoly or minpoly[-1] != 1:
            raise NotIrreducible("minimal polynomial must be monic with integer coefficients")
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if self.degree == 1:
            root = Fraction(-minpoly[0])
            if not lo <= root <= hi:
                raise InvalidInterval(f"interval does not contain the root {root}")
            lo = hi = root
        else:
            # a monic primitive polynomial is irreducible when it is its own
            # only factor
            if qpoly.factor_int(minpoly)[1] != [(minpoly, 1)]:
                raise NotIrreducible(f"{qpoly.poly_str(minpoly, 'x')} is reducible over Q")
            if lo >= hi:
                raise InvalidInterval("interval must satisfy lo < hi")
            if qpoly._sign_at(minpoly, lo) == 0 or qpoly._sign_at(minpoly, hi) == 0:
                raise InvalidInterval("interval endpoints must not be roots")
            if qpoly.count_roots(minpoly, lo, hi) != 1:
                raise InvalidInterval("interval must isolate exactly one real root")
        self._interval = [lo, hi]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RealNumberField):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        if self.degree == 1:
            return True
        # same polynomial: equal iff both intervals select the same root,
        # i.e. the overlap contains a root (each interval holds exactly one,
        # and construction forbids roots at endpoints)
        lo = max(self._interval[0], other._interval[0])
        hi = min(self._interval[1], other._interval[1])
        if lo >= hi:
            return False
        return qpoly.count_roots(self.minpoly, lo, hi) == 1

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        lo, hi = self._interval
        return f"RealNumberField({qpoly.poly_str(self.minpoly, 'x')}, root in [{lo}, {hi}])"

    @classmethod
    def rationals(cls):
        """The degree-1 field Q, generator 0."""
        return cls((0, 1), (0, 0))

    @classmethod
    def quadratic(cls, d):
        """Q(sqrt(d)) for a non-square integer d >= 2."""
        from math import isqrt
        r = isqrt(d)
        if r * r == d:
            raise NotIrreducible(f"{d} is a perfect square")
        return cls((-d, 0, 1), (r, r + 1))

    def refine(self):
        """Halve the isolating interval of theta (monotone cache update)."""
        lo, hi = self._interval
        if lo == hi:
            return
        lo2, hi2 = qpoly.refine_bracket(self.minpoly, lo, hi)
        self._interval = [lo2, hi2]

    def interval(self):
        return tuple(self._interval)

    def zero(self):
        return RealAlgebraic(self, (Fraction(0),) * self.degree)

    def one(self):
        return RealAlgebraic(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    def gen(self):
        """theta itself."""
        if self.degree == 1:
            return self.from_rational(self._interval[0])
        cs = [Fraction(0)] * self.degree
        cs[1] = Fraction(1)
        return RealAlgebraic(self, tuple(cs))

    def from_rational(self, r):
        cs = [Fraction(0)] * self.degree
        cs[0] = Fraction(r)
        return RealAlgebraic(self, tuple(cs))

    def element(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise FieldMismatch(f"expected {self.degree} coordinates, got {len(coords)}")
        return RealAlgebraic(self, coords)

    def _residue(self, poly):
        """The element poly(theta): poly reduced modulo the minimal polynomial."""
        rem = qpoly.divmod_poly(poly, self.minpoly)[1]
        return RealAlgebraic(self, rem + (Fraction(0),) * (self.degree - len(rem)))


@total_ordering
class RealAlgebraic:
    """Immutable exact real number inside a RealNumberField.

    <=, > and >= are derived from __lt__ and __eq__, so each comparison
    makes exactly one exact sign computation.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("RealAlgebraic is immutable")

    # --- coercion helpers ---

    def _coerce(self, other):
        if isinstance(other, RealAlgebraic):
            if other.field != self.field:
                raise FieldMismatch("elements of different real number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # --- ring operations ---

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlgebraic(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return RealAlgebraic(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._residue(qpoly.mul(self.coords, o.coords))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        g, u, _ = qpoly.ext_gcd_poly(qpoly.trim(self.coords), f.minpoly)
        assert qpoly.degree(g) == 0
        return f._residue(u)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # --- exact predicates and comparisons ---

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coords[0]

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.coords[0] > 0 else -1
        lo, _ = self._refine_until(lambda lo, hi: lo > 0 or hi < 0)
        return 1 if lo > 0 else -1

    def interval(self):
        """Current rational enclosure of the value (refinable)."""
        lo, hi = self.field._interval
        return _interval_eval(self.coords, lo, hi)

    def _refine_until(self, done):
        """Refine the field's interval until done(lo, hi) holds for the
        enclosure of the value; returns that enclosure."""
        lo, hi = self.interval()
        while not done(lo, hi):
            self.field.refine()
            lo, hi = self.interval()
        return lo, hi

    def refine_to_width(self, width):
        """Shrink the enclosure below the given rational width."""
        return self._refine_until(lambda lo, hi: hi - lo < width)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    def __floor__(self):
        if self.is_rational():
            return _floor(self.coords[0])
        lo, _ = self._refine_until(lambda lo, hi: _floor(lo) == _floor(hi))
        return _floor(lo)

    def decimal_str(self, digits=30):
        """Deterministic decimal rendering with the given significant digits."""
        if self.is_zero():
            return "0"
        if self.sign() < 0:
            return "-" + (-self).decimal_str(digits)
        lo, _ = self._refine_until(lambda lo, hi: lo > 0)
        target = lo * Fraction(10) ** -(digits + 3)
        lo, hi = self.refine_to_width(target)
        mid = (lo + hi) / 2
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(mid.numerator) / Decimal(mid.denominator)
            return str(d)

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coords)
        return f"RealAlgebraic(({cs}))"


def minimal_polynomial(x):
    """Primitive integer minimal polynomial of x over Q, positive leading
    coefficient, coefficients low degree first.

    Computed exactly (Cohen, GTM 138) from one kernel of the D x (D+1)
    matrix whose columns are the coordinates of 1, x, ..., x^D. Its first
    basis vector belongs to the first power that depends on the lower
    ones; those are all pivot columns, so the vector is that dependence.
    """
    f = x.field
    powers = [f.one()]
    for _ in range(f.degree):
        powers.append(powers[-1] * x)
    A = [[p.coords[d] for p in powers] for d in range(f.degree)]
    # D+1 columns in D rows: the kernel is never empty
    return qpoly.primitive_int(nullspace(A)[0])
