"""Exact real algebraic numbers as elements of a designated number field.

A RealNumberField is Q(theta) for theta the unique real root of a monic
irreducible integer polynomial inside a rational isolating interval,
certified by a Sturm count at construction. Elements are integer
numerators over one positive denominator in the power basis 1, theta,
..., theta^(D-1) (Cohen, GTM 138, 4.2), and the interval is integer
endpoints over one common denominator.

Arithmetic is exact and runs on ints. Inputs may be ints or Fractions,
read by their numerator and denominator; nothing returns a Fraction, so
callers read nums/den and the field's bracket. Comparisons are decided by
an exact zero test on the coordinates followed by interval refinement,
never by fixed-precision floating point. The isolating interval narrows
monotonically as a shared cache; the numeric identity of every value is
immutable.
"""

import sys
from functools import total_ordering
from math import gcd, lcm

from . import qpoly
from .errors import (DivisionByZero, FieldMismatch, InvalidInput,
                     InvalidInterval, NotIrreducible)
from .qlinalg import as_int, echelon


def _is_rational(r):
    # a Fraction exists only once fractions is loaded, so this test loads
    # nothing
    fractions = sys.modules.get("fractions")
    return isinstance(r, int) or fractions is not None and isinstance(r, fractions.Fraction)


def _rational(r):
    """r itself when it is an int or a Fraction; InvalidInput otherwise."""
    if not _is_rational(r):
        raise InvalidInput(f"expected an int or a Fraction, got {r!r}")
    return r


def _interval_eval(nums, den, lo, hi, d):
    """Enclosure (low, high, s) of sum nums_i/den * x^i over x in
    [lo/d, hi/d]: the value lies in [low/s, high/s], s = den * d^(n-1).

    Monomial interval arithmetic on integers: x^i ranges over [P_i, Q_i]/d^i,
    where P_i and Q_i come from the min/max recurrence on lo and hi, and
    term i lies between the ends of nums_i*[P_i, Q_i]/(den*d^i). Horner in d
    sums the terms over s, so the enclosure is the rational pair that the
    same arithmetic on Fractions gives.
    """
    plo = phi = 1
    acc_lo = acc_hi = 0
    for c in nums:
        acc_lo *= d
        acc_hi *= d
        # plo <= phi, so the sign of c orders the two products
        if c > 0:
            acc_lo += c * plo
            acc_hi += c * phi
        elif c < 0:
            acc_lo += c * phi
            acc_hi += c * plo
        if lo >= 0:
            plo, phi = plo * lo, phi * hi
        else:
            cands = (plo * lo, plo * hi, phi * lo, phi * hi)
            plo, phi = min(cands), max(cands)
    return acc_lo, acc_hi, den * d ** (len(nums) - 1)


def _decimal(n, d, prec):
    """str(Decimal(n) / Decimal(d)) at precision prec, for ints n, d > 0.

    The quotient is rounded half-even to prec significant digits; an exact
    one drops its trailing zeros down to the units digit, as Decimal keeps
    the exponent nearest 0 (1.5, 2, 100); exponent notation appears where
    Decimal's to-scientific-string rule puts it.
    """
    # e = floor(log10(n/d)), counted up from an estimate by bit lengths
    # that never exceeds it
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000 - 1
    while n * 10 ** max(-e - 1, 0) >= d * 10 ** max(e + 1, 0):
        e += 1
    exp = e - prec + 1
    num, div = (n, d * 10 ** exp) if exp >= 0 else (n * 10 ** -exp, d)
    q, r = divmod(num, div)
    if 2 * r > div or (2 * r == div and q & 1):
        q += 1
    if q == 10 ** prec:
        q, exp = q // 10, exp + 1
    while not r and exp < 0 and q % 10 == 0:
        q, exp = q // 10, exp + 1
    digits = str(q)
    left = exp + len(digits)
    # exp > 0 always takes exponent notation, so dot never passes the digits
    dot = left if exp <= 0 and left > -6 else 1
    text = ("0." + "0" * -dot + digits if dot <= 0
            else (digits[:dot] + "." + digits[dot:]).rstrip("."))
    return text if left == dot else f"{text}E{left - dot:+d}"


class RealNumberField:
    """Q(theta) with theta pinned by minpoly plus an isolating interval.

    bracket holds that interval as ints (lo, hi, d): theta lies in
    [lo/d, hi/d], d > 0. Each refine() halves it and doubles d.
    """

    def __init__(self, minpoly, interval, den=1):
        # interval: ints or Fractions lo and hi, each divided by den > 0
        coeffs = qpoly.trim(minpoly)
        minpoly = tuple(int(c) for c in coeffs)
        # a coefficient that int() changes is not an integer
        if not minpoly or minpoly[-1] != 1 or minpoly != coeffs:
            raise NotIrreducible("minimal polynomial must be monic with integer coefficients")
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        lo, hi = map(_rational, interval)
        d = lcm(lo.denominator, hi.denominator)
        lo, hi = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        d *= den
        if self.degree == 1:
            root = -minpoly[0]
            if not lo <= root * d <= hi:
                raise InvalidInterval(f"interval does not contain the root {root}")
            lo = hi = root
            d = 1
            self._lo_sign = 0
        else:
            # a monic primitive polynomial is irreducible when it is its own
            # only factor
            if qpoly.factor_int(minpoly)[1] != [(minpoly, 1)]:
                raise NotIrreducible(f"{qpoly.poly_str(minpoly, 'x')} is reducible over Q")
            if lo >= hi:
                raise InvalidInterval("interval must satisfy lo < hi")
            # sign of the minpoly at the lower end, which refine() keeps
            self._lo_sign = qpoly._sign_at(minpoly, lo, d)
            if self._lo_sign == 0 or qpoly._sign_at(minpoly, hi, d) == 0:
                raise InvalidInterval("interval endpoints must not be roots")
            if qpoly.count_roots(minpoly, lo, hi, d=d) != 1:
                raise InvalidInterval("interval must isolate exactly one real root")
        self.bracket = (lo, hi, d)

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
        lo1, hi1, d1 = self.bracket
        lo2, hi2, d2 = other.bracket
        lo, hi = max(lo1 * d2, lo2 * d1), min(hi1 * d2, hi2 * d1)
        if lo >= hi:
            return False
        return qpoly.count_roots(self.minpoly, lo, hi, d=d1 * d2) == 1

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        lo, hi, d = self.bracket
        return (f"RealNumberField({qpoly.poly_str(self.minpoly, 'x')}, "
                f"root in [{qpoly.ratio_str(lo, d)}, {qpoly.ratio_str(hi, d)}])")

    @classmethod
    def rationals(cls):
        """The degree-1 field Q, generator 0."""
        return cls((0, 1), (0, 0))

    @classmethod
    def quadratic(cls, d):
        """Q(sqrt(d)) for a non-square integer d >= 2."""
        from math import isqrt
        d = as_int(d, "d must be an integer")
        if d < 0:
            raise InvalidInput(f"sqrt({d}) is not real")
        r = isqrt(d)
        if r * r == d:
            raise NotIrreducible(f"{d} is a perfect square")
        return cls((-d, 0, 1), (r, r + 1))

    def refine(self):
        """Halve the isolating interval of theta (monotone cache update)."""
        lo, hi, d = self.bracket
        if lo != hi:
            self.bracket = qpoly.refine_bracket(self.minpoly, lo, hi, d, self._lo_sign)

    def zero(self):
        return RealAlgebraic(self, (0,) * self.degree)

    def one(self):
        return RealAlgebraic(self, (1,) + (0,) * (self.degree - 1))

    def gen(self):
        """theta itself."""
        if self.degree == 1:
            return self.from_rational(self.bracket[0])
        return RealAlgebraic(self, (0, 1) + (0,) * (self.degree - 2))

    def from_rational(self, r, den=1):
        """The rational r/den, for r an int or a Fraction and den > 0."""
        r = _rational(r)
        return RealAlgebraic(self, (r.numerator,) + (0,) * (self.degree - 1),
                             r.denominator * den)

    def element(self, coords):
        """The element with the given int or Fraction coordinates."""
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise FieldMismatch(f"expected {self.degree} coordinates, got {len(coords)}")
        den = lcm(*(_rational(c).denominator for c in coords))
        return RealAlgebraic(self, tuple(c.numerator * (den // c.denominator) for c in coords),
                             den)

    def _columns(self, nums, count):
        """The numerators of x*theta^j for j < count, x with numerators nums:
        each shifts the last up one power and folds theta^D back through the
        monic minimal polynomial."""
        cols = [nums]
        for _ in range(count - 1):
            col = cols[-1]
            # zip stops before the minpoly's leading 1
            cols.append(tuple(a - col[-1] * m for a, m in zip((0,) + col[:-1], self.minpoly)))
        return cols


@total_ordering
class RealAlgebraic:
    """Immutable exact real number inside a RealNumberField.

    The value is the sum of nums[i]/den * theta^i, reduced: den > 0 and
    gcd(den, *nums) = 1, so equal values have equal numerators.
    <=, > and >= are derived from __lt__ and __eq__, so each comparison
    makes exactly one exact sign computation.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den=1):
        g = gcd(den, *nums)
        if g > 1:
            nums = tuple(c // g for c in nums)
            den //= g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RealAlgebraic is immutable")

    # --- coercion helpers ---

    def _coerce(self, other):
        if isinstance(other, RealAlgebraic):
            if other.field != self.field:
                raise FieldMismatch("elements of different real number fields")
            return other
        if _is_rational(other):
            return self.field.from_rational(other)
        return None

    # --- ring operations ---

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        s, t = den // self.den, den // o.den
        return RealAlgebraic(self.field, tuple(a * s + b * t for a, b in zip(self.nums, o.nums)),
                             den)

    __radd__ = __add__

    def __neg__(self):
        return RealAlgebraic(self.field, tuple(-a for a in self.nums), self.den)

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
        # x*y is the sum of y_j * x*theta^j, up to y's last nonzero coordinate
        ys = qpoly.trim(o.nums)
        acc = [0] * self.field.degree
        for col, y in zip(self.field._columns(self.nums, len(ys)), ys):
            if y:
                acc = [a + y * c for a, c in zip(acc, col)]
        return RealAlgebraic(self.field, tuple(acc), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # y = 1/x solves M y = den*e_0, where column j of M holds the
        # numerators of x*theta^j. M is invertible, so every pivot row of
        # the fraction-free elimination holds the same last pivot p, and
        # y is the right-hand column over p
        f = self.field
        D = f.degree
        rows = [list(row) + [self.den if i == 0 else 0]
                for i, row in enumerate(zip(*f._columns(self.nums, D)))]
        M, _, _ = echelon(rows, D)
        p = M[0][0]
        nums = tuple(row[D] if p > 0 else -row[D] for row in M)
        return RealAlgebraic(f, nums, abs(p))

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
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        if self.is_rational():
            c = self.nums[0]
            return (c > 0) - (c < 0)
        lo, _, _ = self._refine_until(lambda lo, hi, s: lo > 0 or hi < 0)
        return 1 if lo > 0 else -1

    def _refine_until(self, done):
        """Refine the field's interval until done(lo, hi, s) holds for the
        enclosure [lo/s, hi/s] of the value; returns that enclosure."""
        while True:
            lo, hi, s = _interval_eval(self.nums, self.den, *self.field.bracket)
            if done(lo, hi, s):
                return lo, hi, s
            self.field.refine()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

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
            return self.nums[0] // self.den
        lo, _, s = self._refine_until(lambda lo, hi, s: lo // s == hi // s)
        return lo // s

    def decimal_str(self, digits=30):
        """Deterministic decimal rendering with the given significant digits:
        the midpoint of an enclosure narrower than 10^-(digits+3) times its
        lower end, as Decimal prints it at that precision."""
        if self.is_zero():
            return "0"
        if self.sign() < 0:
            return "-" + (-self).decimal_str(digits)
        low, _, t = self._refine_until(lambda lo, hi, s: lo > 0)
        t *= 10 ** (digits + 3)
        lo, hi, s = self._refine_until(lambda lo, hi, s: (hi - lo) * t < low * s)
        return _decimal(lo + hi, 2 * s, digits)

    def __repr__(self):
        cs = ", ".join(qpoly.ratio_str(c, self.den) for c in self.nums)
        return f"RealAlgebraic(({cs}))"


def minimal_polynomial(x):
    """Primitive integer minimal polynomial of x over Q, positive leading
    coefficient, coefficients low degree first.

    Computed exactly (Cohen, GTM 138) from the kernel of the D x (D+1)
    matrix whose columns are the coordinates of 1, x, ..., x^D, all scaled
    by one common denominator. The first power x^k that depends on the
    lower ones follows the pivot columns 0..k-1 of qlinalg.echelon, whose
    pivot rows all hold the same last pivot p at their pivots; so
    p*x^k - sum_i M[i][k]*x^i is that dependence.
    """
    f = x.field
    powers = [f.one()]
    for _ in range(f.degree):
        powers.append(powers[-1] * x)
    s = lcm(*(p.den for p in powers))
    A = [[p.nums[r] * (s // p.den) for p in powers] for r in range(f.degree)]
    # D+1 columns in D rows: some power is dependent, so k <= D
    M, pivots, _ = echelon(A, f.degree + 1)
    k = len(pivots)
    return qpoly.primitive_int([-row[k] for row in M[:k]] + [M[0][0]])
