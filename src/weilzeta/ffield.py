"""Finite fields F_{p^m} with exact, reproducible arithmetic.

Fields are described by a FieldSpec holding the characteristic p, the
degree m and a monic irreducible modulus over F_p, chosen as the
lexicographically smallest one so identical inputs always give identical
fields. Elements are coefficient vectors reduced mod p, low degree first.
"""

from __future__ import annotations

from itertools import product

from .errors import (DivisionByZero, FieldMismatch, InternalError, InvalidDegree,
                     InvalidPrime)

DEFAULT_BUDGET = 1 << 24

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo, hi):
    """Primes p with lo <= p <= hi, ascending."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


# --- polynomial helpers over F_p, coefficients as int tuples ---

def _ptrim(cs):
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim(tuple(((a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)) % p
                        for k in range(n)))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(tuple(c % p for c in out))


def _pmod(a, f, p):
    """a mod f with f monic."""
    return _pdivmod(a, f, p)[1]


def _pgcd(a, b, p):
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _pmod(a, tuple(c * inv % p for c in b), p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppowmod(base, e, f, p):
    result = (1,)
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _berlekamp_kernel(f, p):
    """Basis of the Berlekamp space of monic f over F_p, or None when f is
    not square-free mod p.

    The v of degree < deg f with v^p = v mod f form an F_p-space with one
    dimension per irreducible factor of a square-free f, and each v is a
    constant mod every factor (Berlekamp 1967; Knuth, TAOCP vol. 2, 4.6.2).
    """
    if _pgcd(f, _ptrim(tuple(k * f[k] % p for k in range(1, len(f)))), p) != (1,):
        return None
    n = len(f) - 1
    # column i is x^(i p) - x^i mod f: v lies in the space when sum v_i col_i = 0;
    # Gauss-Jordan on the matrix m of these columns gives the basis
    xp = _ppowmod((0, 1), p, f, p)
    cols, power = [], (1,)
    for i in range(n):
        cols.append([(c - (j == i)) % p for j, c in enumerate(power + (0,) * (n - len(power)))])
        power = _pmod(_pmul(power, xp, p), f, p)
    m = [list(row) for row in zip(*cols)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[col]:
                m[i] = [(a - row[col] * b) % p for a, b in zip(row, m[r])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free not in pivots:
            v = [0] * n
            v[free] = 1
            for row, col in zip(m, pivots):
                v[col] = -row[free] % p
            basis.append(_ptrim(tuple(v)))
    return basis


def _berlekamp_split(f, basis, p):
    """Monic irreducible factors of square-free monic f over F_p, given its
    _berlekamp_kernel basis.

    gcd(h, v - s) over s in F_p splits h by the values v takes on its
    factors. The basis tells every two factors apart and has one vector
    per factor, so splitting stops once there are as many parts.
    """
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        split = []
        for h in factors:
            for s in range(p):
                c = _pgcd(h, _psub(v, (s,), p), p)
                if 1 < len(c) < len(h):
                    split.append(c)
                    h = _pdivmod(h, c, p)[0]
            split.append(h)
        factors = split
    return factors


def _is_irreducible(f, p):
    """Deterministic test for monic f over F_p: f is irreducible exactly
    when it is square-free and its Berlekamp space is the constants alone."""
    if len(f) > 2 and f[0] == 0:
        return False  # divisible by x, like make_field's first p^(m-1) candidates
    basis = _berlekamp_kernel(f, p)
    return basis is not None and len(basis) == 1


class FieldSpec:
    """Immutable description of F_{p^m} plus element constructors."""

    __slots__ = ("p", "m", "q", "modulus", "_zero", "_one")

    def __init__(self, p, m, modulus):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", p ** m)
        object.__setattr__(self, "modulus", tuple(c % p for c in modulus))
        object.__setattr__(self, "_zero", FFElement(self, (0,) * m))
        object.__setattr__(self, "_one", FFElement(self, (1,) + (0,) * (m - 1)))

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def element(self, coeffs):
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise FieldMismatch(f"expected {self.m} coefficients, got {len(coeffs)}")
        return FFElement(self, coeffs)

    def from_int(self, c):
        """Embed the prime-field value c."""
        return FFElement(self, (c % self.p,) + (0,) * (self.m - 1))

    def from_index(self, idx):
        """Element number idx in enumeration order (base-p digits of idx)."""
        cs = []
        for _ in range(self.m):
            cs.append(idx % self.p)
            idx //= self.p
        return FFElement(self, tuple(cs))


class FFElement:
    """Element of a FieldSpec; supports +, -, *, /, ** and equality."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FFElement is immutable")

    def _check(self, other):
        if not isinstance(other, FFElement):
            raise TypeError(f"cannot combine FFElement with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch("elements of different fields")
        return other

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (isinstance(other, FFElement) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        p, m = f.p, f.m
        if m == 1:
            return FFElement(f, (self.coeffs[0] * other.coeffs[0] % p,))
        out = _pmod(_pmul(self.coeffs, other.coeffs, p), f.modulus, p)
        return FFElement(f, out + (0,) * (m - len(out)))

    def inv(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def index(self):
        """Position in enumeration order (base-p value of the coefficients)."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.p + c
        return idx

    def __repr__(self):
        return f"FFElement({list(self.coeffs)} mod p={self.field.p})"


def _pdivmod(a, b, p):
    """Division with remainder by monic b over F_p."""
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _ptrim(tuple(a))
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db:
        c = a[-1] % p
        k = len(a) - 1 - db
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
        a.pop()
    return _ptrim(tuple(q)), _ptrim(tuple(a))


def make_field(p, m):
    """Field with the lexicographically smallest monic irreducible modulus.

    Coefficient tuples (c_0, ..., c_{m-1}) of candidate moduli are compared
    low degree first; for m = 1 the modulus is x by convention.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if m < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {m}")
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    for tail in product(range(p), repeat=m):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return FieldSpec(p, m, f)
    raise InternalError(f"no irreducible polynomial of degree {m} over F_{p}")
