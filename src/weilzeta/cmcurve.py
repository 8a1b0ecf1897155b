"""Frobenius data for elliptic curves and the d=1 Grossencharacter.

For y^2 = x^3 + Ax + B over F_p the Frobenius trace a = p + 1 - |E(F_p)|
determines the eigenvalue pair as roots of lambda^2 - a*lambda + q, stored
exactly as the integers a and q with the discriminant a^2 - 4q. For
the curve y^2 = x^3 - x, which has complex multiplication by the Gaussian
integers, the trace is also computable without counting points: write
p = a^2 + b^2 with a odd and a + b = 1 (mod 4), then the trace is 2a.
Both routes are kept separate so one can cross-check the other.
"""

from math import isqrt

from .errors import (HasseViolation, InternalError, InvalidInput, InvalidPrime,
                     SingularCurve, UnsupportedCharacteristic, check_int)
from .primes import is_prime


class GaussianInt:
    """Element re + im*i of Z[i]."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __eq__(self, other):
        if other.__class__ is not GaussianInt:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianInt(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def trace(self):
        return 2 * self.re

    def __str__(self):
        if self.im >= 0:
            return f"{self.re} + {self.im}i"
        return f"{self.re} - {-self.im}i"


class FrobeniusData:
    """Eigenvalue pair (a +- sqrt(disc)) / 2 of lambda^2 - a*lambda + q,
    with disc = a^2 - 4q; it sums to a and multiplies to q.
    """

    __slots__ = ("a", "q", "disc")

    def __init__(self, a, q):
        self.a = check_int("a", a)
        self.q = check_int("q", q)
        self.disc = a * a - 4 * q

    def power_sum(self, m):
        """s_m = lambda1^m + lambda2^m by the integer recurrence."""
        if check_int("m", m) < 0:
            raise InvalidInput("power sum index must be non-negative")
        s_prev, s_cur = 2, self.a
        if m == 0:
            return 2
        for _ in range(m - 1):
            s_prev, s_cur = s_cur, self.a * s_cur - self.q * s_prev
        return s_cur

    def extension_count(self, m):
        """N_m = q^m + 1 - (lambda1^m + lambda2^m)."""
        return self.q ** m + 1 - self.power_sum(m)

    def eigenvalue_str(self):
        """'a/2 +- 1/2*sqrt(|disc|)', with i*sqrt when disc < 0 and a/2 in
        lowest terms."""
        rat = str(self.a // 2) if self.a % 2 == 0 else f"{self.a}/2"
        if self.disc == 0:
            return f"{rat} (double)"
        unit = f"sqrt({abs(self.disc)})" if self.disc > 0 else f"i*sqrt({abs(self.disc)})"
        return f"{rat} +- 1/2*{unit}"


def _square_classes(p):
    """chi[v] for the quadratic character on F_p, chi(0) = 0."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2 + 1):
        chi[x * x % p] = 1
    return tuple(chi)


def ec_count(A, B, p):
    """|E(F_p)| for y^2 = x^3 + Ax + B, point at infinity included.

    Computed as p + 1 + sum over x of chi(x^3 + Ax + B) with chi the
    quadratic character.
    """
    check_int("A", A)
    check_int("B", B)
    if not is_prime(check_int("p", p)):
        raise InvalidPrime(f"{p} is not prime")
    if p <= 3:
        raise UnsupportedCharacteristic("short Weierstrass form needs p > 3")
    A %= p
    B %= p
    if (4 * A * A * A + 27 * B * B) % p == 0:
        raise SingularCurve(f"discriminant vanishes mod {p} for A={A}, B={B}")
    chi = _square_classes(p)
    total = p + 1
    for x in range(p):
        total += chi[(x * x * x + A * x + B) % p]
    return total


def frobenius_trace(A, B, p):
    """a = p + 1 - |E(F_p)| for y^2 = x^3 + Ax + B."""
    return p + 1 - ec_count(A, B, p)


def frobenius_eigenvalues(a, q):
    """Roots of lambda^2 - a*lambda + q as exact FrobeniusData."""
    return FrobeniusData(a=a, q=q)


def cornacchia_two_squares(p):
    """Deterministic (x, y) with x^2 + y^2 = p for a prime p = 1 mod 4.

    Finds a square root r of -1 mod p from the smallest quadratic
    non-residue, then runs the descending Euclid step until the remainder
    drops below sqrt(p).
    """
    if not is_prime(check_int("p", p)):
        raise InvalidPrime(f"{p} is not prime")
    if p % 4 != 1:
        raise InvalidInput(f"{p} is not 1 mod 4")
    r = None
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            r = pow(n, (p - 1) // 4, p)
            break
    if r is None or (r * r + 1) % p != 0:
        raise InternalError(f"no square root of -1 mod {p}")
    a, b = p, r
    bound = isqrt(p)
    while b > bound:
        a, b = b, a % b
    y2 = p - b * b
    y = isqrt(y2)
    if y * y != y2:
        raise InternalError(f"Cornacchia failed for {p}")
    return b, y


def grossencharacter_psi(p):
    """Primary Gaussian prime a + bi over p for y^2 = x^3 - x.

    Normalization: a odd, b even, b > 0, a + b = 1 (mod 4). The value 0
    (not a unit times a prime) is returned for the supersingular primes
    p = 3 (mod 4), where the trace vanishes.
    """
    if not is_prime(check_int("p", p)) or p <= 3:
        raise InvalidPrime(f"need a prime p > 3, got {p}")
    if p % 4 == 3:
        return GaussianInt(0, 0)
    x, y = cornacchia_two_squares(p)
    a, b = (x, y) if x % 2 == 1 else (y, x)
    b = abs(b)
    if (a + b) % 4 != 1:
        a = -a
    if (a + b) % 4 != 1:
        raise InternalError(f"primary normalization failed for {p}")
    return GaussianInt(a, b)


def grossencharacter_trace_d1(p):
    """psi + psibar for y^2 = x^3 - x: 0 for p = 3 mod 4, else 2a."""
    return grossencharacter_psi(p).trace()


def count_via_character(a, q):
    """|E(F_q)| = 1 - a + q from the trace, guarded by the Hasse bound."""
    check_int("a", a)
    if check_int("q", q) < 1:
        raise HasseViolation(f"Hasse bound needs q >= 1, got q={q}")
    if a * a > 4 * q:
        raise HasseViolation(f"|a| = {abs(a)} exceeds 2*sqrt({q})")
    return 1 - a + q
