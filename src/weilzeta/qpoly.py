"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first in plain tuples, so the zero
polynomial is the empty tuple and ``p[k]`` is the coefficient of ``x^k``.
Everything here is exact: entries are ints or Fractions, never floats.
Includes Sturm chains, a bracket of the largest real root of a square-free
input, and factorization of integer polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def trim(coeffs):
    """Drop trailing zeros so the tuple length reflects the true degree."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    """Degree of p, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim(tuple((p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
                      for k in range(n)))


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def scale(p, c):
    if c == 0:
        return ()
    return tuple(c * a for a in p)


def mul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def eval_at(p, x):
    """Horner evaluation; exact for rational x."""
    acc = 0
    for c in reversed(trim(p)):
        acc = acc * x + c
    return acc


def deriv(p):
    return trim(tuple(k * p[k] for k in range(1, len(p))))


def divmod_poly(num, den):
    """Exact division with remainder over the rationals."""
    num, den = trim(num), trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    r = [Fraction(c) for c in num]
    dlead = Fraction(den[-1])
    dd = len(den) - 1
    while len(r) - 1 >= dd and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dd:
            break
        k = len(r) - 1 - dd
        c = r[-1] / dlead
        q[k] = c
        for j, b in enumerate(den):
            r[k + j] -= c * b
        r.pop()
    return trim(q), trim(r)


def gcd_poly(p, q):
    """Monic gcd over the rationals."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    if not a:
        return ()
    lead = Fraction(a[-1])
    return tuple(Fraction(c) / lead for c in a)


def ext_gcd_poly(p, q):
    """Extended Euclid: returns (g, u, v) with u*p + v*q = g, g monic."""
    a, b = trim(p), trim(q)
    ua, va = (Fraction(1),), ()
    ub, vb = (), (Fraction(1),)
    while b:
        quo, rem = divmod_poly(a, b)
        a, b = b, rem
        ua, ub = ub, sub(ua, mul(quo, ub))
        va, vb = vb, sub(va, mul(quo, vb))
    if not a:
        return (), ua, va
    lead = Fraction(a[-1])
    inv = 1 / lead
    return (tuple(Fraction(c) * inv for c in a),
            tuple(Fraction(c) * inv for c in ua),
            tuple(Fraction(c) * inv for c in va))


def primitive_int(p):
    """Clear denominators and content; leading coefficient made positive.

    Returns a tuple of ints proportional to p with gcd of entries 1.
    """
    p = trim(p)
    if not p:
        return ()
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * den) for c in p]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def factor_int(p):
    """Factor a low-first integer tuple over the integers.

    Returns (content, [(factor, multiplicity)]) with p equal to content
    times the product of the factor powers; each factor is a primitive
    integer tuple with positive leading coefficient (the primitive_int
    convention), low first. This is the only code that knows sympy, and it
    imports it here so that commands which never factor never load it.
    """
    import sympy

    poly = sympy.Poly(list(reversed(trim(p))), sympy.Symbol("t"), domain="ZZ")
    content, factors = poly.factor_list()
    return int(content), [(tuple(int(c) for c in reversed(fac.all_coeffs())), int(mult))
                          for fac, mult in factors]


def reverse(p):
    """Coefficient reversal x^d * p(1/x) for the true degree d."""
    return trim(tuple(reversed(trim(p))))


def compose_linear(p, a):
    """p(a*x) for a scalar a."""
    return trim(tuple(c * a ** k for k, c in enumerate(p)))


def poly_str(p, var="t"):
    """Stable human form, low degree first: '1 - 3*t + 2*t^2'."""
    p = trim(p)
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            term = str(mag)
        elif k == 1:
            term = f"{mag}*{var}" if mag != 1 else var
        else:
            term = f"{mag}*{var}^{k}" if mag != 1 else f"{var}^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def cauchy_root_bound(p):
    """All real roots of p lie in (-B, B) for the returned B."""
    p = trim(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = Fraction(p[-1])
    return 1 + max(abs(Fraction(c) / lead) for c in p[:-1])


def sturm_chain(p):
    """Sturm sequence of p; expects p square-free for exact root counts."""
    p = trim(p)
    chain = [p, deriv(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return [c for c in chain if c]


def _variations(chain, x):
    signs = []
    for p in chain:
        v = eval_at(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def count_roots(p, lo, hi, chain=None):
    """Number of distinct real roots of square-free p in (lo, hi].

    Endpoints are exact rationals; p(lo) may be zero (the root at lo is
    then excluded by the half-open convention of Sturm's theorem).
    """
    if chain is None:
        chain = sturm_chain(p)
    if lo >= hi:
        return 0
    return _variations(chain, lo) - _variations(chain, hi)


def largest_real_root(p):
    """Bracket (lo, hi) of the largest real root of a square-free polynomial,
    or None when it has no real root; a multiple root raises ValueError.

    (-B, B] is halved, keeping the upper half while it still holds a root,
    until (lo, hi] holds exactly one root and p(lo) != 0. Then lo < hi and
    p changes sign on the bracket, as refine_bracket expects, unless the
    root is hi itself: a rational root hit exactly, like the root of a
    degree-one input, comes back as the degenerate bracket (r, r).
    """
    p = trim(p)
    d = len(p) - 1
    if d <= 0:
        return None
    if d == 1:
        r = -Fraction(p[0], 1) / Fraction(p[1], 1)
        return r, r
    chain = sturm_chain(p)
    # the chain ends in gcd(p, p'), a constant exactly when p is square-free;
    # at a multiple root the counts go wrong and the bisection would not stop
    if len(chain[-1]) > 1:
        raise ValueError("polynomial must be square-free")
    hi = cauchy_root_bound(p)
    lo = -hi
    k = count_roots(p, lo, hi, chain)
    if k == 0:
        return None
    while k > 1 or eval_at(p, lo) == 0:
        mid = (lo + hi) / 2
        right = count_roots(p, mid, hi, chain)
        if right:
            lo, k = mid, right
        else:
            hi = mid
    if eval_at(p, hi) == 0:
        return hi, hi
    return lo, hi


def refine_bracket(p, lo, hi):
    """Halve a sign-change bracket around the single root of p in (lo, hi)."""
    mid = (lo + hi) / 2
    flo = eval_at(p, lo)
    fmid = eval_at(p, mid)
    if fmid == 0:
        # rational root hit exactly; collapse
        return mid, mid
    if (flo < 0) != (fmid < 0):
        return lo, mid
    return mid, hi
