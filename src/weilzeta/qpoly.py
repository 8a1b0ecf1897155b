"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first in plain tuples, so the zero
polynomial is the empty tuple and ``p[k]`` is the coefficient of ``x^k``.
Everything here is exact: entries are ints or Fractions, never floats.
Includes Sturm chains, a bracket of the largest real root of a square-free
input, and factorization of integer polynomials in pure Python: modular
factors come from Berlekamp's algorithm in ``ffield``, and are lifted and
recombined here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from .ffield import (_berlekamp_kernel, _berlekamp_matrix, _berlekamp_nullity, _berlekamp_split,
                     _pmod, _pmul, _ppowmod, is_prime)


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
    dlead = den[-1]
    dd = len(den) - 1
    while len(r) - 1 >= dd and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dd:
            break
        k = len(r) - 1 - dd
        c = r[-1] if dlead == 1 else r[-1] / dlead
        q[k] = c
        r.pop()
        for j, b in enumerate(den[:-1]):
            if b:
                r[k + j] -= c * b
    return trim(q), trim(r)


def _pseudo_rem(a, b):
    """lc(b)^k * (a mod b) for integer a and b and some k >= 0, computed in
    integers: each elimination step first scales the remainder by lc(b)."""
    r = list(a)
    lead, low, db = b[-1], b[:-1], len(b) - 1
    while len(r) - 1 >= db:
        c = r.pop()
        k = len(r) - db
        if lead != 1:
            r = [x * lead for x in r]
        for j, bj in enumerate(low):
            if bj:
                r[k + j] -= c * bj
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def gcd_poly(p, q):
    """Monic gcd over the rationals.

    Euclid runs on primitive integer remainders, which stay far smaller
    than the rational remainders of plain division on inputs of high degree.
    """
    a, b = primitive_int(p), primitive_int(q)
    while b:
        a, b = b, primitive_int(_pseudo_rem(a, b))
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
    times the product of the factor powers. The content carries the sign
    of p's leading coefficient; each factor is a primitive integer tuple
    with positive leading coefficient (the primitive_int convention), low
    first. Factors are sorted by (length, multiplicity, coefficients high
    first), a fixed order that callers' messages rely on when they name
    the first factor that fails a check.

    The classical exact method (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14-16): factor each square-free part modulo a small odd
    prime by Berlekamp's algorithm, Hensel-lift the modular factors past
    twice the Landau-Mignotte bound and recombine them in subsets
    (Zassenhaus).
    """
    p = trim(p)
    if not p:
        return 0, []
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    f = tuple(c // content for c in p)
    factors = []
    j = 0
    while f[j] == 0:
        j += 1
    if j:
        factors.append(((0, 1), j))
        f = f[j:]
    # Yun's square-free decomposition: pass i splits off d, the product of
    # the irreducible factors of multiplicity exactly i
    df = deriv(f)
    c = gcd_poly(f, df)
    w, y = divmod_poly(f, c)[0], divmod_poly(df, c)[0]
    mult = 1
    while len(w) > 1:
        z = sub(y, deriv(w))
        d = gcd_poly(w, z)
        if len(d) > 1:
            factors += [(g, mult) for g in _square_free_factors(primitive_int(d))]
        w, y = divmod_poly(w, d)[0], divmod_poly(z, d)[0]
        mult += 1
    return content, sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))


def _square_free_factors(f):
    """Irreducible factors of a primitive square-free f with f(0) != 0."""
    if len(f) <= 2:
        return [f]
    p, modular = _modular_factors(f)
    if len(modular) == 1:
        return [f]
    # Landau-Mignotte: a factor g of f has |g|_inf <= 2^deg(g) * |f|_2, so
    # lc(f)/lc(g) * g, the candidate recombination builds, is bounded by this
    n = len(f) - 1
    bound = f[-1] * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    return _recombine(f, *_hensel_lift(f, modular, p, 2 * bound))


def _mod(f, m):
    return trim(tuple(c % m for c in f))


def _modular_factors(f):
    """(p, monic irreducible factors of f mod p) for an odd prime p.

    Of the first five odd primes that keep f's degree and leave it
    square-free, p is the one whose Berlekamp space is smallest: the fewest
    factors keep the subsets that recombination tries few. Each prime costs
    one forward elimination for the dimension; only p's space gets a basis
    and is split.
    """
    best = None
    tries = 5
    p = 2
    while tries:
        p += 1
        if not is_prime(p) or f[-1] % p == 0:
            continue
        inv = pow(f[-1], -1, p)
        fp = _mod(tuple(c * inv for c in f), p)
        m = _berlekamp_matrix(fp, p)
        if m is None:
            continue
        k = _berlekamp_nullity(m, p)
        if best is None or k < best[0]:
            best = k, p, fp, m
        if k == 1:
            break
        tries -= 1
    k, p, fp, m = best
    if k == 1:
        return p, [fp]
    return p, _berlekamp_split(fp, _berlekamp_kernel(m, p), p)


def _hensel_lift(f, factors, p, bound):
    """Lift the monic factors of f mod p to monic factors of f / lc(f)
    mod p^l, one power of p at a time, until p^l > bound.

    Returns (lifted factors, p^l). Each step corrects factor g_i by
    p^k * (e * s_i mod g_i), where e is the error of the product at p^k and
    s_i = (prod of the other factors)^-1 mod g_i, an inverse in the field
    F_p[x]/(g_i) taken as a power.
    """
    inverses = []
    for i, g in enumerate(factors):
        others = (1,)
        for j, h in enumerate(factors):
            if j != i:
                others = _pmod(_pmul(others, h, p), g, p)
        inverses.append(_ppowmod(others, p ** (len(g) - 1) - 2, g, p))
    lifted = [list(g) for g in factors]
    pk = p
    while pk <= bound:
        pk1 = pk * p
        inv = pow(f[-1], -1, pk1)
        prod = (1,)
        for g in lifted:
            prod = _pmul(prod, g, pk1)
        err = trim(tuple((c * inv % pk1 - b) // pk % p for c, b in zip(f, prod)))
        for g, s, g0 in zip(lifted, inverses, factors):
            for k, c in enumerate(_pmod(_pmul(err, s, p), g0, p)):
                g[k] += pk * c
        pk = pk1
    return [tuple(g) for g in lifted], pk


def _recombine(f, lifted, pk):
    """True factors from lifted modular factors (Zassenhaus).

    Subsets are tried smallest first. lc(f) times the subset's product,
    in symmetric residues mod pk, is a true factor exactly when it divides
    lc(f) * f; a found factor's modular factors leave the pool. When no
    subset of at most half the pool divides, the rest is one factor.
    """
    factors = []
    s = 1
    while 2 * s <= len(lifted):
        lead = f[-1]
        for subset in combinations(range(len(lifted)), s):
            g = (lead,)
            for i in subset:
                g = _pmul(g, lifted[i], pk)
            g = tuple(c - pk if 2 * c > pk else c for c in g)
            # a true factor's constant term divides lead * f(0)
            if g[0] == 0 or lead * f[0] % g[0]:
                continue
            quo, rem = divmod_poly(scale(f, lead), g)
            if rem:
                continue
            factors.append(primitive_int(g))
            f = primitive_int(quo)
            lifted = [h for i, h in enumerate(lifted) if i not in subset]
            break
        else:
            s += 1
    factors.append(f)
    return factors


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


def _sign_at(p, x):
    """Sign of p(x) for rational coefficients and rational x = a/d.

    It is the sign of the integer L * d^n * p(a/d) = sum of C_i a^i d^(n-i),
    with C_i = L*c_i for L the lcm of the coefficient denominators, taken
    by homogeneous Horner; no gcd is computed.
    """
    L = lcm(*(c.denominator for c in p))
    a, d = x.numerator, x.denominator
    acc = 0
    dpow = 1
    for c in reversed(p):
        acc = acc * a + c.numerator * (L // c.denominator) * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _variations(chain, x):
    signs = []
    for p in chain:
        v = _sign_at(p, x)
        if v:
            signs.append(v)
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
    while k > 1 or _sign_at(p, lo) == 0:
        mid = (lo + hi) / 2
        right = count_roots(p, mid, hi, chain)
        if right:
            lo, k = mid, right
        else:
            hi = mid
    if _sign_at(p, hi) == 0:
        return hi, hi
    return lo, hi


def refine_bracket(p, lo, hi):
    """Halve a sign-change bracket around the single root of p in (lo, hi)."""
    mid = (lo + hi) / 2
    slo = _sign_at(p, lo)
    smid = _sign_at(p, mid)
    if smid == 0:
        # rational root hit exactly; collapse
        return mid, mid
    if (slo < 0) != (smid < 0):
        return lo, mid
    return mid, hi
