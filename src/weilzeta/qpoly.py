"""Dense univariate polynomials over the integers and the rationals.

Coefficients are stored low degree first in plain tuples, so the zero
polynomial is the empty tuple and ``p[k]`` is the coefficient of ``x^k``.
Everything here is exact, never floats, and runs on ints alone: the gcd,
the exact quotient, factorization, Sturm chains and the root bracketing,
whose endpoints are integer numerators over one positive denominator.
Factorization of integer polynomials is pure Python: modular factors come
from Berlekamp's algorithm in ``ffield``, and are lifted and recombined
here.
"""

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


def deriv(p):
    return trim(tuple(k * p[k] for k in range(1, len(p))))


def exact_quo(a, b):
    """a / b for integer polynomials when b divides a over Z, else None.

    By Gauss's lemma a primitive b that divides an integer a over the
    rationals leaves an integral quotient, so for primitive b the answer is
    None exactly when b does not divide a: some step's leading coefficient
    is not a multiple of lc(b), or a remainder is left.
    """
    r = list(trim(a))
    lead, low, db = b[-1], b[:-1], len(b) - 1
    quo = [0] * max(len(r) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, m = divmod(r.pop(), lead)
        if m:
            return None
        quo[k] = c
        if c:
            for j, bj in enumerate(low):
                r[k + j] -= c * bj
    return None if any(r) else tuple(quo)


def _pseudo_rem(a, b):
    """|lc(b)|^k * (a mod b) for integer a and b and some k >= 0, computed in
    integers: each elimination step first scales the remainder by |lc(b)|,
    reducing by -b when lc(b) < 0, so the result is a positive multiple."""
    if b[-1] < 0:
        b = neg(b)
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
    """gcd over the rationals as a primitive integer polynomial with
    positive leading coefficient (the primitive_int convention).

    Euclid runs on primitive integer remainders, which stay far smaller
    than the rational remainders of plain division on inputs of high degree.
    """
    a, b = primitive_int(p), primitive_int(q)
    while b:
        a, b = b, primitive_int(_pseudo_rem(a, b))
    return a


def _content_free(p):
    """p divided by the positive gcd of its integer coefficients."""
    g = gcd(*p)
    return tuple(c // g for c in p) if g > 1 else p


def primitive_int(p):
    """Clear denominators and content; leading coefficient made positive.

    Returns a tuple of ints proportional to p with gcd of entries 1.
    """
    p = trim(p)
    if not p:
        return ()
    den = lcm(*(c.denominator for c in p))
    ints = _content_free(tuple(c.numerator * (den // c.denominator) for c in p))
    return ints if ints[-1] > 0 else neg(ints)


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
    # the irreducible factors of multiplicity exactly i. Each gcd is
    # primitive, so by Gauss's lemma every quotient is integral, and w and
    # y, divided by the same gcds, keep a common scale
    df = deriv(f)
    c = gcd_poly(f, df)
    w, y = exact_quo(f, c), exact_quo(df, c)
    mult = 1
    while len(w) > 1:
        z = sub(y, deriv(w))
        d = gcd_poly(w, z)
        if len(d) > 1:
            factors += [(g, mult) for g in _square_free_factors(d)]
        w, y = exact_quo(w, d), exact_quo(z, d)
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
    return _recombine(f, *_hensel_lift(f, modular, p, 2 * bound), bound)


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


def _recombine(f, lifted, pk, bound):
    """True factors from lifted modular factors (Zassenhaus).

    Subsets are tried smallest first. lc(f) times the subset's product,
    in symmetric residues mod pk, is a true factor exactly when it divides
    lc(f) * f; a found factor's modular factors leave the pool. When no
    subset of at most half the pool divides, the rest is one factor.
    A candidate with a coefficient above the Landau-Mignotte bound of the
    input is no factor of it, nor of the part of it still unfactored, and
    is rejected before any division. The trial itself is an integer
    quotient: a true candidate g has lc(g) = lc(f) and lc(f) * f / g is
    the integer lc(h) * f / h for its primitive part h.
    """
    factors = []
    s = 1
    while 2 * s <= len(lifted):
        lead = f[-1]
        for subset in combinations(range(len(lifted)), s):
            # a true factor's constant term divides lead * f(0); it is
            # tested before the product is built
            g0 = lead
            for i in subset:
                g0 = g0 * lifted[i][0] % pk
            g0 = g0 - pk if 2 * g0 > pk else g0
            if g0 == 0 or lead * f[0] % g0:
                continue
            g = (lead,)
            for i in subset:
                g = _pmul(g, lifted[i], pk)
            g = tuple(c - pk if 2 * c > pk else c for c in g)
            if any(abs(c) > bound for c in g):
                continue
            quo = exact_quo(scale(f, lead), g)
            if quo is None:
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


def ratio_str(a, b):
    """str(Fraction(a, b)) for ints a and b != 0, without building one."""
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    a, b = a // g, b // g
    return str(a) if b == 1 else f"{a}/{b}"


def cauchy_root_bound(p):
    """(B, d): all real roots of p lie in (-B/d, B/d)."""
    p = trim(p)
    if len(p) <= 1:
        return 1, 1
    lead = abs(p[-1])
    return lead + max(abs(c) for c in p[:-1]), lead


def sturm_chain(p):
    """Sturm sequence of an integer polynomial p; expects p square-free for
    exact root counts.

    Members are integer pseudo-remainders over their positive content, so
    each is a positive multiple of the classical member (p, p', then minus
    the remainder of the two before) and gives the same signs.
    """
    p = trim(p)
    chain = [_content_free(p), _content_free(deriv(p))]
    while chain[-1]:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_free(neg(rem)))
    return [c for c in chain if c]


def _sign_at(p, x, d=1):
    """Sign of p(x/d) for integer coefficients, x an int or a rational a/e
    and d a positive int.

    It is the sign of the integer (e*d)^n * p(a/(e*d)) = sum of
    c_i a^i (e*d)^(n-i), taken by homogeneous Horner; no gcd is computed.
    """
    a, d = x.numerator, x.denominator * d
    acc = 0
    dpow = 1
    for c in reversed(p):
        acc = acc * a + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _variations(chain, x, d):
    signs = [v for v in (_sign_at(p, x, d) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(p, lo, hi, chain=None, d=1):
    """Number of distinct real roots of square-free p in (lo/d, hi/d].

    Endpoints are exact rationals over the positive int d; p(lo/d) may be
    zero (the root at lo is then excluded by the half-open convention of
    Sturm's theorem).
    """
    if chain is None:
        chain = sturm_chain(p)
    if lo >= hi:
        return 0
    return _variations(chain, lo, d) - _variations(chain, hi, d)


def largest_real_root(p):
    """Bracket (lo, hi, d) of the largest real root of a square-free
    polynomial, the root in (lo/d, hi/d], or None when it has no real root;
    a multiple root raises ValueError.

    (-B, B] is halved, keeping the upper half while it still holds a root,
    until the bracket holds exactly one root and p(lo/d) != 0. Each halving
    doubles d. Then lo < hi and p changes sign on the bracket, as
    refine_bracket expects, unless the root is hi/d itself: a rational root
    hit exactly, like the root of a degree-one input, comes back as the
    degenerate bracket (r, r, d).
    """
    p = trim(p)
    n = len(p) - 1
    if n <= 0:
        return None
    if n == 1:
        return (-p[0], -p[0], p[1]) if p[1] > 0 else (p[0], p[0], -p[1])
    chain = sturm_chain(p)
    # the chain ends in gcd(p, p'), a constant exactly when p is square-free;
    # at a multiple root the counts go wrong and the bisection would not stop
    if len(chain[-1]) > 1:
        raise ValueError("polynomial must be square-free")
    hi, d = cauchy_root_bound(p)
    lo = -hi
    k = count_roots(p, lo, hi, chain, d)
    if k == 0:
        return None
    while k > 1 or _sign_at(chain[0], lo, d) == 0:
        lo, mid, hi, d = 2 * lo, lo + hi, 2 * hi, 2 * d
        right = count_roots(p, mid, hi, chain, d)
        if right:
            lo, k = mid, right
        else:
            hi = mid
    if _sign_at(chain[0], hi, d) == 0:
        return hi, hi, d
    return lo, hi, d


def refine_bracket(p, lo, hi, d, sign_lo):
    """Halve a sign-change bracket around the single root of p in
    (lo/d, hi/d); returns the half (lo', hi', 2d) that holds it.

    sign_lo is the sign of p at lo/d. Halving keeps it: lo moves only to a
    midpoint of that same sign, so callers compute it once per bracket.
    """
    mid = lo + hi
    smid = _sign_at(p, mid, 2 * d)
    if smid == 0:
        # rational root hit exactly; collapse
        return mid, mid, 2 * d
    if smid != sign_lo:
        return 2 * lo, mid, 2 * d
    return mid, 2 * hi, 2 * d
