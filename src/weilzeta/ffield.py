"""Polynomials over F_p.

Polynomials over F_p are int tuples, low degree first, trimmed of zero
leading coefficients. _berlekamp is the one entry point of Berlekamp's
algorithm, and its matrix never leaves it: qpoly asks it for the factor
count and the factors of a square-free polynomial mod p. The modulus of
F_{p^m} and its Zech-logarithm tables live in variety, which asks this
module only for _ppowmod, the powers of x modulo a candidate modulus.

Only F_p[x] work loads this module: counts over F_{p^m} with m >= 2 and
qpoly's modular factors. Primality lives in primes, so a count over a
prime field or a cm sweep never compiles it.
"""


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


def _berlekamp(f, p):
    """Berlekamp's algorithm on monic f over F_p: None when f is not
    square-free mod p, else (k, factors) with k the number of irreducible
    factors of f and factors() the list of them, monic.

    The v of degree < deg f with v^p = v mod f form an F_p-space, the
    kernel of the matrix whose column i is x^(i p) - x^i mod f, with one
    dimension per irreducible factor of a square-free f, and each v is a
    constant mod every factor (Berlekamp 1967; Knuth, TAOCP vol. 2, 4.6.2).
    One forward elimination gives k. factors() is deferred, since counting
    alone needs no kernel: it reads the basis off the reduced matrix by
    back-substitution, each free column set to 1 and the others to 0, and
    splits with one vector at a time. gcd(h, v - s) over s in F_p splits h
    by the values v takes on its factors; the basis tells every two factors
    apart, so splitting stops once there are k parts.
    """
    if _pgcd(f, _ptrim(tuple(k * f[k] % p for k in range(1, len(f)))), p) != (1,):
        return None
    n = len(f) - 1
    xp = _ppowmod((0, 1), p, f, p)
    cols, power = [], (1,)
    for i in range(n):
        cols.append([(c - (j == i)) % p for j, c in enumerate(power + (0,) * (n - len(power)))])
        power = _pmod(_pmul(power, xp, p), f, p)
    m = [list(row) for row in zip(*cols)]
    pivots = []  # (column, inverse of the pivot) of rows 0, 1, ...
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        inv = pow(top[col], -1, p)
        for i in range(r + 1, n):
            c = m[i][col] * inv % p
            if c:
                m[i] = [(a - c * b) % p for a, b in zip(m[i], top)]
        pivots.append((col, inv))
    k = n - len(pivots)

    def factors():
        parts = [f]
        pivot_cols = {col for col, _ in pivots}
        upward = list(zip(m, pivots))[::-1]
        for free in range(n):
            if len(parts) == k:
                break
            if free in pivot_cols:
                continue
            v = [0] * n
            v[free] = 1
            for row, (col, inv) in upward:
                v[col] = -sum(a * b for a, b in zip(row[col + 1:], v[col + 1:])) * inv % p
            v = _ptrim(tuple(v))
            split = []
            for h in parts:
                for s in range(p):
                    c = _pgcd(h, _psub(v, (s,), p), p)
                    if 1 < len(c) < len(h):
                        split.append(c)
                        h = _pdivmod(h, c, p)[0]
                split.append(h)
            parts = split
        return parts

    return k, factors


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
