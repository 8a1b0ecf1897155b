"""Prime tests, polynomials over F_p and the moduli of F_{p^m}.

Polynomials over F_p are int tuples, low degree first, trimmed of zero
leading coefficients. make_field picks the modulus of F_{p^m}: the
lexicographically smallest monic irreducible polynomial of degree m, so
identical inputs always give identical fields. Arithmetic in F_{p^m}
itself lives in the Zech-logarithm tables of variety._IndexedField.
"""

from itertools import product

from .errors import InternalError, InvalidDegree, InvalidPrime

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


def _berlekamp_matrix(f, p):
    """Berlekamp matrix of monic f over F_p, or None when f is not
    square-free mod p.

    The v of degree < deg f with v^p = v mod f form an F_p-space, the
    kernel of this matrix, with one dimension per irreducible factor of a
    square-free f, and each v is a constant mod every factor (Berlekamp
    1967; Knuth, TAOCP vol. 2, 4.6.2). Column i is x^(i p) - x^i mod f.
    """
    if _pgcd(f, _ptrim(tuple(k * f[k] % p for k in range(1, len(f)))), p) != (1,):
        return None
    n = len(f) - 1
    xp = _ppowmod((0, 1), p, f, p)
    cols, power = [], (1,)
    for i in range(n):
        cols.append([(c - (j == i)) % p for j, c in enumerate(power + (0,) * (n - len(power)))])
        power = _pmod(_pmul(power, xp, p), f, p)
    return [list(row) for row in zip(*cols)]


def _berlekamp_nullity(m, p):
    """Dimension of the kernel of m over F_p (the number of irreducible
    factors when m is a Berlekamp matrix), by forward elimination alone.

    m is reduced in place; row operations keep its kernel, so
    _berlekamp_kernel(m, p) still gives the same basis afterwards.
    """
    n = len(m)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        inv = pow(top[col], -1, p)
        for i in range(rank + 1, n):
            c = m[i][col] * inv % p
            if c:
                m[i] = [(a - c * b) % p for a, b in zip(m[i], top)]
        rank += 1
    return n - rank


def _berlekamp_kernel(m, p):
    """Basis of the kernel of the Berlekamp matrix m, read from its reduced
    row echelon form, to which Gauss-Jordan brings m in place."""
    n = len(m)
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
    """Monic irreducible factors of square-free monic f over F_p, given the
    _berlekamp_kernel basis of its Berlekamp matrix.

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
    m = _berlekamp_matrix(f, p)
    return m is not None and _berlekamp_nullity(m, p) == 1


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
    """Modulus of F_{p^m}: the lexicographically smallest monic irreducible
    polynomial of degree m over F_p, as its coefficient tuple low first.

    Coefficient tuples (c_0, ..., c_{m-1}) of candidate moduli are compared
    low degree first; for m = 1 the modulus is x, (0, 1), by convention.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if m < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {m}")
    if m == 1:
        return (0, 1)
    # a zero constant term makes x a factor, so c_0 starts at 1
    for tail in product(range(1, p), *[range(p)] * (m - 1)):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return f
    raise InternalError(f"no irreducible polynomial of degree {m} over F_{p}")
