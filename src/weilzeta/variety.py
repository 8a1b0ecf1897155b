"""Varieties over prime fields and exact point counting.

A VarietySpec is a list of multivariate polynomials over F_p together with
an affine or projective ambient space and a declared dimension. The parser
builds each polynomial as sparse monomials, tuples of (variable, exponent)
pairs that the counting loop reads as they are, so parsing costs time and
memory in the text and its products (one limit per file), not in the
declared dimension. Lines come from errors.data_lines, which bounds each
number, and int() reads every integer token: a run of decimal digits.
Counting over F_{p^m}, p^m within the budget, runs over
normalized representatives (projective: first nonzero coordinate equal to
1, earlier coordinates zero). Each stratum of them substitutes its fixed
coordinates once; terms without the last free coordinate X_k are evaluated
once per point of the others and terms in X_k alone are tabulated once,
so a point costs one Zech addition. A single polynomial over odd p of
degree <= 2 in some variable X_v is counted one coordinate fewer: the
roots in X_v of a*X_v^2 + b*X_v + c come from the quadratic character.

The inner loop sees F_{p^m} as Zech-logarithm codes, its one
representation of the field: 0 is zero and k+1 is g^k for a fixed
multiplicative generator g. A monomial is a sum of logarithms, and a sum
of two powers of g is one Zech lookup. The log and Zech tables are built
once per field by walking the powers of g as vectors of base-p digits,
O(m deg g) integer operations per power. Only m >= 2 loads ffield, for
the modulus and the generator test in F_p[x]; over F_p itself g is the
smallest primitive root mod p, tested with int pow, so a prime-field
count compiles no F_p[x] code.
"""

from functools import lru_cache
from itertools import product, repeat
from operator import mul

from .errors import (DEFAULT_BUDGET, EnumerationBudgetExceeded, InternalError,
                     InvalidDegree, InvalidInput, InvalidPrime, NotHomogeneous,
                     ParseError, check_int, data_lines, read_text)
from .primes import is_prime


class MultiPoly:
    """Sparse polynomial: (monomial, coefficient) pairs.

    A monomial is a tuple of (v, e) pairs, sorted by v with every e >= 1;
    () is the constant monomial. Terms sort as their exponent vectors
    (e_0, ..., e_{nvars-1}) would.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms  # ((((v, e), ...), c), ...) with 0 < c < p

    def __eq__(self, other):
        if other.__class__ is not MultiPoly:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.terms))

    @classmethod
    def from_dict(cls, nvars, coeffs, p):
        terms = [(mono, c % p) for mono, c in coeffs.items() if c % p]
        terms.sort(key=lambda t: tuple((-v, e) for v, e in t[0]))
        return cls(nvars, tuple(terms))

    def is_zero(self):
        return not self.terms

    def total_degrees(self):
        return sorted({sum(e for _, e in mono) for mono, _ in self.terms})

    def is_homogeneous(self):
        return len(self.total_degrees()) <= 1

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.terms:
            factors = [str(c)] if c != 1 or not mono else []
            for v, e in mono:
                factors.append(f"X{v}" if e == 1 else f"X{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class VarietySpec:
    """Polynomial system over F_p with its ambient space and dimension."""

    __slots__ = ("p", "ambient", "ambient_dim", "vardim", "polys")

    def __init__(self, p, ambient, ambient_dim, vardim, polys):
        self.p = p
        self.ambient = ambient  # "projective" or "affine"
        self.ambient_dim = ambient_dim
        self.vardim = vardim
        self.polys = polys
        if not is_prime(check_int("field characteristic", p)):
            raise InvalidPrime(f"field characteristic {p} is not prime")
        if ambient not in ("projective", "affine"):
            raise ParseError(f"unknown ambient {ambient!r}")
        if check_int("dim", ambient_dim) < 0 or check_int("vardim", vardim) < 0:
            raise ParseError("dim and vardim must be non-negative")
        # a variety has at most the dimension of its ambient space; weil
        # weighs 2 * vardim + 1 weights on every split
        if vardim > ambient_dim:
            raise ParseError(f"vardim {vardim} exceeds dim {ambient_dim}")
        if ambient == "projective":
            for poly in polys:
                if not poly.is_homogeneous():
                    raise NotHomogeneous(
                        f"projective ambient requires homogeneous polynomials, "
                        f"got degrees {poly.total_degrees()} in {poly}")

    @property
    def nvars(self):
        return self.ambient_dim + 1 if self.ambient == "projective" else self.ambient_dim


class PointCountSeries:
    """Counts N_1..N_{m_max} of rational points over F_{q^m}."""

    __slots__ = ("q", "counts")

    def __init__(self, q, counts):
        self.q = q
        self.counts = counts
        if any(c < 0 for c in counts):
            raise InvalidInput("point counts must be non-negative")


# --- expression parser ---

# Term pairs (len(a) * len(b) per product) that one file may expand in all.
# A pair costs 1.0-2.2 us (2 to 5 variables, CPython 3.11, 2-vCPU Xeon VM),
# so a file at the limit parses in at most about 0.55 s; (X0 + X1 + 1)^200,
# or 3,000 lines of (X0 + X1 + 1)^40, would otherwise take 10 s and more.
_MAX_TERM_PAIRS = 1 << 18

# Deepest parenthesis nesting the parser accepts. Each level costs the
# recursive descent four Python frames (expr, term, power, atom), and
# CPython stops at 1000 frames by default; 100 levels leave room for the
# frames of the caller, while no polynomial needs that many.
_MAX_NESTING = 100


def _tokenize(text, line_no, col_offset):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = col_offset + i + 1
        if ch in " \t":
            i += 1
        elif ch in "+-*^()":
            tokens.append((ch, None, col))
            i += 1
        elif ch == "X" or ch.isdecimal():
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if ch != "X":
                tokens.append(("int", int(text[i:j]), col))
            elif j > i + 1:
                tokens.append(("var", int(text[i + 1:j]), col))
            else:
                raise ParseError(f"line {line_no} col {col}: variable X needs an index")
            i = j
        else:
            raise ParseError(f"line {line_no} col {col}: unexpected character {ch!r}")
    tokens.append(("end", None, col_offset + len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive descent over +, -, *, ^ with parentheses.

    One parser per file turns each poly line into a coefficient dict
    {monomial: integer}, monomials as in MultiPoly, and counts the term
    pairs of all the file's products against _MAX_TERM_PAIRS.
    """

    def __init__(self, nvars, p):
        self.nvars = nvars
        self.p = p
        self.pairs = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, col, message):
        raise ParseError(f"line {self.line_no} col {col}: {message}")

    def parse(self, tokens, line_no):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.depth = 0
        result = self.expr()
        kind, _, col = self.peek()
        if kind != "end":
            self.fail(col, f"unexpected token {kind!r}")
        return result

    def expr(self):
        acc = {}
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        while True:
            for mono, c in self.term().items():
                acc[mono] = acc.get(mono, 0) + sign * c
            if self.peek()[0] not in ("+", "-"):
                break
            sign = 1 if self.take()[0] == "+" else -1
        p = self.p
        return {mono: c % p for mono, c in acc.items() if c % p}

    def mul(self, a, b, col):
        """Product of two expansions, refused once the file's pairs pass the limit."""
        self.pairs += len(a) * len(b)
        if self.pairs > _MAX_TERM_PAIRS:
            self.fail(col, f"product of {len(a)} by {len(b)} terms takes this file "
                           f"past {_MAX_TERM_PAIRS} term pairs")
        return _poly_mul(a, b, self.p)

    def term(self):
        # a stack of (product, number of factors in it, column of the '*'
        # before it): the top two merge while they hold equal numbers of
        # factors, as a binary counter, and the rest right to left at the
        # end, so that a chain of n factors rebuilds each monomial O(log n)
        # times and keeps O(log n) partial products alive
        stack = [(self.power(), 1, None)]
        while self.peek()[0] == "*":
            col = self.take()[2]
            stack.append((self.power(), 1, col))
            while len(stack) > 1 and stack[-2][1] == stack[-1][1]:
                self.merge(stack)
        while len(stack) > 1:
            self.merge(stack)
        return stack[0][0]

    def merge(self, stack):
        b, nb, col = stack.pop()
        a, na, left = stack.pop()
        stack.append((self.mul(a, b, col), na + nb, left))

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            col = self.take()[2]
            kind, value, vcol = self.take()
            if kind != "int":
                self.fail(vcol, "exponent must be an integer literal")
            result = {(): 1}
            while value:
                if value & 1:
                    result = self.mul(result, base, col)
                value >>= 1
                if value:
                    base = self.mul(base, base, col)
            return result
        return base

    def atom(self):
        kind, value, col = self.take()
        if kind == "int":
            return {(): value % self.p}
        if kind == "var":
            if value >= self.nvars:
                self.fail(col, f"variable X{value} out of range, expected X0..X{self.nvars - 1}")
            return {((value, 1),): 1}
        if kind == "(":
            if self.depth == _MAX_NESTING:
                self.fail(col, f"parentheses nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            k2, _, col2 = self.take()
            if k2 != ")":
                self.fail(col2, "expected ')'")
            return inner
        self.fail(col, f"unexpected token {kind!r}")


def _poly_mul(a, b, p):
    out = {}
    for ma, ca in a.items():
        exps_a = dict(ma)
        for mb, cb in b.items():
            exps = exps_a.copy()
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c % p for mono, c in out.items() if c % p}


def parse_variety(text, path="<string>"):
    """Parse the variety text format.

    Line 1: ``field p=<prime>``; line 2: ``ambient projective|affine
    dim=<N> vardim=<n>``; remaining lines: ``poly <expression>`` in
    variables X0..X<N> (projective) or X0..X<N-1> (affine). Blank lines
    and lines starting with '#' are ignored, and a number past
    LITERAL_DIGITS digits is a ParseError (errors.data_lines).
    """
    content = list(data_lines(text))
    if len(content) < 2:
        raise ParseError(f"{path}: expected a field line and an ambient line")

    no, field_line = content[0]
    parts = field_line.split()
    if len(parts) != 2 or parts[0] != "field" or not parts[1].startswith("p="):
        raise ParseError(f"line {no}: expected 'field p=<prime>', got {field_line!r}")
    try:
        p = int(parts[1][2:])
    except ValueError:
        raise ParseError(f"line {no}: prime must be an integer, got {parts[1][2:]!r}") from None
    if not is_prime(p):
        raise InvalidPrime(f"line {no}: {p} is not prime")

    no, amb_line = content[1]
    parts = amb_line.split()
    if len(parts) != 4 or parts[0] != "ambient" or parts[1] not in ("projective", "affine"):
        raise ParseError(f"line {no}: expected 'ambient projective|affine dim=<N> vardim=<n>'")
    ambient = parts[1]
    kvs = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ParseError(f"line {no}: expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        kvs[k] = v
    # dim and vardim may arrive in either order on the ambient line
    if "dim" not in kvs or "vardim" not in kvs:
        raise ParseError(f"line {no}: ambient line needs dim=<N> vardim=<n>")
    try:
        ambient_dim = int(kvs["dim"])
        vardim = int(kvs["vardim"])
    except ValueError:
        raise ParseError(f"line {no}: dim and vardim must be integers") from None
    if ambient_dim < 0 or vardim < 0:
        raise ParseError(f"line {no}: dim and vardim must be non-negative")

    nvars = ambient_dim + 1 if ambient == "projective" else ambient_dim
    parser = _ExprParser(nvars, p)
    polys = []
    for no, ln in content[2:]:
        if not ln.startswith("poly"):
            raise ParseError(f"line {no}: expected 'poly <expression>', got {ln!r}")
        expr = ln[4:]
        if not expr.startswith((" ", "\t")):
            raise ParseError(f"line {no}: expected whitespace after 'poly'")
        coeffs = parser.parse(_tokenize(expr, no, len("poly")), no)
        polys.append(MultiPoly.from_dict(nvars, coeffs, p))
    return VarietySpec(p=p, ambient=ambient, ambient_dim=ambient_dim,
                       vardim=vardim, polys=tuple(polys))


def load_variety(path):
    return parse_variety(read_text(path), path=str(path))


# --- Zech-logarithm field arithmetic for the counting loop ---

def make_field(p, m):
    # ffield loads only where a modulus is searched, m >= 2;
    # perfbench/tracer.py times the search by patching this name
    from .ffield import make_field
    return make_field(p, m)


class _IndexedField:
    """Zech-logarithm arithmetic on F_{p^m}.

    Elements are codes: 0 is zero and k+1 is g^k, where g is the
    smallest-index generator of the multiplicative group. The enumeration
    index of an element is the base-p value of its coefficients over the
    modulus f = make_field(p, m), low degree first; F_p itself needs no
    search, its modulus is x. log[i] is the discrete logarithm of the
    element with index i != 0, and zech[k] is the code of 1 + g^k, so
    g^a + g^b = g^a * (1 + g^(b-a)).
    """

    def __init__(self, p, m):
        f = make_field(p, m) if m > 1 else (0, 1)
        self.p = p
        self.q = q = p ** m
        gen = self._find_generator(p, m, f)
        lead, rest = gen[-1], gen[-2::-1]
        low = f[:m]
        weights = [p ** i for i in range(m)]
        log = [0] * q
        # g^k as m base-p digits, low first. Times g is a Horner pass over
        # g's coefficients, high first: each step shifts by x and folds x^m
        # back as -(f_0 + f_1 x + ... + f_{m-1} x^(m-1)); the digits are
        # reduced mod p once per power
        cur = [1] + [0] * (m - 1)
        for k in range(q - 1):
            log[sum(map(mul, cur, weights))] = k
            acc = [lead * d for d in cur]
            for c in rest:
                top = acc[-1]
                acc = [a + c * d - top * fi for a, d, fi in zip([0, *acc], cur, low)]
            cur = [a % p for a in acc]
        zech = [0] * (q - 1)
        for idx in range(1, q):
            # adding 1 changes only the constant digit, the lowest base-p digit
            one_plus = idx - idx % p + (idx + 1) % p
            zech[log[idx]] = log[one_plus] + 1 if one_plus else 0
        self.log = log
        self.zech = zech

    @staticmethod
    def _find_generator(p, m, f):
        """Smallest-index generator of the multiplicative group of
        F_p[x]/(f), as its coefficient tuple low first without leading zeros."""
        order = p ** m - 1
        # prime factors of the group order
        factors = []
        n = order
        d = 2
        while d * d <= n:
            if n % d == 0:
                factors.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            factors.append(n)
        if m > 1:
            from .ffield import _ppowmod
        # for m >= 2 the constants, indices 1..p-1, have order dividing
        # p - 1 < order, so the search starts at x, index p; for m = 1 a
        # candidate is (g,), and its powers are ints mod p
        for idx in range(p if m > 1 else 1, order + 1):
            digits = []
            while idx:
                digits.append(idx % p)
                idx //= p
            cand = tuple(digits)
            if all(_ppowmod(cand, order // r, f, p) != (1,) if m > 1
                   else pow(cand[0], order // r, p) != 1 for r in factors):
                return cand
        raise InternalError("multiplicative group has a generator")


@lru_cache(maxsize=32)
def _indexed_field(p, m):
    return _IndexedField(p, m)


def _ev(terms, pt, zech, qm1):
    """Code of the sum of (log c, ((i, e), ...)) terms at the codes pt."""
    acc = 0
    for t, varpows in terms:
        for i, e in varpows:
            x = pt[i]
            if not x:
                break
            t += e * (x - 1)
        else:
            if acc:
                z = zech[(t - acc + 1) % qm1]
                acc = (acc + z - 2) % qm1 + 1 if z else 0
            else:
                acc = t % qm1 + 1
    return acc


def _plus(xs, ys, zech, qm1):
    """Codes of x + y over zip(xs, ys), one Zech lookup each."""
    return [y if not x else x if not y else (x + z - 2) % qm1 + 1
            if (z := zech[(y - x) % qm1]) else 0 for x, y in zip(xs, ys)]


def _split(terms, fixed, free, field):
    """(mono, c) terms on a stratum: the terms without its last free
    coordinate X_k, the sum of the terms in X_k alone at each code of X_k
    ([0] when nothing is free), and the terms in X_k and others.

    A fixed code (fixed[u]) 0 drops the term, 1 the variable. A free X_u
    becomes its index in free, its exponent taken mod q-1 (a 0 stays: a
    zero coordinate still kills the term)."""
    zech, qm1 = field.zech, field.q - 1
    pos = {u: i for i, u in enumerate(free)}
    outer, table, mixed = [], [0] * (field.q if free else 1), []
    for mono, c in terms:
        if any(fixed.get(u) == 0 for u, _ in mono):
            continue
        t = field.log[c]
        varpows = tuple((pos[u], e % qm1) for u, e in mono if u in pos)
        if not varpows or varpows[-1][0] < len(free) - 1:
            outer.append((t, varpows))
        elif len(varpows) > 1:
            mixed.append((t, varpows))
        else:
            e = varpows[0][1]
            col = [0, *[(t + e * j) % qm1 + 1 for j in range(qm1)]]
            table = _plus(table, col, zech, qm1) if any(table) else col
    return outer, table, mixed


def _values(split, outer, xs, zech, qm1):
    """Codes of a _split polynomial at the points outer + (x,), x in xs."""
    terms, table, mixed = split
    o = _ev(terms, outer, zech, qm1)
    vals = table if len(xs) == len(table) else [table[x] for x in xs]
    if o:
        vals = _plus(repeat(o), vals, zech, qm1) if any(vals) else [o] * len(vals)
    if mixed:
        vals = _plus(vals, [_ev(mixed, (*outer, x), zech, qm1) for x in xs], zech, qm1)
    return vals


def _count_roots(cs, bs, as_, field):
    """Sum over code triples (a, b, c) of the roots in F_q of a*X^2 + b*X + c.

    For a != 0 the root count is 1 + chi(b^2 - 4ac), chi the quadratic
    character, which needs odd q: the code k + 1 of g^k is a square exactly
    when k is even, and -1 is g^((q-1)/2).
    """
    q, zech = field.q, field.zech
    qm1 = q - 1
    log_minus4 = field.log[4 % field.p] + qm1 // 2
    total = 0
    for c, b, a in zip(cs, bs, as_):
        if not a:
            # linear: one root, or none, or every X when it is absent
            total += 1 if b else 0 if c else q
        elif not c:
            # roots 0 and -b/a, which coincide when b = 0
            total += 2 if b else 1
        else:
            # d is the code of b^2 - 4ac divided by the square b^2 (b != 0),
            # or of -4ac itself; t is the log of -4ac
            t = log_minus4 + a + c - 2
            d = zech[(t - 2 * (b - 1)) % qm1] if b else t % qm1 + 1
            # a double root when d = 0, else two roots exactly when d - 1 is even
            total += 1 if not d else 2 if d & 1 else 0
    return total


def _check_degree(m, what):
    """InvalidInput unless m is an int, InvalidDegree unless it is >= 1."""
    if check_int(what, m) < 1:
        raise InvalidDegree(f"{what} must be >= 1")


def _budget_check(v, m, budget):
    """Representatives over F_{p^m}, q^n affine or 1 + q + ... + q^(n-1)
    projective; EnumerationBudgetExceeded once they or q = p^m pass budget.

    The sum grows one coordinate at a time, so that a huge ambient space
    stops after a few steps instead of building a number of millions of
    digits."""
    _check_degree(m, "extension degree")
    check_int("budget", budget)
    q = v.p ** m
    step = 1 if v.ambient == "projective" else 0
    total = 1 - step
    for _ in range(v.nvars):
        total = total * q + step
        if total > budget:
            raise EnumerationBudgetExceeded(
                f"enumerating {v.nvars} coordinates over F_{v.p}^{m} exceeds "
                f"budget {budget} tuples")
    if q > budget:
        # every count is over F_{p^m}, also one that needs no table; q
        # itself may have thousands of digits, so the message names p and m
        raise EnumerationBudgetExceeded(
            f"tables of F_{v.p}^{m} exceed budget {budget} elements")
    return total


def count_points(v, m, budget=DEFAULT_BUDGET):
    """Exact number of F_{p^m} points of v.

    Projective points are counted once via normalized representatives, one
    stratum per position of the leading 1. On each, _split substitutes the
    fixed coordinates and tabulates the terms in the last free coordinate
    alone, so a point costs one Zech addition per polynomial, plus its mixed
    terms; a later polynomial is evaluated only where the earlier ones
    vanish. For one polynomial over odd p of degree <= 2 in some variable,
    the largest such X_v is eliminated wherever it is free: _count_roots
    counts the roots in X_v by the quadratic character.

    The budget bounds the number of representatives of the ambient space,
    q^n or 1 + q + ... + q^(n-1), not the tuples actually visited, and it
    bounds the field size q = p^m of every count, before any early return,
    so that m is at most log_p(budget) for every file.
    """
    total = _budget_check(v, m, budget)
    if v.nvars == 0:
        # the affine ambient of dimension 0 is a single point
        return 1 if all(p.is_zero() for p in v.polys) else 0
    # a zero polynomial vanishes everywhere and imposes nothing
    polys = [p for p in v.polys if not p.is_zero()]
    if not polys:
        return total
    q = v.p ** m
    field = _indexed_field(v.p, m)
    zech, qm1 = field.zech, q - 1
    x = None
    if len(polys) == 1 and v.p != 2:
        # the largest X_x in which the polynomial has degree <= 2
        high = {u for mono, _ in polys[0].terms for u, e in mono if e > 2}
        x = max(set(range(v.nvars)) - high, default=None)
    quad = ([], [], [])  # quad[e]: the terms with X_x^e, X_x removed
    for mono, c in polys[0].terms if x is not None else ():
        quad[dict(mono).get(x, 0)].append((tuple(ve for ve in mono if ve[0] != x), c))
    # a stratum maps its fixed coordinates to codes, 0 for zero and 1 for
    # one: affine, none; projective, the zeros before the leading 1 and it
    strata = [{}] if v.ambient == "affine" else \
        [{**dict.fromkeys(range(lead), 0), lead: 1} for lead in range(v.nvars)]
    count = 0
    for fixed in strata:
        eliminate = x is not None and x not in fixed
        free = [u for u in range(v.nvars) if u not in fixed and not (eliminate and u == x)]
        splits = [_split(terms, fixed, free, field)
                  for terms in (quad if eliminate else [p.terms for p in polys])]
        inner = range(q if free else 1)
        for outer in product(*[range(q)] * (len(free) - 1)):
            if eliminate:
                count += _count_roots(*(_values(s, outer, inner, zech, qm1) for s in splits),
                                      field)
                continue
            zeros = inner
            for s in splits:
                zeros = [k for k, val in zip(zeros, _values(s, outer, zeros, zech, qm1))
                         if not val]
            count += len(zeros)
    return count


def count_series(v, m_max, budget=DEFAULT_BUDGET):
    """PointCountSeries with counts[m-1] = count_points(v, m); every m is
    checked against the budget before any is counted."""
    _check_degree(m_max, "m_max")
    for m in range(1, m_max + 1):
        _budget_check(v, m, budget)
    counts = tuple(count_points(v, m, budget) for m in range(1, m_max + 1))
    return PointCountSeries(q=v.p, counts=counts)


# --- Weierstrass curves as varieties ---

def weierstrass_variety(A, B, p):
    """Projective model Y^2 Z = X^3 + A X Z^2 + B Z^3 as a VarietySpec."""
    text = (f"field p={p}\n"
            f"ambient projective dim=2 vardim=1\n"
            f"poly X1^2*X2 - X0^3 - {A % p}*X0*X2^2 - {B % p}*X2^3\n")
    return parse_variety(text, path="<weierstrass>")
