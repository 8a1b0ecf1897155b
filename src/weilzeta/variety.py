"""Varieties over prime fields and exhaustive point counting.

A VarietySpec is a list of multivariate polynomials over F_p together with
an affine or projective ambient space and a declared dimension. Counting
over F_{p^m} enumerates normalized representatives (projective: first
nonzero coordinate equal to 1, earlier coordinates zero) and evaluates
every polynomial exactly.

The inner loop sees the extension field as Zech-logarithm codes: 0 is
zero and k+1 is g^k for a fixed multiplicative generator g. A monomial is
a sum of logarithms, and a sum of two powers of g is one Zech lookup. The
log and Zech tables are built once per field from O(q) products in the
exact arithmetic of ffield.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (EnumerationBudgetExceeded, InvalidPrime, NotHomogeneous,
                     ParseError, SingularCurve, UnsupportedCharacteristic)
from .ffield import DEFAULT_BUDGET, is_prime, make_field


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial: sorted (exponent vector, coefficient) pairs."""

    nvars: int
    terms: tuple  # ((e_0,...,e_{nvars-1}), c) with 0 < c < p, sorted by exponents

    @classmethod
    def from_dict(cls, nvars, coeffs, p):
        terms = []
        for exps, c in coeffs.items():
            c %= p
            if c:
                terms.append((tuple(exps), c))
        terms.sort()
        return cls(nvars, tuple(terms))

    def is_zero(self):
        return not self.terms

    def total_degrees(self):
        return sorted({sum(e) for e, _ in self.terms})

    def is_homogeneous(self):
        return len(self.total_degrees()) <= 1

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            factors = [str(c)] if c != 1 or not any(exps) else []
            for v, e in enumerate(exps):
                if e == 1:
                    factors.append(f"X{v}")
                elif e > 1:
                    factors.append(f"X{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


@dataclass(frozen=True)
class VarietySpec:
    """Polynomial system over F_p with its ambient space and dimension."""

    p: int
    ambient: str  # "projective" or "affine"
    ambient_dim: int
    vardim: int
    polys: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidPrime(f"field characteristic {self.p} is not prime")
        if self.ambient not in ("projective", "affine"):
            raise ParseError(f"unknown ambient {self.ambient!r}")
        if self.ambient == "projective":
            for poly in self.polys:
                if not poly.is_homogeneous():
                    raise NotHomogeneous(
                        f"projective ambient requires homogeneous polynomials, "
                        f"got degrees {poly.total_degrees()} in {poly}")

    @property
    def nvars(self):
        return self.ambient_dim + 1 if self.ambient == "projective" else self.ambient_dim


@dataclass(frozen=True)
class PointCountSeries:
    """Counts N_1..N_{m_max} of rational points over F_{q^m}."""

    q: int
    counts: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("point counts must be non-negative")


# --- expression parser ---

# Largest product the parser expands, in term pairs (len(a) * len(b)). One
# pair costs 1.0-1.7 us (2 to 5 variables, CPython 3.11, 2-vCPU VM), so a
# product at the limit takes 0.3-0.45 s; larger powers of sums such as
# (X0 + X1 + 1)^200 would otherwise run for tens of seconds and more.
_MAX_TERM_PAIRS = 1 << 18


def _literal(digits, line_no, col):
    """Value of a digit run, or a ParseError.

    str.isdigit admits characters that int() refuses, such as superscripts,
    and int() refuses runs longer than sys.get_int_max_str_digits().
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"line {line_no} col {col}: invalid integer {digits[:20]!r}") from None


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
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", _literal(text[i:j], line_no, col), col))
            i = j
        elif ch == "X":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"line {line_no} col {col}: variable X needs an index")
            tokens.append(("var", _literal(text[i + 1:j], line_no, col), col))
            i = j
        else:
            raise ParseError(f"line {line_no} col {col}: unexpected character {ch!r}")
    tokens.append(("end", None, col_offset + len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive descent over +, -, *, ^ with parentheses.

    Produces a sparse coefficient dict {exponent tuple: integer}.
    """

    def __init__(self, tokens, nvars, p, line_no):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.p = p
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, col, message):
        raise ParseError(f"line {self.line_no} col {col}: {message}")

    def parse(self):
        result = self.expr()
        kind, _, col = self.peek()
        if kind != "end":
            self.fail(col, f"unexpected token {kind!r}")
        return result

    def expr(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            acc = _poly_neg(self.term(), self.p)
        else:
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            if op == "-":
                rhs = _poly_neg(rhs, self.p)
            acc = _poly_add(acc, rhs, self.p)
        return acc

    def mul(self, a, b, col):
        """Product of two expansions, refused when it would be too large."""
        if len(a) * len(b) > _MAX_TERM_PAIRS:
            self.fail(col, f"product of {len(a)} by {len(b)} terms exceeds "
                           f"{_MAX_TERM_PAIRS} term pairs")
        return _poly_mul(a, b, self.p)

    def term(self):
        acc = self.power()
        while self.peek()[0] == "*":
            col = self.take()[2]
            acc = self.mul(acc, self.power(), col)
        return acc

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            col = self.take()[2]
            kind, value, vcol = self.take()
            if kind != "int":
                self.fail(vcol, "exponent must be an integer literal")
            if value < 0:
                self.fail(vcol, "exponent must be non-negative")
            result = {(0,) * self.nvars: 1}
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
            return {(0,) * self.nvars: value % self.p}
        if kind == "var":
            if value >= self.nvars:
                self.fail(col, f"variable X{value} out of range, expected X0..X{self.nvars - 1}")
            exps = [0] * self.nvars
            exps[value] = 1
            return {tuple(exps): 1}
        if kind == "(":
            inner = self.expr()
            k2, _, col2 = self.take()
            if k2 != ")":
                self.fail(col2, "expected ')'")
            return inner
        self.fail(col, f"unexpected token {kind!r}")


def _poly_add(a, b, p):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = (out.get(exps, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def _poly_neg(a, p):
    return {e: (-c) % p for e, c in a.items() if c}


def _poly_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def parse_variety(text, path="<string>"):
    """Parse the variety text format.

    Line 1: ``field p=<prime>``; line 2: ``ambient projective|affine
    dim=<N> vardim=<n>``; remaining lines: ``poly <expression>`` in
    variables X0..X<N> (projective) or X0..X<N-1> (affine). Blank lines
    and lines starting with '#' are ignored.
    """
    lines = [(i + 1, raw) for i, raw in enumerate(text.splitlines())]
    content = [(no, ln.strip()) for no, ln in lines if ln.strip() and not ln.strip().startswith("#")]
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
    polys = []
    for no, ln in content[2:]:
        if not ln.startswith("poly"):
            raise ParseError(f"line {no}: expected 'poly <expression>', got {ln!r}")
        expr = ln[4:]
        if not expr.startswith((" ", "\t")):
            raise ParseError(f"line {no}: expected whitespace after 'poly'")
        tokens = _tokenize(expr, no, len("poly"))
        coeffs = _ExprParser(tokens, nvars, p, no).parse()
        polys.append(MultiPoly.from_dict(nvars, coeffs, p))
    return VarietySpec(p=p, ambient=ambient, ambient_dim=ambient_dim,
                       vardim=vardim, polys=tuple(polys))


def load_variety(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_variety(fh.read(), path=str(path))


# --- Zech-logarithm field arithmetic for the counting loop ---

class _IndexedField:
    """Zech-logarithm arithmetic on F_{p^m}.

    Elements are codes: 0 is zero and k+1 is g^k, where g is the
    smallest-index generator of the multiplicative group. log[i] is the
    discrete logarithm of the element with enumeration index i != 0, and
    zech[k] is the code of 1 + g^k, so g^a + g^b = g^a * (1 + g^(b-a)).
    """

    def __init__(self, p, m):
        spec = make_field(p, m)
        self.spec = spec
        self.q = q = spec.q
        gen = self._find_generator(spec)
        exp = [0] * (q - 1)
        log = [0] * q
        cur = spec.one()
        for k in range(q - 1):
            idx = cur.index()
            exp[k] = idx
            log[idx] = k
            cur = cur * gen
        zech = []
        for idx in exp:
            # adding 1 changes only the constant digit, the lowest base-p digit
            one_plus = idx - idx % p + (idx + 1) % p
            zech.append(log[one_plus] + 1 if one_plus else 0)
        self.log = log
        self.zech = zech

    @staticmethod
    def _find_generator(spec):
        """Smallest-index generator of the multiplicative group."""
        q = spec.q
        order = q - 1
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
        for idx in range(1, q):
            cand = spec.from_index(idx)
            if not cand:
                continue
            if all(cand ** (order // f) != spec.one() for f in factors):
                return cand
        raise AssertionError("multiplicative group has a generator")


@lru_cache(maxsize=32)
def _indexed_field(p, m):
    return _IndexedField(p, m)


def _compile_poly(poly, field):
    """Closure evaluating the polynomial at a tuple of codes; returns a code."""
    qm1 = field.q - 1
    zech = field.zech
    # (log c, ((v, e mod q-1), ...)); a variable whose exponent reduces to 0
    # stays, because a zero coordinate still kills the term
    terms = tuple((field.log[c], tuple((v, e % qm1) for v, e in enumerate(exps) if e))
                  for exps, c in poly.terms)

    def ev(point):
        acc = 0
        for t, varpows in terms:
            for v, e in varpows:
                x = point[v]
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

    return ev


def _projective_reps(nvars, q):
    """Normalized representatives: leading zeros, then 1, then free tail."""
    for lead in range(nvars):
        prefix = (0,) * lead + (1,)
        for tail in product(range(q), repeat=nvars - lead - 1):
            yield prefix + tail


def _rep_count(v, q):
    if v.ambient == "projective":
        return sum(q ** k for k in range(v.nvars))
    return q ** v.nvars


def count_points(v, m, budget=DEFAULT_BUDGET):
    """Exact number of F_{p^m} points of v.

    Projective points are counted once via normalized representatives. The
    number of enumerated tuples (never more than the ambient space size)
    must stay within budget.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    q = v.p ** m
    total = _rep_count(v, q)
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"enumerating {total} tuples exceeds budget {budget}")
    if v.nvars == 0:
        # ambient is a single point (affine) or empty (projective)
        if v.ambient == "affine":
            return 1 if all(p.is_zero() for p in v.polys) else 0
        return 0
    field = _indexed_field(v.p, m)
    evals = [_compile_poly(p, field) for p in v.polys if not p.is_zero()]
    # a zero polynomial vanishes everywhere and imposes nothing
    # coordinates are codes; code 0 is zero and code 1 is one, so
    # (0, ..., 0, 1, tail) are the normalized representatives
    points = _projective_reps(v.nvars, q) if v.ambient == "projective" \
        else product(range(q), repeat=v.nvars)
    if not evals:
        return total
    count = 0
    for pt in points:
        for ev in evals:
            if ev(pt):
                break
        else:
            count += 1
    return count


def count_series(v, m_max, budget=DEFAULT_BUDGET):
    """PointCountSeries with counts[m-1] = count_points(v, m)."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    counts = tuple(count_points(v, m, budget) for m in range(1, m_max + 1))
    return PointCountSeries(q=v.p, counts=counts)


# --- Weierstrass fast path over prime fields ---

@lru_cache(maxsize=128)
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
    if not is_prime(p):
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


def weierstrass_variety(A, B, p):
    """Projective model Y^2 Z = X^3 + A X Z^2 + B Z^3 as a VarietySpec."""
    text = (f"field p={p}\n"
            f"ambient projective dim=2 vardim=1\n"
            f"poly X1^2*X2 - X0^3 - {A % p}*X0*X2^2 - {B % p}*X2^3\n")
    return parse_variety(text, path="<weierstrass>")
