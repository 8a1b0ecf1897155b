"""Zeta functions of varieties over finite fields.

The pipeline starts from exact point counts N_1..N_M, forms the truncated
series exp(sum N_m t^m / m), reconstructs a rational function by Pade
approximation with re-expansion verification, and then checks the
classical properties one by one: integrality of coefficients, the
functional equation as an exact polynomial identity, the splitting of
factors by root modulus into weights, the root-modulus bound, and the
comparison of factor degrees against expected Betti numbers.

From the counts of a variety to the verdict every exact step runs on
ints: the series of a variety's counts is integral, and the Pade solve,
the gcd and the exact quotients keep it so. Other data is InvalidInput,
and counts whose series is not integral raise NotIntegral. Floats appear
only where unavoidable: assigning weights from root moduli and measuring
modulus deviations. Roots are seeded by Aberth-Ehrlich iteration in
doubles and polished by Newton steps on Python ints to far beyond double
precision, then rounded to the nearest doubles; a relative residual below
1e-10 is a sanity check on each root, not an error bound, since clustered
roots defeat it.
"""

from math import cos, frexp, isfinite, isqrt, ldexp, log, pi, sin
from time import perf_counter

from . import qpoly
from .errors import (DimensionMismatch, EmptySeries, FunctionalEquationViolated,
                     InsufficientPrecision, InternalError, InvalidInput,
                     MathCheckError, MixedWeightFactor, NoRationalFit,
                     NotIntegral, NotNormalized, WeightOutOfRange, WeilZetaError,
                     check_int, check_ints)
from .qlinalg import echelon

# Fixed, not settable: roots of a zeta function sit on their circles to
# about 1e-16 in double precision, and the weil report prints both values.
RH_TOL = 1e-9
WEIGHT_TOL = 0.25


class PowerSeriesQ:
    """Truncated power series with integer coefficients c_0..c_M."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs


class RationalFunctionQ:
    """num/den with integer coefficients, num(0) = den(0) = 1, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not RationalFunctionQ:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return f"({qpoly.poly_str(self.num)}) / ({qpoly.poly_str(self.den)})"


class WeilFactorization:
    """Weight decomposition of a zeta function.

    factors holds (i, P_i) for every i in 0..2n, trivial factors included
    as the constant 1. sign is None until the functional equation has been
    checked (and stays None when n*chi is odd, where only the squared
    identity is rational). misplaced records irreducible factors whose
    weight parity contradicts the side they came from; they are excluded
    from the P_i.
    """

    __slots__ = ("q", "n", "factors", "chi", "sign", "misplaced")

    def __init__(self, q, n, factors, chi, sign=None, misplaced=()):
        self.q = q
        self.n = n
        self.factors = factors
        self.chi = chi
        self.sign = sign
        self.misplaced = misplaced
        if len(factors) != 2 * n + 1:
            raise InternalError("factorization must list every weight 0..2n")
        for i, poly in factors:
            coeffs = qpoly.trim(poly)
            if coeffs and coeffs[0] != 1:
                raise NotNormalized(f"P_{i} must have constant term 1")
        lead = dict(factors)
        if lead[0] not in ((1,), (1, -1)):
            raise WeightOutOfRange(
                f"weight-0 factor must be 1 - t, got {qpoly.poly_str(lead[0])}")
        top = 2 * n
        if lead[top] not in ((1,), (1, -q ** n)):
            raise WeightOutOfRange(
                f"weight-{top} factor must be 1 - {q ** n}*t, "
                f"got {qpoly.poly_str(lead[top])}")
        total = sum((-1) ** i * qpoly.degree(p) for i, p in factors)
        if total != chi:
            raise InternalError("chi does not match factor degrees")

    def _key(self):
        return self.q, self.n, self.factors, self.chi, self.sign, self.misplaced

    def __eq__(self, other):
        if other.__class__ is not WeilFactorization:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def parity_ok(self):
        """True when no factor was misplaced."""
        return not self.misplaced

    def factor(self, i):
        return dict(self.factors)[i]


def _as_counts(counts):
    if hasattr(counts, "counts"):
        return tuple(counts.counts)
    return tuple(counts)


def zeta_series(counts):
    """exp(sum N_m t^m / m) truncated at order m_max, exactly.

    Uses the recurrence k*c_k = sum_{m=1}^{k} N_m c_{k-m} that the series
    satisfies term by term (differentiate the exponential). Counts must be
    ints. The series of a variety's counts is integral (an Euler product of
    geometric series), so every division is exact; the first that is not
    raises NotIntegral.
    """
    n_list = check_ints("point counts", _as_counts(counts))
    if not n_list:
        raise EmptySeries("need at least one point count")
    cs = [1]
    for k in range(1, len(n_list) + 1):
        acc = sum(n_list[m] * cs[k - 1 - m] for m in range(k))
        if acc % k:
            raise NotIntegral(
                f"series coefficient c_{k} = {qpoly.ratio_str(acc, k)} is not an integer")
        cs.append(acc // k)
    return PowerSeriesQ(coeffs=tuple(cs))


def _series_div(num, den, order):
    """Coefficients c_0..c_order of the power series num/den.

    Needs den(0) = 1; then c_k = num_k - sum_{j>=1} den_j * c_{k-j}
    (Knuth, TAOCP vol. 2, 4.7).
    """
    if not den or den[0] != 1:
        raise NotNormalized("series inverse needs constant term 1")
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


def rational_function(num, den):
    """Normalize to the canonical form and validate integrality.

    Scales so den(0) = 1, cancels the polynomial gcd, and clears to
    integer coefficients; non-integer results after normalization signal
    that the input is not a zeta function of the expected shape.

    Takes and works on ints: the primitive gcd leaves integral quotients
    (Gauss's lemma), and the scaling by den(0) is a test of divisibility.
    """
    num = qpoly.trim(check_ints("coefficients", num))
    den = qpoly.trim(check_ints("coefficients", den))
    if not den or den[0] == 0:
        raise NotNormalized("denominator must have nonzero constant term")
    if not num:
        raise NotNormalized("zero is not a valid zeta function")
    g = qpoly.gcd_poly(num, den)
    if len(g) > 1:
        num, den = qpoly.exact_quo(num, g), qpoly.exact_quo(den, g)
    scale = den[0]
    if num[0] != scale:
        raise NotIntegral(f"numerator constant term {qpoly.ratio_str(num[0], scale)} != 1")
    for c in num + den:
        if c % scale:
            raise NotIntegral(
                f"non-integer coefficient {qpoly.ratio_str(c, scale)} after normalization")
    return RationalFunctionQ(num=tuple(c // scale for c in num),
                             den=tuple(c // scale for c in den))


def pade_reconstruct(s, num_deg, den_deg):
    """Rational function matching the series through order num_deg+den_deg.

    Solves the linear system for the denominator, reads off the numerator,
    then verifies den * s = num at every available order. With den(0) = 1,
    the first order where that fails is the first where num/den re-expanded
    as a power series differs from the series.

    Takes and works on ints: the system goes to qlinalg.echelon as integer
    rows; every pivot row there ends in the same last pivot d, so the
    solution (free unknowns zero) over d is an integer den with den(0) = d.
    """
    check_int("num_deg", num_deg)
    check_int("den_deg", den_deg)
    if num_deg < 0 or den_deg < 0:
        raise InvalidInput("num_deg and den_deg must be non-negative")
    coeffs = check_ints("series coefficients", s.coeffs if isinstance(s, PowerSeriesQ) else s)
    order = len(coeffs) - 1
    if order < num_deg + den_deg:
        raise InsufficientPrecision(
            f"series order {order} < num_deg + den_deg = {num_deg + den_deg}")

    def c(k):
        return coeffs[k] if k >= 0 else 0

    den = [1] + [0] * den_deg
    if den_deg:
        rows = [[c(k - j) for j in range(1, den_deg + 1)] + [-c(k)]
                for k in range(num_deg + 1, num_deg + den_deg + 1)]
        M, pivots, _ = echelon(rows, den_deg)
        if any(row[den_deg] for row in M[len(pivots):]):
            raise NoRationalFit("no denominator matches the series")
        if pivots:
            den[0] = M[0][pivots[0]]
        for row, col in zip(M, pivots):
            den[col + 1] = row[den_deg]

    def prod(k):  # coefficient k of den * s
        return sum(den[j] * c(k - j) for j in range(min(k, den_deg) + 1))

    for k in range(num_deg + 1, order + 1):
        if prod(k):
            raise NoRationalFit(
                f"re-expansion differs from the series at order {k}")
    return rational_function([prod(k) for k in range(num_deg + 1)], den)


def curve_numerator(counts, g, mode="full"):
    """Degree-2g numerator of a genus-g curve zeta function.

    With power sums s_m = q^m + 1 - N_m the numerator is exp(-sum s_m t^m / m),
    the zeta series of the counts N_m - q^m - 1. Full mode consumes 2g
    counts and verifies the coefficient symmetry a_{2g-k} = q^{g-k} a_k
    afterwards; symmetric mode consumes g counts and uses the symmetry to
    fill the upper half.
    """
    if mode not in ("full", "symmetric"):
        raise InvalidInput(f"unknown mode {mode!r}")
    check_int("genus", g)
    if g < 0:
        raise InvalidInput("genus must be non-negative")
    if g == 0:
        return (1,)
    q = counts.q
    n_list = _as_counts(counts)
    need = 2 * g if mode == "full" else g
    if len(n_list) < need:
        raise InsufficientPrecision(
            f"{mode} mode needs {need} counts, got {len(n_list)}")
    a = list(zeta_series([n_list[m - 1] - q ** m - 1 for m in range(1, need + 1)]).coeffs)
    if mode == "symmetric":
        a += [0] * g
        for k in range(g + 1, 2 * g + 1):
            a[k] = q ** (k - g) * a[2 * g - k]
    else:
        for k in range(g + 1):
            if a[2 * g - k] != q ** (g - k) * a[k]:
                raise FunctionalEquationViolated(
                    f"coefficient symmetry fails at k={k}: "
                    f"a_{2 * g - k} = {a[2 * g - k]} but q^{g - k} * a_{k} "
                    f"= {q ** (g - k) * a[k]}")
    return tuple(a)


def functional_equation_check(z, q, n, chi):
    """Exact check of Z(1/(q^n t)) = sign * q^{n*chi/2} * t^chi * Z(t).

    Cross-multiplied, the identity says q^{n*chi/2} * rev_num(q^n t) * den(t)
    equals sign * num(t) * rev_den(q^n t). When n*chi is even both sides
    are integer polynomials and the sign is read off; when odd, the squared
    identity is verified and the sign stays undetermined (None). A negative
    power of q moves to the other side, so the residuals are integral too.
    """
    check_int("q", q)
    check_int("n", n)
    check_int("chi", chi)
    num, den = check_ints("coefficients", z.num), check_ints("coefficients", z.den)
    qn = q ** n
    lhs = qpoly.mul(qpoly.compose_linear(qpoly.reverse(num), qn), den)
    rhs = qpoly.mul(num, qpoly.compose_linear(qpoly.reverse(den), qn))
    e = n * chi
    if e % 2 == 0:
        lhs, rhs = _times_q_power(lhs, rhs, q, e // 2)
        res_plus = qpoly.sub(lhs, rhs)
        if not res_plus:
            return 1
        res_minus = qpoly.add(lhs, rhs)
        if not res_minus:
            return -1
        raise FunctionalEquationViolated(
            f"functional equation fails for chi={chi}, n={n}, q={q}",
            residual_plus=res_plus, residual_minus=res_minus)
    sq = qpoly.sub(*_times_q_power(qpoly.mul(lhs, lhs), qpoly.mul(rhs, rhs), q, e))
    if not sq:
        return None
    raise FunctionalEquationViolated(
        f"squared functional equation fails for odd n*chi = {e}",
        residual_plus=sq, residual_minus=None)


def _times_q_power(lhs, rhs, q, k):
    """q^k * lhs and rhs, both multiplied by q^-k when k < 0."""
    if k >= 0:
        return qpoly.scale(lhs, q ** k), rhs
    return lhs, qpoly.scale(rhs, q ** -k)


# Bits of each polished root relative to its modulus, in the first pass
# and in the one escalation. Far more than a double's 53: rounding the
# polished root gives the doubles nearest the true root unless a part lies
# within about 2^-250 of its size from a midpoint between two doubles.
ROOT_BITS = (256, 512)
# Cap on the Aberth sweeps and on the Newton steps of each root.
MAX_STEPS = 64


def _ldexp_int(c, e):
    """c * 2**e as a double (c's top 64 bits), for an int c of any size."""
    s = max(c.bit_length() - 64, 0)
    return ldexp(c >> s, s + e)


def _aberth_seeds(a):
    """Approximate roots of a (ints, low first, degree >= 2) in doubles.

    Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27, 1973; D. A. Bini,
    Numer. Algorithms 13, 1996) on the polynomial in x = t / 2**k, where
    2**k is near the geometric mean |a_0/a_n|^(1/n) of the root moduli and
    the coefficients are scaled to at most 1, so inputs whose coefficients
    or roots overflow a double still get seeds. Returns k and the x_i.
    """
    n = len(a) - 1
    k = round((a[0].bit_length() - a[n].bit_length()) / n)
    top = max(c.bit_length() + k * j for j, c in enumerate(a))
    b = [_ldexp_int(c, k * j - top) for j, c in enumerate(a)]
    if not (b[0] and b[n]):
        raise InternalError(
            f"a root of {qpoly.poly_str(a)} lies outside the range of doubles")
    xs = [complex(cos(th), sin(th)) for th in (2 * pi * i / n + 0.4 for i in range(n))]
    try:
        for _ in range(MAX_STEPS):
            moved = False
            for i, x in enumerate(xs):
                p = dp = 0j
                for c in reversed(b):
                    dp = dp * x + p
                    p = p * x + c
                try:
                    ratio = p / dp
                    w = ratio / (1 - ratio * sum(1 / (x - y) for j, y in enumerate(xs) if j != i))
                except ZeroDivisionError:
                    continue
                xs[i] = x - w
                moved = moved or abs(w) > 2 ** -50 * abs(x)
            if not moved:
                break
    except OverflowError:  # abs() of a diverging complex; _polish rejects it
        pass
    return k, xs


def _polish(a, x, k, bits):
    """Newton-polish the seed x * 2**k to `bits` bits relative to its size.

    The root is Z / D with Z = X + iY Gaussian and D = 2**f, f >= 0 chosen
    so |Z| is about 2**bits or more. With Horner on homogenized coefficients,
    P = D**n p(Z/D) and P' = D**(n-1) p'(Z/D) are exact Gaussian integers,
    and the Newton step is Z -= P / P', rounded. Polishing stops at the
    first step of at most one unit and returns the Z it started from, with
    D and the relative residual check |P| <= 1e-10 * sum |a_j| |Z|^j
    D^(n-j) made in integers; None when it does not converge or the
    residual is larger.
    """
    if not (isfinite(x.real) and isfinite(x.imag)):
        return None
    n = len(a) - 1
    f = max(bits - (frexp(max(abs(x.real), abs(x.imag)))[1] + k), 0)
    hom = [c << (f * (n - j)) for j, c in enumerate(a)]
    zx, zy = _round_scaled(x.real, f + k), _round_scaled(x.imag, f + k)
    for _ in range(MAX_STEPS):
        px, py, qx, qy = a[n], 0, 0, 0
        for c in reversed(hom[:n]):
            qx, qy = qx * zx - qy * zy + px, qx * zy + qy * zx + py
            px, py = px * zx - py * zy + c, px * zy + py * zx
        den = qx * qx + qy * qy
        if not den:
            return None
        dx = (2 * (px * qx + py * qy) + den) // (2 * den)
        dy = (2 * (py * qx - px * qy) + den) // (2 * den)
        if abs(dx) <= 1 and abs(dy) <= 1:
            r = isqrt(zx * zx + zy * zy)
            size = 0
            for c in reversed(hom):
                size = size * r + abs(c)
            if 10 ** 20 * (px * px + py * py) > size * size:
                return None
            return zx, zy, 1 << f
        zx, zy = zx - dx, zy - dy
    return None


def _round_scaled(x, e):
    """round(x * 2**e) for a double x, exact, ties to even as round() does."""
    a, b = x.as_integer_ratio()
    if e >= 0:
        a <<= e
    else:
        b <<= -e
    quo, rem = divmod(a, b)
    if 2 * rem > b or (2 * rem == b and quo % 2):
        quo += 1
    return quo


def _distinct(roots, bits):
    """True when no two roots (X, Y, D) agree to bits/2 bits of their size."""
    top = max(d for _, _, d in roots)
    zs = [(x * (top // d), y * (top // d)) for x, y, d in roots]
    for i, (xi, yi) in enumerate(zs):
        for xj, yj in zs[:i]:
            size = max(xi * xi + yi * yi, xj * xj + yj * yj)
            if ((xi - xj) ** 2 + (yi - yj) ** 2) << bits <= size:
                return False
    return True


def _numeric_roots(coeffs):
    """All complex roots of an integer polynomial, each the nearest doubles.

    Degree 1 is exact: -a_0/a_1, rounded once. Higher degrees take seeds
    from Aberth-Ehrlich iteration in complex doubles and polish each by
    Newton steps on Gaussian integers (see _polish) to ROOT_BITS relative
    bits, so rounding each part with int / int, which Python rounds
    correctly, gives the doubles nearest the true root. Each root must pass
    the relative residual check |P(rho)| / sum |a_j||rho|^j <= 1e-10 and
    the roots must be distinct; the precision escalates once before
    InternalError. The residual is a sanity check, not an error bound:
    clustered roots defeat it. A root whose modulus leaves the range of
    doubles raises InternalError too, so no root rounds to 0 or infinity.
    """
    a = qpoly.trim(coeffs)
    n = len(a) - 1
    if n < 1:
        return []
    if n == 1:
        roots = [(-a[0], 0, a[1])]
    else:
        k, seeds = _aberth_seeds(a)
        for bits in ROOT_BITS:
            roots = [_polish(a, x, k, bits) for x in seeds]
            if None not in roots and _distinct(roots, bits):
                break
        else:
            raise InternalError(
                f"root finding failed the residual or distinctness check for "
                f"{qpoly.poly_str(coeffs)}")
    out = []
    for x, y, d in roots:
        size = (x * x + y * y).bit_length() // 2 - d.bit_length()
        if not (x or y) or not -1000 < size < 1000:
            raise InternalError(
                f"a root of {qpoly.poly_str(coeffs)} lies outside the range of doubles")
        out.append(complex(x / d, y / d))
    return out


def weight_split(z, q, n):
    """Group irreducible factors of num and den by root-modulus weight.

    Each factor's roots give weights -2*log_q|rho|; roots of one
    irreducible factor must agree within WEIGHT_TOL, and the rounded common
    value must land in 0..2n. Odd weights are expected from the numerator and
    even weights from the denominator; factors on the wrong side are
    reported as misplaced rather than merged, clearing parity_ok.
    """
    check_int("q", q)
    check_int("n", n)
    if q < 2:
        raise InvalidInput("q must be at least 2")
    if n < 0:
        raise InvalidInput("dimension must be non-negative")
    num, den = check_ints("coefficients", z.num), check_ints("coefficients", z.den)
    buckets = {i: (1,) for i in range(2 * n + 1)}
    misplaced = []
    for side, poly in (("num", num), ("den", den)):
        for fac, mult in qpoly.factor_int(poly)[1]:
            if fac[0] == -1:
                fac = qpoly.neg(fac)
            elif fac[0] != 1:
                raise NotNormalized(
                    f"irreducible factor {qpoly.poly_str(fac)} has constant term {fac[0]}")
            weights = [-2 * log(abs(rho)) / log(q) for rho in _numeric_roots(fac)]
            if max(weights) - min(weights) > WEIGHT_TOL:
                raise MixedWeightFactor(
                    f"roots of {qpoly.poly_str(fac)} span weights "
                    f"{min(weights):.4f}..{max(weights):.4f}")
            i = round(sum(weights) / len(weights))
            if not 0 <= i <= 2 * n:
                raise WeightOutOfRange(
                    f"factor {qpoly.poly_str(fac)} has weight {i} outside 0..{2 * n}")
            expected_side = "num" if i % 2 else "den"
            block = fac
            for _ in range(mult - 1):
                block = qpoly.mul(block, fac)
            if side != expected_side:
                misplaced.append((i, side, block))
                continue
            buckets[i] = qpoly.mul(buckets[i], block)
    chi = sum((-1) ** i * qpoly.degree(p) for i, p in buckets.items())
    return WeilFactorization(
        q=q, n=n,
        factors=tuple(sorted(buckets.items())),
        chi=chi, sign=None,
        misplaced=tuple(misplaced))


def with_sign(fact, sign):
    """Copy of the factorization with the functional-equation sign filled,
    built and checked by the constructor."""
    return WeilFactorization(fact.q, fact.n, fact.factors, fact.chi, sign, fact.misplaced)


class RHReport:
    """Root-modulus check result for one weight-i factor."""

    __slots__ = ("max_modulus_deviation", "reciprocal_ok", "passed")

    def __init__(self, max_modulus_deviation, reciprocal_ok, passed):
        self.max_modulus_deviation = max_modulus_deviation  # float
        self.reciprocal_ok = reciprocal_ok  # bool, or None when i*d is odd
        self.passed = passed


def rh_check(P, q, i):
    """Verify every root of P has modulus q^{-i/2} within RH_TOL.

    Also reports the exact coefficient reciprocity a_{d-j} * q^{i*j} =
    sign * q^{i*d/2} * a_j, a necessary condition available whenever i*d
    is even; reciprocal_ok is None when i*d is odd. Overall pass is the
    numeric modulus bound alone, in doubles: InvalidInput when q^(i/2)
    leaves their range. q and i are ints, i >= 0.
    """
    check_int("q", q)
    check_int("i", i)
    if i < 0:
        raise InvalidInput("i must be non-negative")
    coeffs = qpoly.trim(check_ints("coefficients", P))
    if not coeffs or coeffs[0] != 1:
        raise NotNormalized("weight factor must have constant term 1")
    d = qpoly.degree(coeffs)
    # repeated roots defeat the root finder; the square-free part has the
    # same roots, and square-free input passes through unchanged
    radical = coeffs
    g = qpoly.gcd_poly(coeffs, qpoly.deriv(coeffs))
    if len(g) > 1:
        radical = qpoly.primitive_int(qpoly.exact_quo(coeffs, g))
    roots = _numeric_roots(radical)
    try:
        deviation = max((abs(abs(rho) * q ** (i / 2) - 1) for rho in roots), default=0.0)
    except OverflowError:  # q ** (i / 2) makes a double of q and of the power
        raise InvalidInput(f"q^({i}/2) with q of {q.bit_length()} bits overflows a double") from None
    reciprocal_ok = None
    if (i * d) % 2 == 0:
        half = q ** (i * d // 2)
        a = list(coeffs)
        if abs(a[d]) == half:
            eps = 1 if a[d] == half else -1
            reciprocal_ok = all(a[d - j] * q ** (i * j) == eps * half * a[j]
                                for j in range(d + 1))
        else:
            reciprocal_ok = False
    return RHReport(max_modulus_deviation=float(deviation),
                    reciprocal_ok=reciprocal_ok,
                    passed=deviation <= RH_TOL)


def betti_check(fact, expected):
    """Compare deg P_i against expected Betti numbers, per weight."""
    expected = check_ints("expected Betti numbers", expected)
    if len(expected) != 2 * fact.n + 1:
        raise DimensionMismatch(
            f"expected {2 * fact.n + 1} Betti numbers, got {len(expected)}")
    return tuple(qpoly.degree(p) == b for (_, p), b in zip(fact.factors, expected))


def point_count_from_zeta(z, m):
    """Coefficient of t^m in t * Z'(t)/Z(t), the m-th point count.

    Computed exactly as coefficient m-1 of the series divisions num'/num
    and den'/den, which stay integral on integer coefficients.
    """
    check_int("m", m)
    if m < 1:
        raise InvalidInput("m must be >= 1")
    num, den = check_ints("coefficients", z.num), check_ints("coefficients", z.den)
    return (_series_div(qpoly.deriv(num), num, m - 1)[m - 1]
            - _series_div(qpoly.deriv(den), den, m - 1)[m - 1])


def _fit_screened(series, n, q, num_deg, den_deg):
    """Fit a Pade split and screen the fit (_best_split). Returns (result
    dict, the screen's FunctionalEquationViolated or None, the sign), or
    the candidate (0, result, failure) when the fit fails."""
    result = {"num_deg": num_deg, "den_deg": den_deg}
    try:
        z = result["z"] = pade_reconstruct(series, num_deg, den_deg)
    except MathCheckError as exc:
        return 0, result, exc
    try:
        return result, None, functional_equation_check(z, q, n, len(z.den) - len(z.num))
    except FunctionalEquationViolated as exc:
        return result, exc, None


def _weigh(q, n, result, violation, sign):
    """Run weights -> FE -> RH on a fitted split, the FE stage taking the
    screen's verdict (its violation, or None and its sign).

    Returns the candidate (score, result dict, failure or None). Score
    counts fully passed stages, the fit included, so candidate degree
    pairs can be ranked.
    """
    score = 1
    try:
        fact = result["fact"] = weight_split(result["z"], q, n)
        if not fact.parity_ok:
            raise MathCheckError(
                "factor weights contradict their numerator/denominator side")
        score = 2
        if violation is not None:
            return 2, result, violation
        result["fact"] = with_sign(fact, sign)
        result["sign"] = sign
        score = 3
        result["rh"] = [(i, rh_check(poly, q, i)) for i, poly in fact.factors]
        if not all(rep.passed for _, rep in result["rh"]):
            raise MathCheckError("root modulus bound violated")
    except MathCheckError as exc:
        return score, result, exc
    return 4, result, None


def _best_split(series, n, q, mmax):
    """(score, result, failure) of the Pade split num + den = mmax that
    weil reports: the first from num 0 up that passes every stage, else
    the best by (score, den_deg).

    Each fit is screened by the FE check for chi = deg den - deg num. A
    split with no misplaced factor has that chi, so the screen is the FE
    stage of any split that reaches it, and a split that fails the screen
    cannot pass every stage. Splits that pass are weighed at once; those
    that fail are weighed only when no split wins, after all the others.
    So a screened-out split beaten by a later winner is never factored,
    and when no split wins, an exception outside MathCheckError raised by
    weighing a split that passed comes before any raised by a screened-out
    one. A split whose fit equals an earlier split's is not weighed: equal
    fits score alike, and the earlier has the larger den_deg.
    """
    candidates, screened_out, seen = [], [], set()
    for num_deg in range(mmax + 1):
        fitted = _fit_screened(series, n, q, num_deg, mmax - num_deg)
        if fitted[0] == 0:
            candidates.append(fitted)
            continue
        z = fitted[0]["z"]
        if z in seen:
            continue
        seen.add(z)
        if fitted[1] is not None:
            screened_out.append(fitted)
            continue
        candidate = _weigh(q, n, *fitted)
        if candidate[0] == 4:
            return candidate
        candidates.append(candidate)
    candidates += [_weigh(q, n, *fitted) for fitted in screened_out]
    return max(candidates, key=lambda c: (c[0], c[1]["den_deg"]))


def weil_report(report, counts, q, n, mmax, betti):
    """Add the weil lines after the counts of an n-dimensional variety over
    F_q to report; returns whether every check passed.

    Each Pade split is screened by the functional equation before it is
    factored (_best_split).
    """
    series = zeta_series(counts)
    report.kv("zeta series", qpoly.poly_str(series.coeffs))

    t0 = perf_counter()
    _, result, failure = _best_split(series, n, q, mmax)
    report.timing("pipeline", perf_counter() - t0)
    report.kv("pade degrees",
              f"num {result['num_deg']}, den {result['den_deg']} "
              f"(scanned num+den = {mmax})")

    ok = True
    if "z" in result:
        report.kv("Z(t)", str(result["z"]))
    if "fact" in result:
        fact = result["fact"]
        report.add("factors:")
        for i, poly in fact.factors:
            report.add(f"  P_{i} = {qpoly.poly_str(poly)}")
        report.kv("euler characteristic", fact.chi)
    if "sign" in result:
        sign = result["sign"]
        rendered = "undetermined (odd n*chi)" if sign is None else f"{sign:+d}"
        report.kv("functional equation sign", rendered)
    if "rh" in result:
        report.add(f"rh check (tol {RH_TOL}):")
        for i, rep in result["rh"]:
            rec = {True: "reciprocal ok", False: "reciprocal FAIL",
                   None: "reciprocal n/a"}[rep.reciprocal_ok]
            verdict = "pass" if rep.passed else "FAIL"
            report.add(f"  P_{i}: max deviation {rep.max_modulus_deviation:.3e}, "
                       f"{rec}, {verdict}")
    if betti and "fact" in result:
        fact = result["fact"]
        try:
            flags = betti_check(fact, betti)
        except WeilZetaError as exc:
            report.kv("betti check", f"error: {exc}")
            ok = False
        else:
            degrees = tuple(qpoly.degree(p) for _, p in fact.factors)
            report.kv("betti degrees", str(degrees))
            report.kv("betti expected", str(betti))
            for i, flag in enumerate(flags):
                report.add(f"  b_{i}: {'pass' if flag else 'FAIL'}")
            ok = ok and all(flags)
    if failure is not None:
        report.kv("pipeline failure", f"{type(failure).__name__}: {failure}")
        ok = False
    report.kv("verdict", "PASS" if ok else "FAIL")
    return ok
