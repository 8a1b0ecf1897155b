"""Zeta functions of varieties over finite fields.

The pipeline starts from exact point counts N_1..N_M, forms the truncated
series exp(sum N_m t^m / m) over the rationals, reconstructs a rational
function by Pade approximation with re-expansion verification, and then
checks the classical properties one by one: integrality of coefficients,
the functional equation as an exact polynomial identity, the splitting of
factors by root modulus into weights, the root-modulus bound, and the
comparison of factor degrees against expected Betti numbers.

Floats appear only where unavoidable: assigning weights from root moduli
and measuring modulus deviations. Everything else is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import log

from . import qpoly
from .errors import (DimensionMismatch, EmptySeries, FunctionalEquationViolated,
                     InsufficientPrecision, InternalError, InvalidInput,
                     MixedWeightFactor, NoRationalFit, NotIntegral,
                     NotNormalized, WeightOutOfRange)
from .qlinalg import solve_right


@dataclass(frozen=True)
class PowerSeriesQ:
    """Truncated power series with exact rational coefficients c_0..c_M."""

    coeffs: tuple

    @property
    def order(self):
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RationalFunctionQ:
    """num/den with integer coefficients, num(0) = den(0) = 1, gcd 1."""

    num: tuple
    den: tuple

    def __str__(self):
        return f"({qpoly.poly_str(self.num)}) / ({qpoly.poly_str(self.den)})"


@dataclass(frozen=True)
class WeilFactorization:
    """Weight decomposition of a zeta function.

    factors holds (i, P_i) for every i in 0..2n, trivial factors included
    as the constant 1. sign is None until the functional equation has been
    checked (and stays None when n*chi is odd, where only the squared
    identity is rational). misplaced records irreducible factors whose
    weight parity contradicts the side they came from; they are excluded
    from the P_i.
    """

    q: int
    n: int
    factors: tuple
    chi: int
    sign: int | None = None
    parity_ok: bool = True
    misplaced: tuple = ()

    def __post_init__(self):
        if len(self.factors) != 2 * self.n + 1:
            raise InternalError("factorization must list every weight 0..2n")
        for i, poly in self.factors:
            coeffs = qpoly.trim(poly)
            if coeffs and coeffs[0] != 1:
                raise NotNormalized(f"P_{i} must have constant term 1")
        lead = dict(self.factors)
        if lead[0] not in ((1,), (1, -1)):
            raise WeightOutOfRange(
                f"weight-0 factor must be 1 - t, got {qpoly.poly_str(lead[0])}")
        top = 2 * self.n
        if lead[top] not in ((1,), (1, -self.q ** self.n)):
            raise WeightOutOfRange(
                f"weight-{top} factor must be 1 - {self.q ** self.n}*t, "
                f"got {qpoly.poly_str(lead[top])}")
        total = sum((-1) ** i * qpoly.degree(p) for i, p in self.factors)
        if total != self.chi:
            raise InternalError("chi does not match factor degrees")

    def factor(self, i):
        return dict(self.factors)[i]


def _as_counts(counts):
    if hasattr(counts, "counts"):
        return tuple(counts.counts)
    return tuple(counts)


def zeta_series(counts):
    """exp(sum N_m t^m / m) truncated at order m_max, exactly.

    Uses the recurrence k*c_k = sum_{m=1}^{k} N_m c_{k-m} that the series
    satisfies term by term (differentiate the exponential).
    """
    n_list = _as_counts(counts)
    if not n_list:
        raise EmptySeries("need at least one point count")
    m_max = len(n_list)
    cs = [Fraction(1)]
    for k in range(1, m_max + 1):
        acc = Fraction(0)
        for m in range(1, k + 1):
            acc += Fraction(n_list[m - 1]) * cs[k - m]
        cs.append(acc / k)
    return PowerSeriesQ(coeffs=tuple(cs))


def _series_inv(poly, order):
    """Power series inverse of a polynomial with constant term 1."""
    if not poly or poly[0] != 1:
        raise NotNormalized("series inverse needs constant term 1")
    out = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(poly) - 1) + 1):
            acc += Fraction(poly[j]) * out[k - j]
        out.append(-acc)
    return out


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[:order + 1 - i]):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def rational_function(num, den):
    """Normalize to the canonical form and validate integrality.

    Scales so den(0) = 1, cancels the polynomial gcd, and clears to
    integer coefficients; non-integer results after normalization signal
    that the input is not a zeta function of the expected shape.
    """
    num = qpoly.trim(tuple(Fraction(c) for c in num))
    den = qpoly.trim(tuple(Fraction(c) for c in den))
    if not den or den[0] == 0:
        raise NotNormalized("denominator must have nonzero constant term")
    if not num:
        raise NotNormalized("zero is not a valid zeta function")
    g = qpoly.gcd_poly(num, den)
    if qpoly.degree(g) > 0:
        num, _ = qpoly.divmod_poly(num, g)
        den, _ = qpoly.divmod_poly(den, g)
    scale = den[0]
    num = tuple(c / scale for c in num)
    den = tuple(c / scale for c in den)
    if num[0] != 1:
        raise NotIntegral(f"numerator constant term {num[0]} != 1")
    for c in num + den:
        if Fraction(c).denominator != 1:
            raise NotIntegral(f"non-integer coefficient {c} after normalization")
    return RationalFunctionQ(num=tuple(int(c) for c in num),
                             den=tuple(int(c) for c in den))


def pade_reconstruct(s, num_deg, den_deg):
    """Rational function matching the series through order num_deg+den_deg.

    Solves the linear system for the denominator, reads off the numerator,
    then verifies by re-expanding against every available series term.
    """
    coeffs = s.coeffs if isinstance(s, PowerSeriesQ) else tuple(s)
    order = len(coeffs) - 1
    if order < num_deg + den_deg:
        raise InsufficientPrecision(
            f"series order {order} < num_deg + den_deg = {num_deg + den_deg}")

    def c(k):
        return Fraction(coeffs[k]) if 0 <= k <= order else Fraction(0)

    if den_deg:
        rows = []
        rhs = []
        for k in range(num_deg + 1, num_deg + den_deg + 1):
            rows.append([c(k - j) for j in range(1, den_deg + 1)])
            rhs.append(-c(k))
        sol = solve_right(rows, rhs, Fraction(0))
        if sol is None:
            raise NoRationalFit("no denominator matches the series")
        den = (Fraction(1),) + tuple(sol)
    else:
        den = (Fraction(1),)
    num = tuple(sum(den[j] * c(k - j) for j in range(min(k, den_deg) + 1))
                for k in range(num_deg + 1))

    inv = _series_inv(qpoly.trim(den) or (Fraction(1),), order)
    expanded = _series_mul(qpoly.trim(num), inv, order)
    for k in range(order + 1):
        if expanded[k] != c(k):
            raise NoRationalFit(
                f"re-expansion differs from the series at order {k}")
    return rational_function(num, den)


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
        a += [Fraction(0)] * g
        for k in range(g + 1, 2 * g + 1):
            a[k] = q ** (k - g) * a[2 * g - k]
    else:
        for k in range(g + 1):
            if a[2 * g - k] != q ** (g - k) * a[k]:
                raise FunctionalEquationViolated(
                    f"coefficient symmetry fails at k={k}: "
                    f"a_{2 * g - k} = {a[2 * g - k]} but q^{g - k} * a_{k} "
                    f"= {q ** (g - k) * a[k]}")
    out = []
    for c in a:
        out.append(int(c) if c.denominator == 1 else c)
    return tuple(out)


def functional_equation_check(z, q, n, chi):
    """Exact check of Z(1/(q^n t)) = sign * q^{n*chi/2} * t^chi * Z(t).

    Cross-multiplied, the identity says q^{n*chi} * rev_num(q^n t) * den(t)
    equals sign * q^{n*chi/2} * num(t) * rev_den(q^n t). When n*chi is even
    both sides are rational polynomials and the sign is read off; when odd,
    the squared identity is verified and the sign stays undetermined (None).
    """
    num, den = z.num, z.den
    qn = q ** n
    lhs = qpoly.mul(qpoly.compose_linear(qpoly.reverse(num), qn), den)
    rhs = qpoly.mul(num, qpoly.compose_linear(qpoly.reverse(den), qn))
    e = n * chi
    if e % 2 == 0:
        factor = Fraction(q) ** (e // 2)
        scaled = qpoly.scale(lhs, factor)
        res_plus = qpoly.sub(scaled, rhs)
        if not res_plus:
            return 1
        res_minus = qpoly.add(scaled, rhs)
        if not res_minus:
            return -1
        raise FunctionalEquationViolated(
            f"functional equation fails for chi={chi}, n={n}, q={q}",
            residual_plus=res_plus, residual_minus=res_minus)
    sq = qpoly.sub(qpoly.scale(qpoly.mul(lhs, lhs), Fraction(q) ** e),
                   qpoly.mul(rhs, rhs))
    if not sq:
        return None
    raise FunctionalEquationViolated(
        f"squared functional equation fails for odd n*chi = {e}",
        residual_plus=sq, residual_minus=None)


def _certified_roots(coeffs):
    """All complex roots of an integer polynomial, residual-certified.

    The relative residual |P(rho)| / sum |a_j||rho|^j must fall below
    1e-10; precision escalates once before giving up.
    """
    import mpmath

    deg = qpoly.degree(coeffs)
    if deg < 1:
        return []
    high_first = list(reversed(qpoly.trim(coeffs)))
    for dps in (60, 120):
        with mpmath.workdps(dps):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in high_first],
                                     maxsteps=200, extraprec=120)
            ok = True
            vals = []
            for rho in roots:
                res = abs(mpmath.polyval(high_first, rho))
                scale_sum = sum(abs(mpmath.mpf(a)) * abs(rho) ** (deg - j)
                                for j, a in enumerate(high_first))
                if scale_sum == 0 or res / scale_sum > mpmath.mpf("1e-10"):
                    ok = False
                    break
                vals.append(complex(rho))
            if ok:
                return vals
    raise InternalError(f"root finding failed to certify {qpoly.poly_str(coeffs)}")


def weight_split(z, q, n, tol=0.25):
    """Group irreducible factors of num and den by root-modulus weight.

    Each factor's roots give weights -2*log_q|rho|; roots of one
    irreducible factor must agree within tol, and the rounded common value
    must land in 0..2n. Odd weights are expected from the numerator and
    even weights from the denominator; factors on the wrong side are
    reported as misplaced rather than merged, clearing parity_ok.
    """
    if not 0 < tol < 0.5:
        raise InvalidInput("tol must lie strictly between 0 and 0.5")
    if q < 2:
        raise InvalidInput("q must be at least 2")
    if n < 0:
        raise InvalidInput("dimension must be non-negative")
    buckets = {i: (1,) for i in range(2 * n + 1)}
    misplaced = []
    for side, poly in (("num", z.num), ("den", z.den)):
        for fac, mult in qpoly.factor_int(poly)[1]:
            if fac[0] == -1:
                fac = qpoly.neg(fac)
            elif fac[0] != 1:
                raise NotNormalized(
                    f"irreducible factor {qpoly.poly_str(fac)} has constant term {fac[0]}")
            weights = [-2 * log(abs(rho)) / log(q) for rho in _certified_roots(fac)]
            if not weights:
                continue
            if max(weights) - min(weights) > tol:
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
        parity_ok=not misplaced,
        misplaced=tuple(misplaced))


def with_sign(fact, sign):
    """Copy of the factorization with the functional-equation sign filled."""
    return replace(fact, sign=sign)


@dataclass(frozen=True)
class RHReport:
    """Root-modulus check result for one weight-i factor."""

    max_modulus_deviation: float
    reciprocal_ok: bool | None
    passed: bool


def rh_check(P, q, i, tol=1e-9):
    """Verify every root of P has modulus q^{-i/2} within tol.

    Also reports the exact coefficient reciprocity a_{d-j} * q^{i*j} =
    sign * q^{i*d/2} * a_j, a necessary condition available whenever i*d
    is even; reciprocal_ok is None when i*d is odd. Overall pass is the
    numeric modulus bound alone.
    """
    coeffs = qpoly.trim(P)
    if not coeffs or coeffs[0] != 1:
        raise NotNormalized("weight factor must have constant term 1")
    d = qpoly.degree(coeffs)
    # repeated roots defeat the root finder; the square-free part has the
    # same roots, and square-free input passes through unchanged
    radical = coeffs
    g = qpoly.gcd_poly(coeffs, qpoly.deriv(coeffs))
    if qpoly.degree(g) > 0:
        radical = qpoly.primitive_int(qpoly.divmod_poly(coeffs, g)[0])
    deviation = 0.0
    for rho in _certified_roots(radical):
        deviation = max(deviation, abs(abs(rho) * q ** (i / 2) - 1))
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
                    passed=deviation <= tol)


def betti_check(fact, expected):
    """Compare deg P_i against expected Betti numbers, per weight."""
    expected = tuple(expected)
    if len(expected) != 2 * fact.n + 1:
        raise DimensionMismatch(
            f"expected {2 * fact.n + 1} Betti numbers, got {len(expected)}")
    return tuple(qpoly.degree(p) == b for (_, p), b in zip(fact.factors, expected))


def point_count_from_zeta(z, m):
    """Coefficient of t^m in t * Z'(t)/Z(t), the m-th point count.

    Computed exactly from the logarithmic derivative of num and den; a
    non-integer coefficient means z was not a zeta function.
    """
    if m < 1:
        raise InvalidInput("m must be >= 1")

    def log_deriv_coeff(poly):
        # [t^m] of t * poly'/poly for poly with constant term 1
        dp = qpoly.deriv(poly)
        inv = _series_inv(poly, m)
        prod = _series_mul(list(dp) + [Fraction(0)], inv, m - 1)
        return prod[m - 1]

    value = log_deriv_coeff(z.num) - log_deriv_coeff(z.den)
    if value.denominator != 1:
        raise NotIntegral(f"N_{m} = {value} is not an integer")
    return int(value)
