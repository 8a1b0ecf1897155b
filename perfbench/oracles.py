"""Reference answers for the benchmark, computed without weilzeta.

Each oracle uses a different route from the program under test: character
sums instead of enumeration for curves, the discriminant formula for
diagonal quadrics, and the construction itself for zeta verdicts. Nothing
here imports weilzeta, so a defect in the program cannot hide in its own
reference.
"""

from __future__ import annotations


def legendre(a, p):
    """Quadratic character of a modulo the odd prime p, with chi(0) = 0."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def cubic_discriminant(a, b, c):
    """Discriminant of x^3 + a x^2 + b x + c over the integers."""
    return (a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c
            + 18 * a * b * c)


def frobenius_power_sums(a, q, m_max):
    """s_m = alpha^m + conj(alpha)^m for alpha a root of x^2 - a x + q.

    s_0 = 2, s_1 = a and s_m = a s_{m-1} - q s_{m-2}; returns s_1..s_{m_max}.
    """
    sums = [2, a]
    for _ in range(2, m_max + 1):
        sums.append(a * sums[-1] - q * sums[-2])
    return sums[1:m_max + 1]


def weierstrass_counts(p, a, b, c, m_max):
    """N_1..N_{m_max} of y^2 z = x^3 + a x^2 z + b x z^2 + c z^3 over F_{p^m}.

    N_1 is the Legendre sum p + 1 + sum_x chi(f(x)) (the +1 is the point at
    infinity); the trace a_1 = p + 1 - N_1 then gives every N_m through
    the Frobenius power-sum recurrence. Requires p odd and f square-free.
    """
    n1 = p + 1 + sum(legendre(x * x * x + a * x * x + b * x + c, p)
                     for x in range(p))
    trace = p + 1 - n1
    return tuple(p ** m + 1 - s for m, s in
                 enumerate(frobenius_power_sums(trace, p, m_max), start=1))


def diagonal_quadric_count(p, coeffs):
    """N_1 of the surface sum c_i X_i^2 = 0 in P^3 over F_p, all c_i nonzero.

    The quadric is split (N = (p + 1)^2) exactly when c_0 c_1 c_2 c_3 is a
    square and non-split (N = p^2 + 1) otherwise.
    """
    disc = 1
    for c in coeffs:
        disc *= c
    return p * p + 1 + p * (1 + legendre(disc, p))


def weil_counts(q, traces, m_max):
    """Point counts of a curve whose P_1 is prod (1 - a_i t + q t^2)."""
    per_factor = [frobenius_power_sums(a, q, m_max) for a in traces]
    return tuple(q ** m + 1 - sum(s[m - 1] for s in per_factor)
                 for m in range(1, m_max + 1))


def weil_numerator(q, traces):
    """prod (1 - a_i t + q t^2) as low-first integer coefficients."""
    poly = [1]
    for a in traces:
        factor = (1, -a, q)
        out = [0] * (len(poly) + 2)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    return tuple(poly)


def in_hasse_range(a, q):
    """|a| <= 2 sqrt(q), decided exactly."""
    return a * a <= 4 * q


def weil_expectation(q, traces):
    """What the weil pipeline must report for a series built from traces.

    Inside the Hasse range every factor is a Weil polynomial, so the
    verdict is PASS with Z = P_1 / ((1 - t)(1 - q t)), chi = 2 - 2g, sign
    +1 and Betti degrees (1, 2g, 1). A trace outside the range puts a root
    off the critical line, so some check must fail: the verdict is FAIL.
    """
    g = len(traces)
    if not all(in_hasse_range(a, q) for a in traces):
        return {"verdict": "FAIL"}
    return {"verdict": "PASS", "p1": list(weil_numerator(q, traces)),
            "den": [1, -(q + 1), q], "chi": 2 - 2 * g, "sign": 1,
            "betti": [1, 2 * g, 1]}
