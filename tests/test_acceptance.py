"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each test prints one `criterion N: PASS|FAIL` line so a plain pytest run
documents the verdicts. Tolerances are fixed here and never loosened at
runtime: exact equality wherever the arithmetic is exact, 1e-9 for root
moduli, and wall-clock budgets of 5s, 60s, and 30s where stated.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

from weilzeta.cli import main
from weilzeta.cmcurve import (
    count_via_character,
    ec_count,
    frobenius_trace,
    grossencharacter_trace_d1,
)
from weilzeta.dimgroup import build, make_matrix, shift, trace_value, unit_decomposition
from weilzeta.errors import (
    InsufficientPrecision,
    NoRationalFit,
    NotIntegral,
    ParseError,
)
from weilzeta.primes import primes_in_range
from weilzeta.pseudolattice import (
    PseudoLattice,
    endo_matrix,
    endo_ring_basis,
    is_endomorphism,
)
from weilzeta.qlinalg import mat_mul_int
from weilzeta.qpoly import mul as poly_mul
from weilzeta.realalg import RealNumberField, minimal_polynomial
from weilzeta.variety import (
    count_points,
    count_series,
    load_variety,
    parse_variety,
    weierstrass_variety,
)
from weilzeta.zeta import (
    RationalFunctionQ,
    curve_numerator,
    functional_equation_check,
    pade_reconstruct,
    point_count_from_zeta,
    rh_check,
    weight_split,
    zeta_series,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

RH_TOL = 1e-9
CRITERION_1_BUDGET_S = 5.0
CRITERION_2_BUDGET_S = 60.0
CRITERION_4_BUDGET_S = 30.0

_CACHE = {}


def _report(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def _criterion2_curves():
    """20 random non-singular short Weierstrass curves per prime, fixed seed."""
    if "curves" not in _CACHE:
        rng = random.Random(20260814)
        curves = []
        for p in (5, 7, 11, 13):
            seen = set()
            while len(seen) < 20:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p == 0 or (a, b) in seen:
                    continue
                seen.add((a, b))
                curves.append((p, a, b, p + 1 - ec_count(a, b, p)))
        _CACHE["curves"] = curves
    return _CACHE["curves"]


def test_criterion_1_projective_space_zeta_exact(tmp_path):
    """P^N zeta pipeline is exact; the sign convention gives (-1)^(N+1)."""
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            text = f"field p={p}\nambient projective dim={n} vardim={n}\n"
            counts = count_series(parse_variety(text), n + 1)
            z = pade_reconstruct(zeta_series(counts), 0, n + 1)
            expected_den = (1,)
            for i in range(n + 1):
                expected_den = poly_mul(expected_den, (1, -(p**i)))
            ok &= z.num == (1,)
            ok &= z.den == expected_den
            fact = weight_split(z, p, n)
            for i in range(n + 1):
                ok &= fact.factor(2 * i) == (1, -(p**i))
            for i in range(2 * n + 1):
                if i % 2 == 1:
                    ok &= fact.factor(i) == (1,)
            sign = functional_equation_check(z, p, n, fact.chi)
            ok &= sign == (-1) ** (n + 1)
            path = tmp_path / f"p{n}_f{p}.variety"
            path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                ok &= main(["weil", "--mmax", str(n + 1), str(path)]) == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < CRITERION_1_BUDGET_S
    assert _report(1, ok)


def test_criterion_2_random_elliptic_curves():
    """Reconstructed P_1 matches brute trace; FE and RH hold to 1e-9."""
    start = time.perf_counter()
    ok = True
    for p, a, b, trace in _criterion2_curves():
        v = weierstrass_variety(a, b, p)
        counts = count_series(v, 2)
        p1 = curve_numerator(counts, 1)
        ok &= p1 == (1, -trace, p)
        z = RationalFunctionQ(p1, poly_mul((1, -1), (1, -p)))
        ok &= functional_equation_check(z, p, 1, 0) == 1
        report = rh_check(p1, p, 1)
        ok &= report.passed and report.max_modulus_deviation < RH_TOL
    elapsed = time.perf_counter() - start
    ok &= elapsed < CRITERION_2_BUDGET_S
    assert _report(2, ok)


def test_criterion_3_hasse_bound():
    """|p + 1 - #E(F_p)| <= 2*sqrt(p) for every sampled curve, exactly."""
    violations = [
        (p, a, b)
        for p, a, b, trace in _criterion2_curves()
        if trace * trace > 4 * p
    ]
    assert _report(3, violations == [])


def test_criterion_4_grossencharacter_sweep():
    """Character trace equals brute Frobenius trace for all p in [5, 997]."""
    start = time.perf_counter()
    ok = True
    for p in primes_in_range(5, 997):
        gross = grossencharacter_trace_d1(p)
        brute = frobenius_trace(-1, 0, p)
        ok &= gross == brute
        ok &= count_via_character(gross, p) == ec_count(-1, 0, p)
    elapsed = time.perf_counter() - start
    ok &= elapsed < CRITERION_4_BUDGET_S
    assert _report(4, ok)


def test_criterion_5_quadratic_endomorphism_rings():
    """End(Z + Z*sqrt(d)) is Z[sqrt(d)] acting by [[m, n*d], [n, m]]."""
    ok = True
    for d in (2, 3, 5):
        K = RealNumberField.quadratic(d)
        L = PseudoLattice(K, (K.one(), K.gen()))
        basis = endo_ring_basis(L)
        ok &= len(basis) == 2
        mats = [[list(row) for row in endo_matrix(L, e)] for e in basis]
        for e, mat in zip(basis, mats):
            m, n = mat[0][0], mat[1][0]
            ok &= mat == [[m, n * d], [n, m]]
        # brute scan oracle over small heights: (u + v*sqrt(d))/w
        for u in range(-3, 4):
            for v in range(-3, 4):
                for w in (1, 2, 3, 4):
                    alpha = K.element((Fraction(u, w), Fraction(v, w)))
                    expected = u % w == 0 and v % w == 0
                    ok &= is_endomorphism(L, alpha) == expected
        # homomorphism and commutativity laws on the computed basis
        for e1, m1 in zip(basis, mats):
            for e2, m2 in zip(basis, mats):
                prod = [list(r) for r in mat_mul_int(m1, m2)]
                ok &= prod == [list(r) for r in mat_mul_int(m2, m1)]
                ok &= prod == [list(r) for r in endo_matrix(L, e1 * e2)]
                sum_mat = [
                    [m1[i][j] + m2[i][j] for j in range(2)] for i in range(2)
                ]
                ok &= sum_mat == [list(r) for r in endo_matrix(L, e1 + e2)]
    assert _report(5, ok)


def test_criterion_6_dimension_group_exactness():
    """lambda = 2 + sqrt(2) Sturm-certified; traces exact; unit unverified."""
    G = build(make_matrix([[3, 1], [1, 1]], ell=2))
    ok = minimal_polynomial(G.lam) == (2, -4, 1)
    # independent Sturm isolation of the dominant root of x^2 - 4x + 2
    cert = RealNumberField((2, -4, 1), (Fraction(3), Fraction(4)))
    ok &= G.lam == cert.gen()
    root2 = RealNumberField.quadratic(2)
    # 2 + sqrt(2) is the one root of x^2 - 4x + 2 in (3, 4)
    two_plus_root2 = root2.from_rational(Fraction(2)) + root2.gen()
    ok &= minimal_polynomial(two_plus_root2) == (2, -4, 1)
    ok &= 3 < two_plus_root2 < 4 and 3 < G.lam < 4
    rng = random.Random(20260814)
    T = G.matrix.rows
    for _ in range(200):
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        k = rng.randint(0, 8)
        Tv = tuple(T[i][0] * v[0] + T[i][1] * v[1] for i in range(2))
        ok &= trace_value(G, (v, k)) == trace_value(G, (Tv, k + 1))
        ok &= trace_value(G, shift(G, (v, k))) == G.lam * trace_value(G, (v, k))
    ud = unit_decomposition(G, 2)
    ok &= ud.verified is False
    ok &= ud.minpoly == (1, -4, 2)
    assert _report(6, ok)


CORPUS_MMAX = {
    "p0_f5.variety": 3,
    "p1_f2.variety": 3,
    "p1_f3.variety": 3,
    "p1_f5.variety": 3,
    "p2_f2.variety": 3,
    "p2_f3.variety": 3,
    "p2_f5.variety": 3,
    "ell_f3.variety": 4,
    "ell_f5.variety": 4,
    "affine_conic_f5.variety": 2,
}


def test_criterion_7_round_trip_on_corpus():
    """point_count_from_zeta after reconstruction returns the input counts."""
    corpus = sorted(p.name for p in SAMPLES.glob("*.variety"))
    # every corpus variety is covered; the malformed fixture has no variety
    assert set(corpus) == set(CORPUS_MMAX) | {"bad_token.variety"}
    ok = True
    for name, mmax in sorted(CORPUS_MMAX.items()):
        v = load_variety(SAMPLES / name)
        counts = count_series(v, mmax)
        s = zeta_series(counts)
        z = None
        for total in range(1, mmax + 1):
            for num_deg in range(total + 1):
                try:
                    z = pade_reconstruct(s, num_deg, total - num_deg)
                    break
                except (NoRationalFit, InsufficientPrecision, NotIntegral):
                    z = None
            if z is not None:
                break
        ok &= z is not None
        if z is not None:
            for m in range(1, mmax + 1):
                ok &= point_count_from_zeta(z, m) == counts.counts[m - 1]
    try:
        load_variety(SAMPLES / "bad_token.variety")
        ok = False
    except ParseError:
        pass
    assert _report(7, ok)


def _suite_reports(tmp_path, tag, samples=SAMPLES):
    jobs = [
        ("count", ["count", str(samples / "p1_f3.variety"), "--mmax", "3"]),
        ("weil_ell", ["weil", str(samples / "ell_f3.variety"), "--mmax", "4", "--betti", "1,2,1"]),
        ("weil_p2", ["weil", str(samples / "p2_f3.variety"), "--mmax", "3"]),
        ("cm", ["cm", "5", "97"]),
        ("lattice", ["lattice", str(samples / "sqrt2.lattice")]),
        ("lattice2", ["lattice", str(samples / "cbrt2.lattice")]),
        ("dimgroup", ["dimgroup", str(samples / "hecke_3111.matrix"), "--det-check", "2"]),
    ]
    blobs = []
    for name, argv in jobs:
        out = tmp_path / f"{tag}_{name}.txt"
        code = main(argv + ["--out", str(out)])
        assert code == 0, (name, code)
        lines = out.read_bytes().split(b"\n")
        blobs.append((name, b"\n".join(l for l in lines if not l.startswith(b"# timing"))))
    return blobs


def test_criterion_8_reports_are_deterministic(tmp_path):
    """Two consecutive suite runs agree byte for byte outside timing lines."""
    first = _suite_reports(tmp_path, "a")
    second = _suite_reports(tmp_path, "b")
    ok = first == second
    assert _report(8, ok)


def test_reports_match_the_benchmark_goldens(tmp_path, monkeypatch):
    """The seven reports equal perfbench/goldens/ outside timing lines.

    The goldens were captured from the repository root with relative
    sample paths, which the reports echo, so the suite runs from there.
    """
    root = SAMPLES.parent
    monkeypatch.chdir(root)
    for name, blob in _suite_reports(tmp_path, "golden", samples=Path("samples")):
        golden = (root / "perfbench" / "goldens" / f"{name}.txt").read_bytes()
        assert blob == golden, name
