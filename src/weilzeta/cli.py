"""Command line workbench producing deterministic text reports.

Subcommands: count (point counts of a variety file), weil (full zeta
pipeline with all four conjecture checks), cm (Grossencharacter versus
brute-force sweep for y^2 = x^3 - x), lattice (endomorphism ring of a
pseudo-lattice file), dimgroup (dimension group of a matrix file).

Reports are plain text with stable ordering; every line is reproducible
byte for byte except those starting with '# timing', which carry wall
clock measurements and are excluded from golden comparisons. Exit codes:
0 all checks passed, 1 a mathematical check failed, 2 invalid input,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import (EnumerationBudgetExceeded, InvalidInput, MathCheckError,
                     WeilZetaError)
from .ffield import DEFAULT_BUDGET, is_prime

# Each command imports the modules it runs, so a job loads only those.
# The five functions below exist for perfbench/tracer.py, which times them
# by patching these names on this module: each delegates to its library
# function through a local import. They go when a structured trace
# recorder replaces that patching.


def load_variety(path):
    from .variety import load_variety
    return load_variety(path)


def ec_count(A, B, p):
    from .variety import ec_count
    return ec_count(A, B, p)


def grossencharacter_trace_d1(p):
    from .cmcurve import grossencharacter_trace_d1
    return grossencharacter_trace_d1(p)


def count_via_character(a, q):
    from .cmcurve import count_via_character
    return count_via_character(a, q)


def frobenius_trace(A, B, p):
    from .cmcurve import frobenius_trace
    return frobenius_trace(A, B, p)


class Report:
    """Ordered text lines; '# timing' lines are comparison-exempt."""

    def __init__(self, title):
        self.lines = [f"= {title} ="]

    def add(self, text=""):
        self.lines.append(text)

    def kv(self, key, value):
        self.lines.append(f"{key}: {value}")

    def timing(self, label, seconds):
        self.lines.append(f"# timing {label}: {seconds:.3f}s")

    def render(self):
        return "\n".join(self.lines) + "\n"


def _algebraic_str(x):
    coords = "(" + ", ".join(str(c) for c in x.coords) + ")"
    return f"{coords} ~ {x.decimal_str(30)}"


def _matrix_str(rows):
    return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]"
                           for row in rows) + "]"


# --- count ---

def _count_section(args, command, settings=()):
    """(variety, report, series): the header, extra settings, then counts."""
    from .variety import count_series

    v = load_variety(args.path)
    report = Report(f"weilzeta {command}")
    report.kv("input", args.path)
    report.kv("characteristic", v.p)
    report.kv("ambient", f"{v.ambient} dim={v.ambient_dim}")
    report.kv("declared dimension", v.vardim)
    report.kv("m_max", args.mmax)
    report.kv("budget", args.budget)
    for key, value in settings:
        report.kv(key, value)
    t0 = time.perf_counter()
    series = count_series(v, args.mmax, args.budget)
    report.timing("counts", time.perf_counter() - t0)
    report.add("counts:")
    for m, n in enumerate(series.counts, start=1):
        report.add(f"  N_{m} = {n}")
    return v, report, series


def cmd_count(args):
    _, report, _ = _count_section(args, "count")
    return report, True


# --- weil ---

def _pipeline_candidate(series, n, q, num_deg, den_deg):
    """Run pade -> weights -> FE -> RH, recording how far we got.

    Returns (score, result dict, failure or None). Score counts fully
    passed stages so candidate degree pairs can be ranked.
    """
    from . import zeta

    result = {"num_deg": num_deg, "den_deg": den_deg}
    score = 0
    try:
        z = result["z"] = zeta.pade_reconstruct(series, num_deg, den_deg)
        score = 1
        fact = result["fact"] = zeta.weight_split(z, q, n)
        if not fact.parity_ok:
            raise MathCheckError(
                "factor weights contradict their numerator/denominator side")
        score = 2
        sign = zeta.functional_equation_check(z, q, n, fact.chi)
        result["fact"] = zeta.with_sign(fact, sign)
        result["sign"] = sign
        score = 3
        result["rh"] = [(i, zeta.rh_check(poly, q, i)) for i, poly in fact.factors]
        if not all(rep.passed for _, rep in result["rh"]):
            raise MathCheckError("root modulus bound violated")
    except MathCheckError as exc:
        return score, result, exc
    return 4, result, None


def cmd_weil(args):
    from . import qpoly, zeta

    v, report, series_counts = _count_section(
        args, "weil", (("rh tolerance", zeta.RH_TOL),
                       ("weight tolerance", zeta.WEIGHT_TOL)))
    q = v.p
    n = v.vardim
    series = zeta.zeta_series(series_counts)
    report.kv("zeta series", qpoly.poly_str(series.coeffs))

    t0 = time.perf_counter()
    best = None
    for num_deg in range(args.mmax + 1):
        den_deg = args.mmax - num_deg
        score, result, failure = _pipeline_candidate(
            series, n, q, num_deg, den_deg)
        key = (score, den_deg)
        if best is None or key > best[0]:
            best = (key, result, failure)
        if score == 4:
            # den_deg only falls from here on, so no later candidate wins
            break
    report.timing("pipeline", time.perf_counter() - t0)
    (score, _), result, failure = best
    report.kv("pade degrees",
              f"num {result['num_deg']}, den {result['den_deg']} "
              f"(scanned num+den = {args.mmax})")

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
        report.add(f"rh check (tol {zeta.RH_TOL}):")
        for i, rep in result["rh"]:
            rec = {True: "reciprocal ok", False: "reciprocal FAIL",
                   None: "reciprocal n/a"}[rep.reciprocal_ok]
            verdict = "pass" if rep.passed else "FAIL"
            report.add(f"  P_{i}: max deviation {rep.max_modulus_deviation:.3e}, "
                       f"{rec}, {verdict}")
    if args.betti and "fact" in result:
        fact = result["fact"]
        try:
            flags = zeta.betti_check(fact, args.betti)
        except WeilZetaError as exc:
            report.kv("betti check", f"error: {exc}")
            ok = False
        else:
            degrees = tuple(qpoly.degree(p) for _, p in fact.factors)
            report.kv("betti degrees", str(degrees))
            report.kv("betti expected", str(args.betti))
            for i, flag in enumerate(flags):
                report.add(f"  b_{i}: {'pass' if flag else 'FAIL'}")
            ok = ok and all(flags)
    if failure is not None:
        report.kv("pipeline failure", f"{type(failure).__name__}: {failure}")
        ok = False
    report.kv("verdict", "PASS" if ok else "FAIL")
    return report, ok


# --- cm ---

def cmd_cm(args):
    if args.pmin > args.pmax:
        raise InvalidInput("pmin must not exceed pmax")
    # one ec_count sweep visits p x-values, so the default budget caps the
    # sum of the primes, checked before any curve is counted
    primes = []
    visited = 0
    for p in range(max(args.pmin, 5), args.pmax + 1):
        if is_prime(p):
            visited += p
            if visited > DEFAULT_BUDGET:
                raise EnumerationBudgetExceeded(
                    f"sweeping the primes {args.pmin} .. {args.pmax} "
                    f"exceeds budget {DEFAULT_BUDGET} x-values")
            primes.append(p)
    # loaded here, so that the timed sweep's first call imports nothing
    from . import cmcurve  # noqa: F401

    report = Report("weilzeta cm")
    report.kv("curve", "y^2 = x^3 - x")
    report.kv("primes", f"{args.pmin} .. {args.pmax}")
    t0 = time.perf_counter()
    mismatches = 0
    rows = 0
    for p in primes:
        gross = grossencharacter_trace_d1(p)
        count = count_via_character(gross, p)
        brute_count = ec_count(-1, 0, p)
        brute = p + 1 - brute_count  # frobenius_trace, without a second sweep
        match = gross == brute and count == brute_count
        if not match:
            mismatches += 1
        rows += 1
        report.add(f"  p={p}: gross={gross} brute={brute} "
                   f"count={count} brute_count={brute_count} "
                   f"{'match' if match else 'MISMATCH'}")
    report.timing("sweep", time.perf_counter() - t0)
    report.kv("primes checked", rows)
    report.kv("mismatches", mismatches)
    ok = mismatches == 0
    report.kv("verdict", "PASS" if ok else "FAIL")
    return report, ok


# --- lattice ---

def cmd_lattice(args):
    from . import pseudolattice as pl
    from . import qpoly
    from .qlinalg import mat_mul_int

    L = pl.load_lattice(args.path)
    report = Report("weilzeta lattice")
    report.kv("input", args.path)
    report.kv("field minpoly", qpoly.poly_str(L.field.minpoly, "x"))
    lo, hi = L.field.interval()
    report.kv("field root in", f"[{lo}, {hi}]")
    report.kv("field degree", L.field.degree)
    report.kv("rank", L.rank)
    report.add("generators:")
    for k, g in enumerate(L.generators, start=1):
        report.add(f"  g_{k} = {_algebraic_str(g)}")
    t0 = time.perf_counter()
    rank, basis = pl.endo_ring_rank(L)
    report.timing("endo ring", time.perf_counter() - t0)
    report.kv("endomorphism ring rank", rank)
    report.add("endomorphism ring basis:")
    matrices = []
    for k, alpha in enumerate(basis, start=1):
        mat = pl.endo_matrix(L, alpha)
        matrices.append(mat)
        report.add(f"  e_{k} = {_algebraic_str(alpha)}")
        report.add(f"       matrix {_matrix_str(mat)}")
    commutes = all(
        mat_mul_int(a, b) == mat_mul_int(b, a)
        for idx, a in enumerate(matrices) for b in matrices[idx + 1:])
    report.kv("endomorphism matrices commute", "yes" if commutes else "NO")
    if L.rank >= 2:
        witness = pl.density_witness(L)
        report.add("density witness (0 < x < 1/1000):")
        report.add(f"  x = {witness.c0}*g_1 + {witness.c1}*g_2 "
                   f"= {_algebraic_str(witness.value)}")
    ok = commutes
    report.kv("verdict", "PASS" if ok else "FAIL")
    return report, ok


# --- dimgroup ---

def cmd_dimgroup(args):
    from . import dimgroup as dg
    from . import qpoly

    T = dg.load_matrix(args.path, ell=args.det_check)
    G = dg.build(T)
    report = Report("weilzeta dimgroup")
    report.kv("input", args.path)
    report.kv("matrix", _matrix_str(T.rows))
    report.kv("determinant", T.det())
    if args.det_check is not None:
        report.kv("det check", f"symmetric with determinant {args.det_check}: ok")
    report.kv("lambda minpoly", qpoly.poly_str(G.field.minpoly, "x"))
    lo, hi = G.field.interval()
    report.kv("lambda isolated in", f"[{lo}, {hi}]")
    report.kv("lambda", G.lam.decimal_str(30))
    report.add("left eigenvector (w_1 = 1, coords in powers of lambda):")
    for k, entry in enumerate(G.w, start=1):
        report.add(f"  w_{k} = {_algebraic_str(entry)}")
    report.add("sample trace values:")
    b = G.b
    samples = []
    for i in range(b):
        v = tuple(1 if j == i else 0 for j in range(b))
        samples.append((v, 0))
    samples.append((samples[0][0], 1))
    for v, k in samples:
        val = dg.trace_value(G, (v, k))
        report.add(f"  tau({v}, level {k}) = {_algebraic_str(val)}")
    x = samples[0]
    coherent = dg.trace_value(G, x) == dg.trace_value(G, (G.matrix.apply(x[0]), x[1] + 1))
    report.kv("level coherence tau(v,k) = tau(Tv,k+1)", "exact" if coherent else "FAIL")
    scaling = dg.trace_value(G, dg.shift(G, x)) == G.lam * dg.trace_value(G, x)
    report.kv("shift scaling tau(shift x) = lambda*tau(x)", "exact" if scaling else "FAIL")
    ell = args.det_check
    if ell is None:
        d = abs(T.det())
        ell = d if d >= 2 else None
    if ell is None:
        report.kv("unit decomposition", "skipped (no determinant >= 2 available)")
    else:
        unit = dg.unit_decomposition(G, ell)
        report.add(f"unit decomposition (ell = {ell}):")
        report.add(f"  lambda/ell = {_algebraic_str(unit.lam_unit)}")
        report.add(f"  minimal polynomial: {qpoly.poly_str(unit.minpoly, 'x')}")
        report.add(f"  verified algebraic unit: {'true' if unit.verified else 'false'}")
    ok = coherent and scaling
    report.kv("verdict", "PASS" if ok else "FAIL")
    return report, ok


# --- driver ---

def build_parser():
    parser = argparse.ArgumentParser(
        prog="weilzeta",
        description="Exact zeta functions, Weil checks, pseudo-lattices and "
                    "dimension groups over finite fields.")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        p = sub.add_parser(name, parents=[out], help=text)
        p.set_defaults(run=run)
        return p

    def counting(name, run, text, mmax_default):
        p = command(name, run, text)
        p.add_argument("path")
        p.add_argument("--mmax", type=int, default=mmax_default,
                       help="number of extension degrees to count")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="cap on the number of ambient representatives and "
                            "on each field size p^m")
        return p

    counting("count", cmd_count, "point counts of a variety file", 2)
    p_weil = counting("weil", cmd_weil, "full zeta pipeline on a variety file", 4)
    p_weil.add_argument("--betti", help="comma-separated expected Betti numbers")

    p_cm = command("cm", cmd_cm, "Grossencharacter sweep for y^2 = x^3 - x")
    p_cm.add_argument("pmin", type=int, nargs="?", default=5)
    p_cm.add_argument("pmax", type=int, nargs="?", default=97)

    p_lat = command("lattice", cmd_lattice, "endomorphism ring of a lattice file")
    p_lat.add_argument("path")

    p_dim = command("dimgroup", cmd_dimgroup, "dimension group of a matrix file")
    p_dim.add_argument("path")
    p_dim.add_argument("--det-check", type=int,
                       help="require symmetry and this determinant")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # flag values are checked before any work; only weil has --betti,
        # and cm has neither --budget nor --mmax
        if getattr(args, "betti", None):
            try:
                args.betti = tuple(int(v) for v in args.betti.split(","))
            except ValueError:
                raise InvalidInput("--betti expects comma-separated integers") from None
        for name in ("budget", "mmax"):
            if getattr(args, name, 1) < 1:
                raise InvalidInput(f"{name} must be at least 1")
        report, ok = args.run(args)
    except WeilZetaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
