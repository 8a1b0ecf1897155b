"""Seeded inputs, expected results and output checks for each workload.

``jobs(workload, seed)`` returns the inputs of one run, as a pure
function of its arguments, so the same seed always gives the same inputs. Subprocess jobs carry the `weilzeta` argv
and, where the input is generated, the text of the variety file; the
in-process ``weil_verdicts`` jobs carry a point-count series. Every job
carries its expected result from ``oracles`` (or, for the CLI corpus, the
golden reports captured from the seed implementation).

Nothing here imports weilzeta: the in-process pipeline receives the
``zeta`` and ``errors`` modules from its caller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

import oracles

GOLDENS = Path(__file__).resolve().parent / "goldens"
# Generated variety files, relative to the repository root.
INPUT_DIR = "perfbench/out/inputs"

# The seven invocations of tests/test_acceptance.py::_suite_reports.
CLI_CORPUS = (
    ("count", ["count", "samples/p1_f3.variety", "--mmax", "3"]),
    ("weil_ell", ["weil", "samples/ell_f3.variety", "--mmax", "4", "--betti", "1,2,1"]),
    ("weil_p2", ["weil", "samples/p2_f3.variety", "--mmax", "3"]),
    ("cm", ["cm", "5", "97"]),
    ("lattice", ["lattice", "samples/sqrt2.lattice"]),
    ("lattice2", ["lattice", "samples/cbrt2.lattice"]),
    ("dimgroup", ["dimgroup", "samples/hecke_3111.matrix", "--det-check", "2"]),
)

# (p, mmax) per extension-field job: four curves up to q = 3^5 = 243.
# A genus-1 curve needs mmax >= 4, and over F_5 that means q = 625, whose
# single job takes 7-9 s on the reference VM: a third of a run, leaving
# too few jobs for a steady median and tail.
EXTFIELD_FIELDS = ((3, 5),) * 4

# Primes of the prime-field inputs: the prime nearest the middle of each
# half of [40, 70] (quadric surfaces), and the first prime of each hundred
# from 300 to 700 (cubics), so that a 30 s run times each of its six
# inputs three or four times. Enumeration cost depends on p alone (p^3 and p^2 tuples), so
# a fixed grid gives every seed the same work; the seed draws the
# equations on it.
QUADRIC_PRIMES = (47, 61)
CUBIC_PRIMES = (307, 401, 503, 601)

WEIL_QS = (5, 7, 9, 11, 25, 27, 49, 97, 121, 125)
# Job time grows with genus, so times form one cluster per genus, and a
# quantile that falls between two clusters jumps from seed to seed. With
# genus 3 listed three times the median lands inside the genus-3 cluster.
# Each slot is drawn twice per q: 120 series, so the number of slow
# NoConvergence failures, which moves every statistic, varies less from
# seed to seed than it would over 60.
WEIL_GENERA = (1, 2, 3, 3, 3, 4) * 2
# Every OUTSIDE_EVERY-th series of a run gets one trace outside the
# Hasse range, so a fixed share of verdicts must come out FAIL.
OUTSIDE_EVERY = 8

WORKLOADS = ("cli_corpus", "extfield_weil", "primefield_count", "weil_verdicts")


@dataclass
class Job:
    """One unit of work with its expected result."""

    id: str
    kind: str
    expected: dict
    argv: list = field(default_factory=list)
    variety: str | None = None  # text of the generated file at argv[1]
    series: dict | None = None  # weil_verdicts input

    def describe(self):
        if self.series is not None:
            return {"series": self.series}
        return {"argv": self.argv}


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _input_path(workload, seed, job_id):
    return f"{INPUT_DIR}/{workload}-{seed}-{job_id}.variety"


def _weierstrass(rng, p):
    """Random (a, b, c) with x^3 + a x^2 + b x + c square-free mod p."""
    while True:
        a, b, c = (rng.randrange(p) for _ in range(3))
        if oracles.cubic_discriminant(a, b, c) % p:
            return a, b, c


def weierstrass_text(p, a, b, c):
    return (f"field p={p}\nambient projective dim=2 vardim=1\n"
            f"poly X1^2*X2 - X0^3 - {a}*X0^2*X2 - {b}*X0*X2^2 - {c}*X2^3\n")


def quadric_text(p, coeffs):
    terms = " + ".join(f"{c}*X{i}^2" for i, c in enumerate(coeffs))
    return f"field p={p}\nambient projective dim=3 vardim=2\npoly {terms}\n"


def _cli_corpus(seed):
    order = list(CLI_CORPUS)
    _rng("cli_corpus", seed).shuffle(order)
    return [Job(id=name, kind="golden", argv=list(argv),
                expected={"code": 0, "golden": name})
            for name, argv in order]


def _extfield_weil(seed):
    rng = _rng("extfield_weil", seed)
    jobs = []
    for k, (p, mmax) in enumerate(EXTFIELD_FIELDS):
        a, b, c = _weierstrass(rng, p)
        job_id = f"{k}-F{p}"
        jobs.append(Job(
            id=job_id, kind="weil",
            argv=["weil", _input_path("extfield_weil", seed, job_id),
                  "--mmax", str(mmax), "--betti", "1,2,1"],
            variety=weierstrass_text(p, a, b, c),
            expected={"code": 0, "verdict": "PASS", "betti": "(1, 2, 1)",
                      "counts": list(oracles.weierstrass_counts(p, a, b, c, mmax))}))
    return jobs


def _primefield_count(seed):
    rng = _rng("primefield_count", seed)
    jobs = []
    for p in QUADRIC_PRIMES:
        coeffs = [rng.randrange(1, p) for _ in range(4)]
        job_id = f"quadric-p{p}"
        jobs.append(Job(
            id=job_id, kind="count",
            argv=["count", _input_path("primefield_count", seed, job_id), "--mmax", "1"],
            variety=quadric_text(p, coeffs),
            expected={"code": 0,
                      "counts": [oracles.diagonal_quadric_count(p, coeffs)]}))
    for p in CUBIC_PRIMES:
        a, b, c = _weierstrass(rng, p)
        job_id = f"cubic-p{p}"
        jobs.append(Job(
            id=job_id, kind="count",
            argv=["count", _input_path("primefield_count", seed, job_id), "--mmax", "1"],
            variety=weierstrass_text(p, a, b, c),
            expected={"code": 0,
                      "counts": list(oracles.weierstrass_counts(p, a, b, c, 1))}))
    return jobs


def _weil_series(rng, q, g, outside):
    """Traces drawn uniformly (repeats allowed) and their count series.

    Series with a negative count are drawn again, because no variety has
    them; nothing else is filtered.
    """
    bound = isqrt(4 * q)  # largest |a| with a^2 <= 4q
    while True:
        traces = [rng.randint(-bound, bound) for _ in range(g)]
        if outside:
            traces[rng.randrange(g)] = rng.choice((-1, 1)) * (bound + rng.randint(1, 3))
        counts = oracles.weil_counts(q, traces, 2 * g + 2)
        if min(counts) >= 0:
            return traces, counts


def _weil_verdicts(seed):
    rng = _rng("weil_verdicts", seed)
    jobs = []
    for q in WEIL_QS:
        for g in WEIL_GENERA:
            outside = len(jobs) % OUTSIDE_EVERY == OUTSIDE_EVERY - 1
            traces, counts = _weil_series(rng, q, g, outside)
            jobs.append(Job(
                id=f"{len(jobs)}-g{g}-q{q}", kind="verdict",
                series={"q": q, "traces": traces, "counts": list(counts)},
                expected=oracles.weil_expectation(q, traces)))
    return jobs


_GENERATORS = {
    "cli_corpus": _cli_corpus,
    "extfield_weil": _extfield_weil,
    "primefield_count": _primefield_count,
    "weil_verdicts": _weil_verdicts,
}


def jobs(workload, seed):
    """The inputs of one run of a workload, a pure function of its arguments."""
    return _GENERATORS[workload](seed)


# --- checking subprocess reports ---

def report_lines(text):
    """Report lines that must be reproducible: all but '# timing' lines."""
    return [line for line in text.split("\n") if not line.startswith("# timing")]


def golden_lines(name):
    return report_lines((GOLDENS / f"{name}.txt").read_text(encoding="utf-8"))


def parse_report(text):
    """Counts, verdict and Betti degrees as printed by `count` or `weil`."""
    out = {"counts": []}
    for line in report_lines(text):
        if line.startswith("  N_"):
            out["counts"].append(int(line.split("=", 1)[1]))
        elif line.startswith("verdict: "):
            out["verdict"] = line[len("verdict: "):]
        elif line.startswith("betti degrees: "):
            out["betti"] = line[len("betti degrees: "):]
    return out


def check_report(job, code, text):
    """(ok, actual) for a finished subprocess job."""
    if job.kind == "golden":
        lines = report_lines(text)
        expected = golden_lines(job.expected["golden"])
        diff = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
                    None if len(lines) == len(expected) else min(len(lines), len(expected)))
        actual = {"code": code, "first_diff_line": diff}
        return code == job.expected["code"] and diff is None, actual
    actual = dict(parse_report(text), code=code)
    ok = all(actual.get(k) == v for k, v in job.expected.items())
    return ok, actual


# --- the in-process weil pipeline ---

def _candidate(zeta, errors, series, q, num_deg, den_deg):
    """Pade -> weights -> FE -> RH for one degree split, scored by stages passed."""
    result = {}
    try:
        z = zeta.pade_reconstruct(series, num_deg, den_deg)
    except errors.MathCheckError as exc:
        return 0, result, exc
    result["z"] = z
    try:
        fact = zeta.weight_split(z, q, 1)
    except errors.MathCheckError as exc:
        return 1, result, exc
    result["fact"] = fact
    if not fact.parity_ok:
        return 1, result, errors.MathCheckError("weights on the wrong side")
    try:
        sign = zeta.functional_equation_check(z, q, 1, fact.chi)
    except errors.MathCheckError as exc:
        return 2, result, exc
    result["fact"] = fact = zeta.with_sign(fact, sign)
    result["sign"] = sign
    reports = [zeta.rh_check(poly, q, i) for i, poly in fact.factors]
    if not all(rep.passed for rep in reports):
        return 3, result, errors.MathCheckError("root modulus bound violated")
    return 4, result, None


def _ints(poly):
    return [int(c) for c in poly]


def weil_pipeline(zeta, errors, series):
    """The public calls `weilzeta weil` makes, ranked as it ranks them.

    Scans every num + den = m_max Pade split, keeps the candidate that
    passed the most stages (ties to the larger denominator), then applies
    the Betti check with (1, 2g, 1). Exceptions other than MathCheckError
    propagate, as they do from the command line.
    """
    q, counts = series["q"], series["counts"]
    g = len(series["traces"])
    mmax = len(counts)
    s = zeta.zeta_series(counts)
    best = None
    for num_deg in range(mmax + 1):
        den_deg = mmax - num_deg
        score, result, failure = _candidate(zeta, errors, s, q, num_deg, den_deg)
        if best is None or (score, den_deg) > best[0]:
            best = ((score, den_deg), result, failure)
    _, result, failure = best
    ok = failure is None
    actual = {}
    if "z" in result:
        actual["den"] = _ints(result["z"].den)
    if "fact" in result:
        fact = result["fact"]
        actual["p1"] = _ints(fact.factor(1))
        actual["chi"] = fact.chi
        try:
            flags = zeta.betti_check(fact, (1, 2 * g, 1))
        except errors.WeilZetaError:
            ok = False
        else:
            actual["betti"] = [len(poly) - 1 for _, poly in fact.factors]
            ok = ok and all(flags)
    if "sign" in result:
        actual["sign"] = result["sign"]
    if failure is not None:
        actual["failure"] = type(failure).__name__
    actual["verdict"] = "PASS" if ok else "FAIL"
    return actual


def check_verdict(job, actual):
    return all(actual.get(k) == v for k, v in job.expected.items())
