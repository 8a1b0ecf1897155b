"""End-to-end tests for the command-line interface."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weilzeta import qpoly
from weilzeta.cli import _COMMANDS, main, parse_args
from weilzeta.errors import FunctionalEquationViolated
from weilzeta.ffield import DEFAULT_BUDGET, is_prime, primes_in_range
from weilzeta.variety import PointCountSeries
from weilzeta.zeta import (RationalFunctionQ, _pipeline_candidate, point_count_from_zeta,
                           zeta_series)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_projective_line(capsys, tmp_path):
    path = tmp_path / "p1.variety"
    path.write_text("field p=2\nambient projective dim=1 vardim=1\n")
    code, out, _ = _run(capsys, ["count", str(path), "--mmax", "3"])
    assert code == 0
    assert "N_1 = 3" in out
    assert "N_2 = 5" in out
    assert "N_3 = 9" in out


def test_count_elliptic_curve_sample(capsys):
    code, out, _ = _run(capsys, ["count", str(SAMPLES / "ell_f5.variety"), "--mmax", "2"])
    assert code == 0
    assert "N_1 = 8" in out
    assert "N_2 = 32" in out


def test_count_malformed_file_exits_2(capsys):
    code, out, err = _run(capsys, ["count", str(SAMPLES / "bad_token.variety")])
    assert code == 2
    assert "error: ParseError" in err


def test_count_missing_file_fails_cleanly(capsys):
    code, _, err = _run(capsys, ["count", str(SAMPLES / "missing.variety")])
    assert code == 1
    assert err.startswith("error:")


def test_count_budget_exceeded_exits_3(capsys):
    code, _, err = _run(
        capsys, ["count", str(SAMPLES / "ell_f5.variety"), "--mmax", "1", "--budget", "5"]
    )
    assert code == 3
    assert "EnumerationBudgetExceeded" in err


def test_count_budget_fails_fast_on_huge_ambient_spaces(capsys, tmp_path):
    cases = [(f"field p=5\nambient {ambient} dim=1000000 vardim=0\n", [])
             for ambient in ("affine", "projective")]
    # a single projective point, whose count still needs tables of F_{p^m}
    point = "ambient projective dim=0 vardim=0\npoly X0\n"
    cases += [(f"field p=2\n{point}", ["--mmax", "40", "--budget", "1000"]),
              (f"field p=1000000007\n{point}", [])]
    for k, (text, flags) in enumerate(cases):
        path = tmp_path / f"huge{k}.variety"
        path.write_text(text)
        start = time.perf_counter()
        code, _, err = _run(capsys, ["count", str(path), *flags])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "EnumerationBudgetExceeded" in err


@pytest.mark.parametrize("ambient, nvars, poly", [
    ("affine", 10**12, "X0 + 1"),
    ("projective", 10**12 + 1, "X0 - X1000000000000"),
])
def test_count_parse_cost_does_not_grow_with_the_declared_dimension(
        capsys, tmp_path, ambient, nvars, poly):
    path = tmp_path / "huge.variety"
    path.write_text(f"field p=5\nambient {ambient} dim={10**12} vardim=0\npoly {poly}\n")
    start = time.perf_counter()
    code, _, err = _run(capsys, ["count", str(path)])
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert err == (f"error: EnumerationBudgetExceeded: enumerating {nvars} coordinates "
                   f"over F_5^1 exceeds budget {DEFAULT_BUDGET} tuples\n")


_CHAIN = "field p=2\nambient affine dim=20000 vardim=0\npoly " + "*".join(
    f"X{i}" for i in range(20000)) + "\n"
_SQUARES = "field p=2\nambient affine dim=6000 vardim=0\npoly " + " + ".join(
    f"X{i}^2" for i in range(6000)) + "\n"
_POWER_LINES = "field p=5\nambient affine dim=2 vardim=1\n" + "poly (X0 + X1 + 1)^40\n" * 3000
_CONIC_F2 = "field p=2\nambient projective dim=2 vardim=1\npoly X0*X1 + X2^2\n"


@pytest.mark.parametrize("text, argv, code, seconds, message", [
    # parse cost follows the text, then the ambient space passes the budget
    (_CHAIN, ["count", "--mmax", "1"], 3, 2.0, "enumerating 20000 coordinates"),
    (_SQUARES, ["count", "--mmax", "1"], 3, 2.0, "enumerating 6000 coordinates"),
    # each line expands 3,720 term pairs; line 73 takes the file past the limit
    (_POWER_LINES, ["count", "--mmax", "1"], 2, 2.0,
     "ParseError: line 73 col 19: product of 30 by 30 terms takes this file past "
     "262144 term pairs"),
    # one-point and all-zero files still count over F_{p^m}, so p^m <= budget
    ("field p=2\nambient affine dim=0 vardim=0\n", ["count", "--mmax", "100000"], 3, 1.0,
     "tables of F_2^25 exceed budget 16777216 elements"),
    ("field p=2\nambient projective dim=0 vardim=0\npoly 2*X0\n",
     ["weil", "--mmax", "100000"], 3, 1.0, "tables of F_2^25 exceed budget 16777216 elements"),
    # the budget of every m is checked before any m is counted; counting
    # m = 1..11 of this conic, which the budget admits, takes seconds
    (_CONIC_F2, ["count", "--mmax", "40"], 3, 1.0,
     "enumerating 3 coordinates over F_2^12 exceeds budget 16777216 tuples"),
    (_CONIC_F2, ["weil", "--mmax", "40"], 3, 1.0,
     "enumerating 3 coordinates over F_2^12 exceeds budget 16777216 tuples"),
], ids=["product-chain", "sum-of-squares", "power-lines", "count-mmax", "weil-mmax",
        "count-mmax-conic", "weil-mmax-conic"])
def test_hostile_inputs_fail_fast_in_a_fresh_process(tmp_path, text, argv, code, seconds,
                                                     message):
    path = tmp_path / "hostile.variety"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    # the timeout turns a regression into a failure instead of a hang
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", argv[0], str(path), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == code, done.stderr[-2000:]
    assert message in done.stderr
    assert elapsed < seconds


def test_large_imprimitive_matrix_is_refused_fast_in_a_fresh_process(tmp_path):
    # a 60 x 60 cyclic permutation: no power is positive, and deciding that
    # takes 12 squarings of the positivity pattern, not 3,482 products
    b = 60
    path = tmp_path / "cycle.matrix"
    path.write_text("".join(" ".join("1" if j == (i + 1) % b else "0" for j in range(b)) + "\n"
                            for i in range(b)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", "dimgroup", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2, done.stderr[-2000:]
    assert "NotPrimitive: no power up to 3482 has all entries positive" in done.stderr
    assert elapsed < 2.0


def _sqrt2_lattice(root="1, 2", gen="0 1"):
    return f"field minpoly=-2 0 1\nroot in [{root}]\ngen 1 0\ngen {gen}\n"


# the first five were tracebacks or hangs before literals were bounded; the
# last has literals inside the bound, but its report has numbers longer than
# the interpreter's int-to-str limit
@pytest.mark.parametrize("text, message", [
    (_sqrt2_lattice(root="1, 1e5000"), "ParseError: line 2: a number has more than 1000 digits"),
    (_sqrt2_lattice(gen="0 1e999999"), "ParseError: line 4: a number has more than 1000 digits"),
    (_sqrt2_lattice(gen="1e-99999 1"), "ParseError: line 4: a number has more than 1000 digits"),
    (_sqrt2_lattice(gen="1e4000 1"), "ParseError: line 4: a number has more than 1000 digits"),
    (_sqrt2_lattice(gen="0 1e99999999"),
     "ParseError: line 4: a number has more than 1000 digits"),
    ("field minpoly=-2 0 0 1\nroot in [1, 2]\ngen 1 0 0\ngen 1e999 1e999 1\n"
     "gen 1e-999 1e999 3e999\n", "InvalidInput: a number in the report is too long to print"),
], ids=["root-1e5000", "gen-1e999999", "gen-1e-99999", "gen-1e4000", "gen-1e99999999",
        "derived-entry"])
def test_hostile_lattice_literals_fail_fast_in_a_fresh_process(tmp_path, text, message):
    path = tmp_path / "hostile.lattice"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", "lattice", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {message}"), done.stderr[-2000:]
    assert elapsed < 2.0


def _long_quartic_lattice(digits):
    """Z + three generators in Q(2^(1/4)) whose coordinates are drawn from
    [-10^digits, 10^digits] by random.Random(1)."""
    rng = random.Random(1)
    return "field minpoly=-2 0 0 0 1\nroot in [1, 2]\ngen 1 0 0 0\n" + "".join(
        "gen " + " ".join(str(rng.randint(-10 ** digits, 10 ** digits)) for _ in range(4)) + "\n"
        for _ in range(3))


# the endomorphism ring of each has full rank; before its entries were
# kept below a modulus, the first two took 2-7 s and the last over a minute
@pytest.mark.parametrize("digits, code, expected", [
    (30, 0, "endomorphism ring rank: 4\n"),
    (100, 0, "endomorphism ring rank: 4\n"),
    (999, 2, "error: InvalidInput: a number in the report is too long to print"),
], ids=["30-digit", "100-digit", "999-digit"])
def test_rank_4_lattice_with_long_coordinates_ends_fast_in_a_fresh_process(tmp_path, digits,
                                                                          code, expected):
    path = tmp_path / "long.lattice"
    path.write_text(_long_quartic_lattice(digits))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", "lattice", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == code, done.stderr[-2000:]
    assert expected in (done.stdout if code == 0 else done.stderr), done.stderr[-2000:]
    assert "Traceback" not in done.stderr
    assert elapsed < 2.0


def test_field_tables_to_2_16_build_fast_in_a_fresh_process(tmp_path):
    # no point of P^0 over F_2 satisfies X0 = 0, so the run is the Zech
    # tables of F_2^m for m = 1..16, 2^17 entries in all
    path = tmp_path / "p0.variety"
    path.write_text("field p=2\nambient projective dim=0 vardim=0\npoly X0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", "count", str(path),
                           "--mmax", "16"], env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr[-2000:]
    assert "N_16 = 0" in done.stdout
    assert elapsed < 2.0


def test_weil_projective_plane(capsys):
    code, out, _ = _run(capsys, ["weil", str(SAMPLES / "p2_f3.variety"), "--mmax", "3"])
    assert code == 0
    assert "verdict: PASS" in out
    assert "(1) / (1 - 13*t + 39*t^2 - 27*t^3)" in out
    assert "P_0 = 1 - t" in out
    assert "P_2 = 1 - 3*t" in out
    assert "P_4 = 1 - 9*t" in out
    assert "functional equation sign: -1" in out


def test_weil_elliptic_curve_full_pipeline(capsys):
    code, out, _ = _run(
        capsys,
        ["weil", str(SAMPLES / "ell_f5.variety"), "--mmax", "4", "--betti", "1,2,1"],
    )
    assert code == 0
    assert "verdict: PASS" in out
    assert "P_1 = 1 + 2*t + 5*t^2" in out
    assert "functional equation sign: +1" in out
    assert "b_1: pass" in out


def test_weil_betti_mismatch_fails(capsys):
    code, out, _ = _run(
        capsys,
        ["weil", str(SAMPLES / "ell_f5.variety"), "--mmax", "4", "--betti", "1,3,1"],
    )
    assert code == 1
    assert "verdict: FAIL" in out
    assert "b_1: FAIL" in out


def test_weil_wrong_vardim_fails(capsys, tmp_path):
    path = tmp_path / "wrong.variety"
    path.write_text("field p=2\nambient projective dim=1 vardim=0\n")
    code, out, _ = _run(capsys, ["weil", str(path), "--mmax", "2"])
    assert code == 1
    assert "verdict: FAIL" in out
    assert "WeightOutOfRange" in out


def _candidate(num, den, q, num_deg, den_deg):
    """_pipeline_candidate on the series of the curve zeta function num/den."""
    z = RationalFunctionQ(num, den)
    counts = tuple(point_count_from_zeta(z, m) for m in range(1, num_deg + den_deg + 1))
    series = zeta_series(PointCountSeries(q, counts))
    return _pipeline_candidate(series, 1, q, num_deg, den_deg)


def _trivial_den(q):
    return qpoly.mul((1, -1), (1, -q))


def test_weil_candidate_failure_ladder():
    # a weight-1 factor in the denominator: parity fails after weight_split
    den = qpoly.mul(_trivial_den(5), (1, -2, 5))
    score, result, failure = _candidate((1,), den, 5, 0, 4)
    assert score == 1
    assert str(failure) == "factor weights contradict their numerator/denominator side"
    assert result["fact"].misplaced == ((1, "den", (1, -2, 5)),)
    # |a_2| = 7 is not q = 5, so Z(1/(q t)) is no multiple of Z(t)
    score, result, failure = _candidate((1, -2, 7), _trivial_den(5), 5, 2, 2)
    assert score == 2
    assert isinstance(failure, FunctionalEquationViolated)
    assert "sign" not in result
    # real roots of weights 0.98 and 1.02 pass the 0.25 weight tolerance and
    # the functional equation, but not the root-modulus bound
    score, result, failure = _candidate((1, -201, 10007), _trivial_den(10007), 10007, 2, 2)
    assert score == 3
    assert str(failure) == "root modulus bound violated"
    assert result["sign"] == 1
    assert [(i, rep.passed) for i, rep in result["rh"]] == [(0, True), (1, False), (2, True)]


def test_weil_candidate_keeps_a_squared_factor():
    square = qpoly.mul((1, 2, 5), (1, 2, 5))
    score, result, failure = _candidate(square, _trivial_den(5), 5, 4, 2)
    assert (score, failure) == (4, None)
    assert result["fact"].factors == ((0, (1, -1)), (1, square), (2, (1, -5)))
    assert all(rep.passed for _, rep in result["rh"])


def test_weil_tolerances_are_fixed_and_printed(capsys):
    code, out, _ = _run(capsys, ["weil", str(SAMPLES / "ell_f5.variety"), "--mmax", "4"])
    assert code == 0
    assert "rh tolerance: 1e-09\nweight tolerance: 0.25\n" in out
    assert "rh check (tol 1e-09):" in out
    for flag in ("--rh-tol", "--weight-tol"):
        with pytest.raises(SystemExit) as info:
            main(["weil", str(SAMPLES / "ell_f5.variety"), flag, "0.1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err


def test_cm_sweep_reports_zero_mismatches(capsys):
    code, out, _ = _run(capsys, ["cm", "5", "37"])
    assert code == 0
    assert "p=5: gross=-2 brute=-2" in out
    assert "p=13: gross=6 brute=6" in out
    assert "mismatches: 0" in out
    assert "verdict: PASS" in out


def test_cm_budget_caps_the_sum_of_the_primes(capsys):
    # each ec_count sweep visits p x-values; the primes 5 .. 17659 sum past
    # the default budget 2^24, the primes 5 .. 17657 do not
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cm", "5", str(10**30)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "EnumerationBudgetExceeded" in err
    assert sum(primes_in_range(5, 17657)) <= DEFAULT_BUDGET
    assert sum(primes_in_range(5, 17659)) > DEFAULT_BUDGET
    assert _run(capsys, ["cm", "17659", "17659"])[0] == 0
    assert _run(capsys, ["cm", "5", "17659"])[0] == 3


def test_lattice_sqrt2_report(capsys):
    code, out, _ = _run(capsys, ["lattice", str(SAMPLES / "sqrt2.lattice")])
    assert code == 0
    assert "endomorphism ring rank: 2" in out
    assert "matrix [[0, 2], [1, 0]]" in out
    assert "endomorphism matrices commute: yes" in out
    assert "density witness" in out
    assert "verdict: PASS" in out


def test_lattice_cubic_sample_rank_one(capsys):
    code, out, _ = _run(capsys, ["lattice", str(SAMPLES / "cbrt2.lattice")])
    assert code == 0
    assert "endomorphism ring rank: 1" in out


def test_dimgroup_report(capsys):
    code, out, _ = _run(
        capsys, ["dimgroup", str(SAMPLES / "hecke_3111.matrix"), "--det-check", "2"]
    )
    assert code == 0
    assert "lambda minpoly: 2 - 4*x + x^2" in out
    assert "level coherence tau(v,k) = tau(Tv,k+1): exact" in out
    assert "shift scaling tau(shift x) = lambda*tau(x): exact" in out
    assert "minimal polynomial: 1 - 4*x + 2*x^2" in out
    assert "verified algebraic unit: false" in out
    assert "verdict: PASS" in out


def test_dimgroup_report_with_a_rational_eigenvalue(capsys, tmp_path):
    path = tmp_path / "t3.matrix"
    path.write_text("0 0 1\n0 0 1\n1 1 2\n")
    code, out, _ = _run(capsys, ["dimgroup", str(path)])
    assert code == 0
    assert "lambda minpoly: -2 - 2*x + x^2" in out
    assert "lambda isolated in: [3/2, 3]" in out
    assert "lambda: 2.73205080756887729352744634151" in out
    assert "  w_2 = (1, 0) ~ 1\n" in out
    assert "  w_3 = (0, 1) ~ 2.73205080756887729352744634151" in out
    assert "verdict: PASS" in out


def test_dimgroup_det_check_mismatch_exits_2(capsys):
    code, _, err = _run(
        capsys, ["dimgroup", str(SAMPLES / "hecke_3111.matrix"), "--det-check", "3"]
    )
    assert code == 2
    assert "InvalidInput" in err


def test_out_flag_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = _run(
        capsys,
        ["count", str(SAMPLES / "ell_f5.variety"), "--mmax", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert "N_1 = 8" in text


@pytest.mark.parametrize("argv, message", [
    (["count", "ELL", "--budget", "0"], "budget must be at least 1"),
    (["weil", "ELL", "--budget", "0"], "budget must be at least 1"),
    (["count", "ELL", "--mmax", "0"], "mmax must be at least 1"),
    (["weil", "ELL", "--mmax", "0"], "mmax must be at least 1"),
    (["weil", "ELL", "--betti", "1,x"], "--betti expects comma-separated integers"),
    (["cm", "9", "5"], "pmin must not exceed pmax"),
    # a negative number after a flag is its value, so main's check sees it
    (["count", "ELL", "--mmax", "-3"], "mmax must be at least 1"),
    # checked before the file is read, so a missing path does not matter
    (["dimgroup", str(SAMPLES / "missing.matrix"), "--det-check", "1"],
     "det-check must be at least 2"),
])
def test_invalid_flag_values_exit_2_before_any_work(capsys, argv, message):
    argv = [str(SAMPLES / "ell_f5.variety") if a == "ELL" else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: InvalidInput: {message}\n"


def test_cli_flag_validation_exits_2(capsys):
    code, _, err = _run(
        capsys, ["count", str(SAMPLES / "ell_f5.variety"), "--budget", "0"]
    )
    assert code == 2
    assert "InvalidInput" in err


_TOP = "usage: weilzeta [-h] {count,weil,cm,lattice,dimgroup} ..."


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        f"{_TOP}\nweilzeta: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'count', 'weil', 'cm', 'lattice', 'dimgroup')\n")


_COUNT = {"command": "count", "run": "cmd_count", "out": None, "path": "P",
          "mmax": 2, "budget": DEFAULT_BUDGET}
_CM = {"command": "cm", "run": "cmd_cm", "out": None, "pmin": 5, "pmax": 97}


# each namespace is the one argparse returned for the same argv
_ACCEPTED = [
    (["count", "P", "--mmax", "3"], {**_COUNT, "mmax": 3}),
    (["count", "--mmax=3", "P"], {**_COUNT, "mmax": 3}),
    (["count", "--mmax", "3", "P", "--budget=9"], {**_COUNT, "mmax": 3, "budget": 9}),
    (["count", "P", "--mmax", "1", "--mmax", "4"], {**_COUNT, "mmax": 4}),
    (["count", "P", "--mmax", "-3"], {**_COUNT, "mmax": -3}),
    (["count", "P", "--out", "-1"], {**_COUNT, "out": "-1"}),
    (["count", "P", "--out="], {**_COUNT, "out": ""}),
    (["count", "-1.5"], {**_COUNT, "path": "-1.5"}),
    (["count", "--", "-P"], {**_COUNT, "path": "-P"}),
    (["count", "-a b", "--out", "-c d"], {**_COUNT, "path": "-a b", "out": "-c d"}),
    (["weil", "P", "--betti", "1,2,1", "--out", "o"],
     {**_COUNT, "command": "weil", "run": "cmd_weil", "mmax": 4, "betti": "1,2,1",
      "out": "o"}),
    (["cm"], _CM),
    (["cm", "-5", "10"], {**_CM, "pmin": -5, "pmax": 10}),
    (["cm", "--out", "f", "5", "7"], {**_CM, "out": "f", "pmin": 5, "pmax": 7}),
    (["cm", "5", "7", "--out", "f"], {**_CM, "out": "f", "pmin": 5, "pmax": 7}),
    (["lattice", "P"], {"command": "lattice", "run": "cmd_lattice", "out": None,
                        "path": "P"}),
    (["dimgroup", "P"], {"command": "dimgroup", "run": "cmd_dimgroup", "out": None,
                         "path": "P", "det_check": None}),
    (["dimgroup", "--det-check", "2", "P"],
     {"command": "dimgroup", "run": "cmd_dimgroup", "out": None, "path": "P",
      "det_check": 2}),
]


def _ids(cases):
    return [" ".join(case[0]) or "no-arguments" for case in cases]


@pytest.mark.parametrize("argv, expected", _ACCEPTED, ids=_ids(_ACCEPTED))
def test_parser_accepted_forms(argv, expected):
    args = vars(parse_args(argv))
    assert {**args, "run": args["run"].__name__} == expected


_COUNT_USAGE = "usage: weilzeta count [-h] [--out OUT] [--mmax MMAX] [--budget BUDGET] path"
_REJECTED = [
    (["--out", "x", "count", "P"], _TOP,
     "weilzeta: error: argument command: invalid choice: 'x' "
     "(choose from 'count', 'weil', 'cm', 'lattice', 'dimgroup')"),
    ([], _TOP, "weilzeta: error: the following arguments are required: command"),
    (["count"], _COUNT_USAGE,
     "weilzeta count: error: the following arguments are required: path"),
    (["count", "P", "--mmax"], _COUNT_USAGE,
     "weilzeta count: error: argument --mmax: expected one argument"),
    (["count", "P", "--mmax", "--budget", "3"], _COUNT_USAGE,
     "weilzeta count: error: argument --mmax: expected one argument"),
    (["count", "P", "--mmax", "q"], _COUNT_USAGE,
     "weilzeta count: error: argument --mmax: invalid int value: 'q'"),
    (["count", "P", "--mmax="], _COUNT_USAGE,
     "weilzeta count: error: argument --mmax: invalid int value: ''"),
    (["dimgroup", "P", "--det-check", "x"],
     "usage: weilzeta dimgroup [-h] [--out OUT] [--det-check DET_CHECK] path",
     "weilzeta dimgroup: error: argument --det-check: invalid int value: 'x'"),
    (["cm", "x"], "usage: weilzeta cm [-h] [--out OUT] [pmin] [pmax]",
     "weilzeta cm: error: argument pmin: invalid int value: 'x'"),
    (["weil", "P", "--rh-tol", "0.1"], _TOP,
     "weilzeta: error: unrecognized arguments: --rh-tol 0.1"),
    (["count", "P", "extra"], _TOP, "weilzeta: error: unrecognized arguments: extra"),
    (["cm", "5", "7", "9"], _TOP, "weilzeta: error: unrecognized arguments: 9"),
    (["count", "P", "--foo=bar", "baz", "-x"], _TOP,
     "weilzeta: error: unrecognized arguments: --foo=bar baz -x"),
    # flags are matched whole: argparse's prefix abbreviations are gone
    (["count", "P", "--mm", "3"], _TOP, "weilzeta: error: unrecognized arguments: --mm 3"),
]


@pytest.mark.parametrize("argv, usage, message", _REJECTED, ids=_ids(_REJECTED))
def test_parser_rejections_exit_2(capsys, argv, usage, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{usage}\n{message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["count", "P", "--help", "extra"],
                                  *([name, "-h"] for name in _COMMANDS)], ids=" ".join)
def test_parser_help_names_the_table_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out = capsys.readouterr().out
    name = argv[0] if argv[0] in _COMMANDS else None
    assert out.startswith(f"usage: weilzeta {name or ''}".rstrip() + " [-h] ")
    words = [*_COMMANDS] if name is None else [
        *(dest for dest, _, _ in _COMMANDS[name][2]), *_COMMANDS[name][3]]
    assert words and all(f"\n  {word}" in out for word in words)
    assert "-h, --help" in out


def test_timing_lines_are_marked(capsys):
    code, out, _ = _run(capsys, ["count", str(SAMPLES / "p2_f3.variety"), "--mmax", "2"])
    assert code == 0
    assert any(line.startswith("# timing") for line in out.splitlines())


def test_no_command_loads_sympy_or_mpmath(tmp_path):
    # each command in its own fresh `python -m weilzeta.cli` process;
    # -X importtime names every module the process imports (cli itself
    # runs as __main__, so it is not among them)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    base = {"weilzeta", "weilzeta.errors", "weilzeta.ffield"}
    counting = base | {"weilzeta.variety"}
    algebra = base | {"weilzeta.qpoly", "weilzeta.qlinalg"}
    expected = {
        ("count", str(SAMPLES / "p1_f3.variety")): counting,
        # cm counts its curve with cmcurve's own ec_count, without variety
        ("cm", "5", "13"): base | {"weilzeta.cmcurve"},
        ("lattice", str(SAMPLES / "sqrt2.lattice")):
            algebra | {"weilzeta.realalg", "weilzeta.pseudolattice"},
        ("dimgroup", str(SAMPLES / "hecke_3111.matrix")):
            algebra | {"weilzeta.realalg", "weilzeta.dimgroup"},
        ("weil", str(SAMPLES / "ell_f3.variety"), "--mmax", "4"):
            algebra | {"weilzeta.variety", "weilzeta.zeta"},
    }
    for argv, ours in expected.items():
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "weilzeta.cli", *argv,
             "--out", str(tmp_path / "report.txt")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr[-2000:])
        loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {m for m in loaded if m.split(".")[0] == "weilzeta"} == ours, argv[0]
        assert not {m for m in loaded if m.split(".")[0] in ("sympy", "mpmath")}, argv[0]
        # cli reads argv against its own command table
        assert not loaded & {"argparse", "gettext", "locale"}, argv[0]
        # every command runs on ints: weil from the counts to the verdict,
        # lattice and dimgroup on integer Q(theta) elements and digits
        assert not loaded & {"fractions", "decimal", "numbers"}, argv[0]
        if argv[0] == "count":
            assert "weilzeta.cmcurve" not in loaded


@pytest.mark.parametrize("argv", [
    ("count", str(SAMPLES / "p1_f3.variety")),
    ("cm", "5", "13"),
    ("lattice", str(SAMPLES / "sqrt2.lattice")),
    ("dimgroup", str(SAMPLES / "hecke_3111.matrix")),
    ("weil", str(SAMPLES / "ell_f3.variety"), "--mmax", "4"),
], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses(tmp_path, argv):
    # the records are plain __slots__ classes; dataclasses would bring
    # inspect, ast, dis and tokenize into every job's start-up. The
    # command's own module shows that the import list was captured.
    own = {"count": "variety", "weil": "variety", "cm": "cmcurve",
           "lattice": "pseudolattice", "dimgroup": "dimgroup"}[argv[0]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "weilzeta.cli", *argv,
         "--out", str(tmp_path / "report.txt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert f"weilzeta.{own}" in loaded
    assert "dataclasses" not in loaded


def test_tracer_entry_points_delegate_to_the_library():
    # perfbench/tracer.py patches these names on weilzeta.cli; each must
    # still return what its library function returns
    from weilzeta import cli, cmcurve, variety

    path = SAMPLES / "p1_f3.variety"
    ours, theirs = cli.load_variety(path), variety.load_variety(path)
    assert [(v.p, v.ambient, v.ambient_dim, v.vardim, [str(f) for f in v.polys])
            for v in (ours, theirs)] == [(3, "projective", 1, 1, [])] * 2
    assert cli.ec_count(-1, 0, 13) == cmcurve.ec_count(-1, 0, 13) == 8
    assert cli.grossencharacter_trace_d1(13) == cmcurve.grossencharacter_trace_d1(13) == 6
    assert cli.count_via_character(6, 13) == cmcurve.count_via_character(6, 13) == 8
    assert cli.frobenius_trace(-1, 0, 13) == cmcurve.frobenius_trace(-1, 0, 13) == 6


@pytest.mark.parametrize("command", ["count", "weil", "lattice", "dimgroup"])
def test_non_utf8_input_file_exits_2_naming_the_file(tmp_path, command):
    # the start of an ELF binary: byte 8 can start no UTF-8 character
    path = tmp_path / "binary.input"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", command, str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [
        f"error: ParseError: {path}: not UTF-8 text (byte 8: invalid start byte)"]


def test_weil_over_a_prime_beyond_doubles_fails_without_traceback(tmp_path):
    # P^0 over the least prime above 2^1100: Z(t) = 1/(1 - t), and the
    # root-modulus deviation would need q as a double
    p = 2 ** 1100 + 2191
    assert is_prime(p)
    path = tmp_path / "p0.variety"
    path.write_text(f"field p={p}\nambient projective dim=0 vardim=0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "weilzeta.cli", "weil", str(path),
                           "--mmax", "2", "--budget", str(2 ** 2300)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "error: InvalidInput: q^(0/2) with q of 1101 bits overflows a double"]
