"""Checks of the benchmark's own oracles, input generation and statistics."""

from itertools import product

import oracles
import run
import workloads


def _brute_curve_count(p, a, b, c):
    affine = sum(1 for x, y in product(range(p), repeat=2)
                 if (y * y - (x ** 3 + a * x * x + b * x + c)) % p == 0)
    return affine + 1


def _brute_quadric_count(p, coeffs):
    affine = sum(1 for v in product(range(p), repeat=4)
                 if sum(c * x * x for c, x in zip(coeffs, v)) % p == 0)
    return (affine - 1) // (p - 1)


def test_curve_oracle_matches_readme_values_for_ell_f5():
    assert oracles.weierstrass_counts(5, 0, -1, 0, 4) == (8, 32, 104, 640)


def test_quadric_oracle_hand_value():
    assert oracles.diagonal_quadric_count(61, (1, 2, 3, 5)) == 3722


def test_curve_oracle_matches_brute_force():
    for p in (3, 5, 7, 11):
        for a, b, c in product(range(p), repeat=3):
            if oracles.cubic_discriminant(a, b, c) % p:
                n1 = oracles.weierstrass_counts(p, a, b, c, 1)[0]
                assert n1 == _brute_curve_count(p, a, b, c)


def test_quadric_oracle_matches_brute_force():
    for p in (3, 5, 7):
        for coeffs in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 3, 4), (2, 2, 1, 3)):
            if all(c % p for c in coeffs):
                assert oracles.diagonal_quadric_count(p, coeffs) == \
                    _brute_quadric_count(p, coeffs)


def test_weil_counts_of_one_factor_are_curve_counts():
    # ell_f5 has trace 5 + 1 - 8 = -2
    assert oracles.weil_counts(5, [-2], 4) == (8, 32, 104, 640)


def test_weil_numerator_and_expectation():
    assert oracles.weil_numerator(7, [1, -2]) == (1, 1, 12, 7, 49)
    expected = oracles.weil_expectation(7, [1, -2])
    assert expected["verdict"] == "PASS"
    assert expected["chi"] == -2 and expected["betti"] == [1, 4, 1]
    assert oracles.weil_expectation(7, [1, 6]) == {"verdict": "FAIL"}
    assert oracles.in_hasse_range(5, 7) and not oracles.in_hasse_range(6, 7)


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.jobs(workload, 7)
        assert first == workloads.jobs(workload, 7)
        assert first != workloads.jobs(workload, 8)


def test_weil_series_have_non_negative_counts_and_a_fixed_outside_share():
    for seed in range(5):
        jobs = workloads.jobs("weil_verdicts", seed)
        assert len(jobs) == len(workloads.WEIL_GENERA) * len(workloads.WEIL_QS)
        assert all(min(job.series["counts"]) >= 0 for job in jobs)
        fails = sum(job.expected["verdict"] == "FAIL" for job in jobs)
        assert fails == len(jobs) // workloads.OUTSIDE_EVERY


def test_generated_jobs_stay_in_their_ranges():
    for job in workloads.jobs("primefield_count", 3):
        p = int(job.id.rsplit("p", 1)[1])
        assert all(p % d for d in range(2, p)) and (40 <= p <= 70 or 300 <= p <= 1000)
    fields = [job.id.rsplit("-", 1)[1] for job in workloads.jobs("extfield_weil", 3)]
    assert fields == ["F3"] * 4


def test_every_corpus_job_has_a_golden():
    for name, _ in workloads.CLI_CORPUS:
        assert workloads.golden_lines(name)[0].startswith("= weilzeta ")


def test_check_report_reads_counts_and_verdict():
    job = workloads.jobs("extfield_weil", 0)[0]
    counts = "\n".join(f"  N_{m} = {n}" for m, n in
                       enumerate(job.expected["counts"], start=1))
    text = (f"= weilzeta weil =\n# timing counts: 1.000s\ncounts:\n{counts}\n"
            f"betti degrees: (1, 2, 1)\nverdict: PASS\n")
    assert workloads.check_report(job, 0, text)[0]
    assert not workloads.check_report(job, 0, text.replace("PASS", "FAIL"))[0]
    assert not workloads.check_report(job, 1, text)[0]


def test_tail_has_ten_inputs_beyond_it():
    times = list(range(30, 0, -1))
    value, label = run.tail(times)
    assert value == 20 and sum(t > value for t in times) == 10
    assert label == "p66.7 of n=30 inputs"
    # Too few inputs for that percentile: the slowest one.
    assert run.tail([2, 5, 3])[0] == 5


def test_measure_runs_every_input_and_keeps_attempts_apart():
    class Runner:
        calls = []

        def run(self, job, traced):
            self.calls.append(job)
            return {"id": job, "seconds": 1.0}, None

    attempts = run.measure(Runner(), ["a", "b", "c"], seconds=0, traced=False)
    assert Runner.calls == ["a", "b", "c"]
    assert [[res["id"] for res, _ in tries] for tries in attempts] == [["a"], ["b"], ["c"]]
    assert run.input_medians(attempts) == [1.0, 1.0, 1.0]
