"""weilzeta benchmark: seeded workloads, oracle checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop process runs one job at a time. The seed fixes the run's
inputs; the run goes round them in order until S seconds have passed and
each has run at least once. Subprocess workloads start every job as
``python -m weilzeta.cli ... --out FILE`` with PYTHONPATH=src, exactly as
a user would; ``weil_verdicts`` calls the zeta pipeline in this process.
Every output of every job is checked against the oracles in
``oracles.py`` or the goldens in ``goldens/``. Each input counts once in
``attempted`` and ``failed``, so both depend on the seed alone.
End-to-end times are scaled for the machine's drift (see REFERENCE_S).

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
spends half the time untraced and half traced (each traced CLI job is a
fresh ``perfbench/tracer.py`` process) and reports the per-layer metrics,
including the tracing overhead. The last line of standard output is the
JSON summary; the full record (environment, every job, every span) goes
to perfbench/out/results/. See README.md in this directory for the
definitions and the workload design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
INTERPRETER_PROBES = 5
IMPORT_PROBES = 3
# job_tail_s needs ten inputs beyond the reported percentile and should
# sit above the median; a workload with fewer inputs reports its slowest.
TAIL_MIN_INPUTS = 21

E2E_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer seconds metric -> tracer span names summed into it. A span
# nested inside another span of the same metric is not counted twice.
LAYER_SPANS = {
    "variety.parse_s": ("variety.load_variety",),
    "variety.count_s": ("variety.count_points",),
    "variety.enum_s": (tracer.WARM_SPAN,),
    "ffield.make_field_s": ("ffield.make_field",),
    "zeta.series_s": ("zeta.zeta_series",),
    "zeta.pade_s": ("zeta.pade_reconstruct",),
    "zeta.weight_split_s": ("zeta.weight_split",),
    "zeta.fe_check_s": ("zeta.functional_equation_check",),
    "zeta.rh_check_s": ("zeta.rh_check",),
    "cmcurve.character_s": ("cmcurve.grossencharacter_trace_d1",
                            "cmcurve.count_via_character"),
    "cmcurve.brute_s": ("cmcurve.frobenius_trace", "variety.ec_count"),
    "pseudolattice.endo_ring_s": ("pseudolattice.endo_ring_rank",
                                  "pseudolattice.endo_matrix"),
    "pseudolattice.density_witness_s": ("pseudolattice.density_witness",),
    "dimgroup.build_s": ("dimgroup.build",),
    "dimgroup.checks_s": ("dimgroup.trace_value", "dimgroup.shift",
                          "dimgroup.unit_decomposition"),
    "realalg.decimal_str_s": ("realalg.decimal_str",),
}
SPAN_METRIC = {span: metric for metric, spans in LAYER_SPANS.items() for span in spans}
COUNTERS = ("variety.tuples", "zeta.pade_tried", "zeta.pade_fit",
            "zeta.rh_calls", "cmcurve.primes")
# What one traced job contributes, before the per-run derived metrics.
JOB_KEYS = (*LAYER_SPANS, *COUNTERS, "cli.main_s", "cli.self_s")

LAYER_UNITS = dict(
    {"cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_deps_s": "s",
     "cli.import_mb": "MB", "cli.main_s": "s", "cli.self_s": "s"},
    **{metric: "s" for metric in LAYER_SPANS},
    **{"variety.field_build_s": "s", "variety.tuples_per_s": "1/s",
       "zeta.pade_fit_frac": "ratio", "trace.overhead_s": "s"},
    **{counter: "count" for counter in COUNTERS})


def _spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=None):
    """Run cmd to completion in ROOT; (seconds, exit code, child rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


def _last_line(path):
    lines = [ln for ln in path.read_text(encoding="utf-8", errors="replace").splitlines()
             if ln.strip()]
    return lines[-1][:300] if lines else None


def child_env():
    """This environment with src/ first on PYTHONPATH, as the tests run."""
    src = "src" + (os.pathsep + os.environ["PYTHONPATH"]
                   if os.environ.get("PYTHONPATH") else "")
    return dict(os.environ, PYTHONPATH=src)


# Drift correction. On the reference VM the speed of the machine drifts
# by 10-45% between runs a few minutes apart. A bare interpreter start,
# which runs no weilzeta code, is timed right before every job, and every
# end-to-end time of a run is scaled by REFERENCE_S over the run's median
# start: seconds on a machine whose bare start takes REFERENCE_S.
REFERENCE_S = 0.08


def reference_start(env):
    """Seconds of one bare `python -c pass`."""
    return _spawn([sys.executable, "-c", "pass"], env=env)[0]


class CliRunner:
    """Each job is its own `python -m weilzeta.cli` process (or traced stand-in)."""

    import_s = 0.0  # this process imports nothing of weilzeta

    def __init__(self):
        self.env = child_env()
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        (ROOT / workloads.INPUT_DIR).mkdir(parents=True, exist_ok=True)

    def prepare(self, inputs):
        for job in inputs:
            if job.variety is not None:
                (ROOT / job.argv[1]).write_text(job.variety, encoding="utf-8")

    def run(self, job, traced):
        report, errlog, spans = (self.work / name for name in
                                 ("report.txt", "stderr.txt", "spans.json"))
        for path in (report, spans):
            path.unlink(missing_ok=True)
        args = [*job.argv, "--out", str(report)]
        cmd = ([sys.executable, str(HERE / "tracer.py"), str(spans), *args] if traced
               else [sys.executable, "-m", "weilzeta.cli", *args])
        ref_s = reference_start(self.env)
        with open(errlog, "wb") as err:
            seconds, code, usage = _spawn(cmd, stderr=err, env=self.env)
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        ok, actual = workloads.check_report(job, code, text)
        raised = code != job.expected["code"]
        error = None if ok else (_last_line(errlog) or f"exit code {code}")
        payload = None
        if traced and spans.exists():
            payload = json.loads(spans.read_text(encoding="utf-8"))
        return _result(job, seconds, usage.ru_maxrss / 1024, ok, raised, actual,
                       error, ref_s), payload


class VerdictRunner:
    """weil_verdicts: the zeta pipeline called in this process."""

    def __init__(self):
        self.env = child_env()
        sys.path.insert(0, str(ROOT / "src"))
        start = time.perf_counter()
        from weilzeta import errors, zeta
        self.import_s = time.perf_counter() - start
        self.zeta, self.errors = zeta, errors
        self.recorder = tracer.Recorder()

    def prepare(self, inputs):
        pass

    def run(self, job, traced):
        actual, error = None, None
        ref_s = reference_start(self.env)
        start = time.perf_counter()
        try:
            actual = workloads.weil_pipeline(self.zeta, self.errors, job.series)
        except Exception as exc:  # recorded per job; the run goes on
            cls = type(exc)
            error = f"{cls.__module__}.{cls.__qualname__}: {exc}"[:300]
        seconds = time.perf_counter() - start
        ok = actual is not None and workloads.check_verdict(job, actual)
        payload = self.recorder.take() if traced else None
        return _result(job, seconds, tracer.peak_rss_mb(), ok, actual is None,
                       actual, error, ref_s), payload


def _result(job, seconds, rss_mb, ok, raised, actual, error, ref_s):
    return dict(id=job.id, **job.describe(), expected=job.expected, actual=actual,
                seconds=seconds, rss_mb=rss_mb, ok=ok, raised=raised, error=error,
                ref_s=ref_s)


def set_up(workload, seed, runner):
    """Generate inputs and oracles, then one untimed warm-up job; median of repeats.

    For the in-process workload the import of weilzeta, paid once by this
    process, is added.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workloads.jobs(workload, seed)
        runner.prepare(inputs)
        runner.run(inputs[0], traced=False)
        times.append(time.perf_counter() - start)
    return runner.import_s + statistics.median(times), inputs


def measure(runner, inputs, seconds, traced):
    """Closed loop, one job at a time, round the inputs in order.

    Stops once `seconds` have passed and every input has run; returns each
    input's attempts as (result, payload) pairs.
    """
    attempts = [[] for _ in inputs]
    start = time.perf_counter()
    n = 0
    while n < len(inputs) or time.perf_counter() - start < seconds:
        tries = attempts[n % len(inputs)]
        res, payload = runner.run(inputs[n % len(inputs)], traced)
        tries.append((dict(res, attempt=len(tries)), payload))
        n += 1
    return attempts


def input_medians(attempts):
    """Each input's median job time over its attempts."""
    return [statistics.median(res["seconds"] for res, _ in tries) for tries in attempts]


def tail(medians):
    """(seconds, label): the highest percentile of the input medians with
    ten inputs beyond it, or the slowest input below TAIL_MIN_INPUTS."""
    medians = sorted(medians)
    n = len(medians)
    if n < TAIL_MIN_INPUTS:
        return medians[-1], f"slowest of n={n} inputs"
    return medians[n - 11], f"p{100 * (n - 10) / n:.1f} of n={n} inputs"


def end_to_end(attempts, setup_s, in_process):
    results = [res for tries in attempts for res, _ in tries]
    ref_s = statistics.median(res["ref_s"] for res in results)
    scale = REFERENCE_S / ref_s
    # Statistics over inputs, each its median over its attempts: a run that
    # stops part way round the inputs then weights none of them twice.
    medians = [t * scale for t in input_medians(attempts)]
    tail_s, tail_label = tail(medians)
    peak = tracer.peak_rss_mb() if in_process else max(res["rss_mb"] for res in results)
    metrics = {"wall_s": sum(medians),
               "job_p50_s": statistics.median(medians),
               "job_tail_s": tail_s, "peak_rss_mb": peak, "setup_s": setup_s * scale}
    notes = {"wall_s": f"{len(medians)} input medians summed, "
                       f"from {len(results)} timed jobs",
             "job_p50_s": f"n={len(medians)} inputs", "job_tail_s": tail_label,
             "peak_rss_mb": "this process" if in_process else "largest child ru_maxrss",
             "setup_s": f"median of {SETUP_REPEATS} set-ups"}
    for name in ("wall_s", "job_p50_s", "job_tail_s", "setup_s"):
        notes[name] += f"; measured {metrics[name] / scale:.6g} s"
    notes["scale"] = (f"{scale:.4f} = reference {REFERENCE_S} s / this run's "
                      f"median reference {ref_s:.4f} s, n={len(results)}")
    return metrics, notes


def _job_layer_values(payload):
    """Per-layer sums for one traced job."""
    spans = payload["spans"]
    values = dict.fromkeys(JOB_KEYS, 0.0)
    for name, start, end, parent in spans:
        metric = SPAN_METRIC.get(name)
        if metric is None:
            continue
        while parent is not None and SPAN_METRIC.get(spans[parent][0]) != metric:
            parent = spans[parent][3]
        if parent is None:
            values[metric] += end - start
    for counter in COUNTERS:
        values[counter] = payload["counts"].get(counter, 0)
    warm = sum(end - start for name, start, end, _ in spans if name == tracer.WARM_SPAN)
    for index, (name, start, end, _) in enumerate(spans):
        if name == tracer.MAIN_SPAN:
            children = sum(e - s for _, s, e, p in spans if p == index)
            values["cli.main_s"] += end - start - warm
            values["cli.self_s"] += end - start - children
    return values


def layer_metrics(traced, untraced, probes):
    """Layer totals of one traced pass (each input's mean over its traced
    attempts, summed), plus derived metrics. Times are as measured, unscaled."""
    metrics = dict.fromkeys(JOB_KEYS, 0.0)
    for tries in traced:
        # A traced child that died before writing its spans has no payload.
        payloads = [payload for _, payload in tries if payload is not None]
        for payload in payloads:
            for key, value in _job_layer_values(payload).items():
                metrics[key] += value / len(payloads)
    metrics["variety.field_build_s"] = metrics["variety.count_s"] - metrics["variety.enum_s"]
    enum_s = metrics["variety.enum_s"]
    metrics["variety.tuples_per_s"] = metrics["variety.tuples"] / enum_s if enum_s else 0.0
    tried = metrics["zeta.pade_tried"]
    metrics["zeta.pade_fit_frac"] = metrics["zeta.pade_fit"] / tried if tried else 0.0
    metrics["trace.overhead_s"] = sum(input_medians(traced)) - sum(input_medians(untraced))
    metrics.update(probes)
    return {key: metrics[key] for key in LAYER_UNITS}


def probes(env):
    """Fresh-child costs: bare interpreter, import weilzeta, import its deps."""
    interp = [reference_start(env)
              for _ in range(INTERPRETER_PROBES)]

    def import_probe(modules):
        out = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run(
                [sys.executable, str(HERE / "tracer.py"), "--import-probe", modules],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                timeout=120)
            out.append(json.loads(proc.stdout.splitlines()[-1]))
        return out

    own = import_probe("weilzeta")
    deps = import_probe("sympy,mpmath")
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(p["seconds"] for p in own),
            "cli.import_mb": statistics.median(p["rss_mb"] for p in own),
            "cli.import_deps_s": statistics.median(p["seconds"] for p in deps)}


def environment(seed):
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "sympy": pkg("sympy"),
            "mpmath": pkg("mpmath"), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "seed": seed, "commit": _git_commit(),
            "src_sha256": digest.hexdigest()}


def _git_commit():
    """HEAD of the checkout when it is a git work tree with a loose ref, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/weilzeta/cli.py", "samples") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a weilzeta checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    in_process = args.workload == "weil_verdicts"
    runner = VerdictRunner() if in_process else CliRunner()
    setup_s, inputs = set_up(args.workload, args.seed, runner)

    spans = []
    if args.trace == 0:
        attempts = measure(runner, inputs, args.seconds, traced=False)
        metrics, notes = end_to_end(attempts, setup_s, in_process)
        units = E2E_UNITS
    else:
        untraced = measure(runner, inputs, args.seconds / 2, traced=False)
        probe_values = probes(child_env())
        restore = tracer.install(runner.recorder) if in_process else None
        try:
            traced = measure(runner, inputs, args.seconds / 2, traced=True)
        finally:
            if restore:
                restore()
        attempts = [u + t for u, t in zip(untraced, traced)]
        metrics = layer_metrics(traced, untraced, probe_values)
        notes = {"trace.overhead_s": "traced minus untraced pass time"}
        units = LAYER_UNITS
        spans = [dict(job=res["id"], attempt=res["attempt"], **payload)
                 for tries in traced for res, payload in tries if payload is not None]

    results = [res for tries in attempts for res, _ in tries]
    # An input fails if any of its attempts raised or gave a wrong answer;
    # a wrong answer makes the whole run incorrect.
    failed = [next(res for res, _ in tries if not res["ok"])
              for tries in attempts if not all(res["ok"] for res, _ in tries)]
    correct = not any(not res["ok"] and not res["raised"] for res in results)

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "correct": correct, "attempted": len(inputs), "failed": len(failed),
              "timed_jobs": len(results), "time_scale": notes.get("scale"),
              "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k)}
                          for k, v in metrics.items()},
              "jobs": results, "spans": spans}
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(inputs)} inputs, {len(results)} timed jobs, "
          f"record in {record_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {units[name]}{note}")
    if "scale" in notes:
        print(f"time scale: {notes['scale']}")
    print(f"failed_frac: {len(failed) / len(inputs):.4f} ratio "
          f"({len(failed)} of {len(inputs)} inputs)")
    for res in failed:
        what = res.get("argv") or res.get("series")
        print(f"  failed {res['id']} {json.dumps(what)}: {res['error'] or res['actual']}")
    print(json.dumps({"correct": correct, "attempted": len(inputs),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
