"""Spans around weilzeta's public entry points, recorded from outside src/.

``install(recorder)`` replaces each entry point in TARGETS with a wrapper
that records a span (name, start, end, parent) and, for the entry points
in ``_WRAPPERS``, counters; the returned function puts the originals back.
Spans and counts stay in memory until the caller writes them out.

Run as a script, the module is a traced stand-in for
``python -m weilzeta.cli``: a fresh process, so every cache in weilzeta
starts cold, exactly as for a command-line user.

    python perfbench/tracer.py SPANS_JSON <weilzeta arguments...>
    python perfbench/tracer.py --import-probe MODULE[,MODULE...]
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name). Attributes are patched where the caller
# looks them up: names that cli imports with `from ... import` are patched
# in weilzeta.cli, module-qualified calls in their own module.
TARGETS = (
    ("weilzeta.cli", "load_variety", "variety.load_variety"),
    ("weilzeta.variety", "count_points", "variety.count_points"),
    ("weilzeta.variety", "make_field", "ffield.make_field"),
    ("weilzeta.zeta", "zeta_series", "zeta.zeta_series"),
    ("weilzeta.zeta", "pade_reconstruct", "zeta.pade_reconstruct"),
    ("weilzeta.zeta", "weight_split", "zeta.weight_split"),
    ("weilzeta.zeta", "functional_equation_check", "zeta.functional_equation_check"),
    ("weilzeta.zeta", "rh_check", "zeta.rh_check"),
    ("weilzeta.cli", "grossencharacter_trace_d1", "cmcurve.grossencharacter_trace_d1"),
    ("weilzeta.cli", "count_via_character", "cmcurve.count_via_character"),
    ("weilzeta.cli", "frobenius_trace", "cmcurve.frobenius_trace"),
    ("weilzeta.cli", "ec_count", "variety.ec_count"),
    ("weilzeta.pseudolattice", "endo_ring_rank", "pseudolattice.endo_ring_rank"),
    ("weilzeta.pseudolattice", "endo_matrix", "pseudolattice.endo_matrix"),
    ("weilzeta.pseudolattice", "density_witness", "pseudolattice.density_witness"),
    ("weilzeta.dimgroup", "build", "dimgroup.build"),
    ("weilzeta.dimgroup", "trace_value", "dimgroup.trace_value"),
    ("weilzeta.dimgroup", "shift", "dimgroup.shift"),
    ("weilzeta.dimgroup", "unit_decomposition", "dimgroup.unit_decomposition"),
    ("weilzeta.realalg", "RealAlgebraic.decimal_str", "realalg.decimal_str"),
)

# Span of the warm repeat of count_points; it is measurement work, so
# cli.main_s leaves it out.
WARM_SPAN = "variety.count_points.warm"
MAIN_SPAN = "cli.main"


def peak_rss_mb():
    """Peak resident set of this process since it was exec'd, in MB.

    Linux carries ru_maxrss over fork and exec, so a child would report
    its parent's size; VmHWM belongs to the current image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """In-memory spans and counters of the job currently being traced."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self):
        out = {"spans": self.spans, "counts": self.counts}
        self.reset()
        return out


def enumerated_tuples(v, m):
    """Tuples count_points enumerates for v over F_{p^m} (0 if it needs none)."""
    if v.nvars == 0 or all(poly.is_zero() for poly in v.polys):
        return 0
    q = v.p ** m
    if v.ambient == "projective":
        return sum(q ** k for k in range(v.nvars))
    return q ** v.nvars


def _timed(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return traced


def _count_points(rec, name, fn):
    """Cold call as the CLI makes it, then the same call again, warm.

    The cold call pays for building the field; the warm repeat finds the
    field cached and measures enumeration alone.
    """
    @functools.wraps(fn)
    def traced(v, m, *args, **kwargs):
        with rec.span(name):
            result = fn(v, m, *args, **kwargs)
        rec.count("variety.tuples", enumerated_tuples(v, m))
        with rec.span(WARM_SPAN):
            fn(v, m, *args, **kwargs)
        return result
    return traced


def _counting(counter, success_counter=None):
    def wrapper(rec, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.count(counter)
            with rec.span(name):
                result = fn(*args, **kwargs)
            if success_counter:
                rec.count(success_counter)
            return result
        return traced
    return wrapper


_WRAPPERS = {
    "variety.count_points": _count_points,
    "zeta.pade_reconstruct": _counting("zeta.pade_tried", "zeta.pade_fit"),
    "zeta.rh_check": _counting("zeta.rh_calls"),
    "cmcurve.grossencharacter_trace_d1": _counting("cmcurve.primes"),
}


def install(rec):
    """Wrap every TARGETS entry point; returns a function that undoes it."""
    saved = []
    for module_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _WRAPPERS.get(name, _timed)(rec, name, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def _import_probe(modules):
    start = time.perf_counter()
    for name in modules.split(","):
        importlib.import_module(name)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "rss_mb": peak_rss_mb()}))
    return 0


def _traced_cli(spans_path, argv):
    start = time.perf_counter()
    import weilzeta.cli as cli
    import_s = time.perf_counter() - start
    import_mb = peak_rss_mb()
    rec = Recorder()
    install(rec)
    code = None
    try:
        with rec.span(MAIN_SPAN):
            code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dict(rec.take(), import_s=import_s, import_mb=import_mb,
                           code=code), fh)
    return code


def main(argv):
    if argv[:1] == ["--import-probe"]:
        return _import_probe(argv[1])
    return _traced_cli(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
