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

A command-line run (the `weilzeta` script or `python -m weilzeta.cli`)
goes through run(), which freezes the heap once the report is written,
so interpreter shutdown spends no time collecting or tearing down
objects. main() called from Python never freezes.
"""

import gc
import sys
import time
from types import SimpleNamespace

from .errors import (DEFAULT_BUDGET, EnumerationBudgetExceeded, InvalidInput,
                     WeilZetaError)

# Each command imports the modules it runs and finds its code there, so a
# job loads and compiles only that: ffield, for one, loads only for F_p[x]
# work, in count and weil when they build a table of F_{p^m} with m >= 2,
# and in lattice and dimgroup when qpoly.factor_int meets a square-free
# part of degree 3 or more; cm and prime-field counts test primality with
# primes alone. count and cm stay here because perfbench/tracer.py times
# them by patching the five functions below on this module: each delegates
# to its library function through a local import. They go when a
# structured trace recorder replaces that patching.


def load_variety(path):
    from .variety import load_variety
    return load_variety(path)


def ec_count(A, B, p):
    from .cmcurve import ec_count
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

def cmd_weil(args):
    from . import zeta
    v, report, counts = _count_section(
        args, "weil", (("rh tolerance", zeta.RH_TOL),
                       ("weight tolerance", zeta.WEIGHT_TOL)))
    return report, zeta.weil_report(report, counts, v.p, v.vardim, args.mmax, args.betti)


# --- cm ---

def cmd_cm(args):
    from .primes import is_prime

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


# --- lattice and dimgroup, each reported by its own module ---

def cmd_lattice(args):
    from .pseudolattice import lattice_report
    report = Report("weilzeta lattice")
    return report, lattice_report(report, args.path)


def cmd_dimgroup(args):
    from .dimgroup import dimgroup_report
    report = Report("weilzeta dimgroup")
    return report, dimgroup_report(report, args.path, args.det_check)


# --- driver ---

_DESCRIPTION = ("Exact zeta functions, Weil checks, pseudo-lattices and "
                "dimension groups over finite fields.")


def _counting(mmax):
    return {"--mmax": ("mmax", int, mmax, "number of extension degrees to count"),
            "--budget": ("budget", int, DEFAULT_BUDGET,
                         "cap on the number of ambient representatives and on "
                         "each field size p^m")}


_PATH = (("path", str, None),)

# name -> (handler, help, positionals, options). A positional is
# (dest, type, default) and is required when its default is None; options
# map a flag to (dest, type, default, help), --out first in every command.
_COMMANDS = {
    name: (run, text, positionals,
           {"--out": ("out", str, None, "write the report to this path"), **options})
    for name, run, text, positionals, options in (
        ("count", cmd_count, "point counts of a variety file", _PATH, _counting(2)),
        ("weil", cmd_weil, "full zeta pipeline on a variety file", _PATH,
         {**_counting(4),
          "--betti": ("betti", str, None, "comma-separated expected Betti numbers")}),
        ("cm", cmd_cm, "Grossencharacter sweep for y^2 = x^3 - x",
         (("pmin", int, 5), ("pmax", int, 97)), {}),
        ("lattice", cmd_lattice, "endomorphism ring of a lattice file", _PATH, {}),
        ("dimgroup", cmd_dimgroup, "dimension group of a matrix file", _PATH,
         {"--det-check": ("det_check", int, None,
                          "require symmetry and this determinant")}),
    )
}


def _is_flag(arg):
    """argparse's rule: a leading dash, unless arg is '-', a negative number
    or a word with a space in it."""
    whole, dot, frac = arg[1:].partition(".")
    number = ((whole.isdecimal() and not dot)
              or ((whole.isdecimal() or not whole) and frac.isdecimal()))
    return arg.startswith("-") and arg != "-" and " " not in arg and not number


def _prog(name):
    return "weilzeta" if name is None else f"weilzeta {name}"


def _usage(name):
    if name is None:
        return f"usage: weilzeta [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positionals, options = _COMMANDS[name]
    words = [f"[{flag} {dest.upper()}]" for flag, (dest, *_) in options.items()]
    words += [dest if default is None else f"[{dest}]"
              for dest, _, default in positionals]
    return f"usage: {_prog(name)} [-h] " + " ".join(words)


def _fail(name, message):
    """Report a usage error as argparse did, and exit 2."""
    sys.stderr.write(f"{_usage(name)}\n{_prog(name)}: error: {message}\n")
    raise SystemExit(2)


def _help(name):
    """Print the help of the top level (name None) or of one command; exit 0."""
    def section(title, rows):
        width = max(len(left) for left, _ in rows) + 4
        return [f"{title}:"] + [f"  {left:<{width - 2}}{right}".rstrip()
                                for left, right in rows]

    rows = [("-h, --help", "show this help message and exit")]
    if name is None:
        lines = [_DESCRIPTION, ""]
        lines += section("commands", [(cmd, text) for cmd, (_, text, _, _)
                                      in _COMMANDS.items()])
    else:
        _, text, positionals, options = _COMMANDS[name]
        lines = [text, ""]
        lines += section("positional arguments", [
            (dest, "" if default is None else f"(default: {default})")
            for dest, _, default in positionals])
        rows += [(f"{flag} {dest.upper()}",
                  about if default is None else f"{about} (default: {default})")
                 for flag, (dest, _, default, about) in options.items()]
    lines += ["", *section("options", rows)]
    sys.stdout.write(_usage(name) + "\n\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def parse_args(argv):
    """Read argv against _COMMANDS into the namespace main runs.

    It has command, run, and every dest of the command's table entry.
    Options may come before or after positionals, as `--flag value` or
    `--flag=value`, and a value may be a negative number; after `--` every
    word is positional. Flags are matched whole, not by prefix.
    """
    name, positionals, options = None, (), {}
    values, extras = {}, []
    filled = 0
    only_positional = False
    k = 0
    while k < len(argv):
        arg = argv[k]
        k += 1
        if arg == "--" and not only_positional:
            only_positional = True
        elif _is_flag(arg) and not only_positional:
            if arg in ("-h", "--help"):
                _help(name)
            flag, eq, value = arg.partition("=")
            if flag not in options:
                extras.append(arg)
                continue
            dest, kind, _, _ = options[flag]
            if not eq:
                if k == len(argv) or _is_flag(argv[k]):
                    _fail(name, f"argument {flag}: expected one argument")
                value = argv[k]
                k += 1
            values[dest] = _convert(name, flag, kind, value)
        elif name is None:
            if arg not in _COMMANDS:
                choices = ", ".join(repr(cmd) for cmd in _COMMANDS)
                _fail(None, f"argument command: invalid choice: {arg!r} "
                            f"(choose from {choices})")
            name = arg
            run, _, positionals, options = _COMMANDS[name]
            values = {"command": name, "run": run}
            values.update((dest, default) for dest, _, default, _ in options.values())
            values.update((dest, default) for dest, _, default in positionals)
        elif filled < len(positionals):
            dest, kind, _ = positionals[filled]
            values[dest] = _convert(name, dest, kind, arg)
            filled += 1
        else:
            extras.append(arg)
    if name is None:
        _fail(None, "the following arguments are required: command")
    missing = [dest for dest, _, default in positionals[filled:] if default is None]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def _convert(name, label, kind, value):
    try:
        return kind(value)
    except ValueError:
        _fail(name, f"argument {label}: invalid {kind.__name__} value: {value!r}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # flag values are checked before any work; only weil has --betti,
        # only dimgroup has --det-check, and cm has neither --budget nor --mmax
        if getattr(args, "betti", None):
            try:
                args.betti = tuple(int(v) for v in args.betti.split(","))
            except ValueError:
                raise InvalidInput("--betti expects comma-separated integers") from None
        for name in ("budget", "mmax"):
            if getattr(args, name, 1) < 1:
                raise InvalidInput(f"{name} must be at least 1")
        if getattr(args, "det_check", None) is not None and args.det_check < 2:
            raise InvalidInput("det-check must be at least 2")
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


def run():
    """Exit with main()'s code on sys.argv, the heap frozen on the way out.

    The freeze comes after main() has written the report and closed any
    --out file, and after a usage error too. Shutdown runs full
    collections even when the collector is disabled; frozen objects sit in
    the permanent generation, so those skip them and never tear their
    cycles down. atexit handlers still run and stdout and stderr are still
    flushed.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
