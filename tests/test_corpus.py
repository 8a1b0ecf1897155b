"""Pinned output corpus: every report of a fixed set of CLI calls, by hash.

The corpus is 170 seeded lattice files, 170 seeded matrices (each run with
and without ``--det-check 2``), the samples under ``weil --mmax 4`` and the
README's example calls, each run in-process through ``cli.main``. One
record per call in ``tests/corpus_outputs.json`` holds the exit code, the
sha256 of stdout without its ``# timing`` lines, and stderr. A change that
alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_corpus.py

and names the changed cases.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
from pathlib import Path

from weilzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).resolve().parent / "corpus_outputs.json"
SEED = 20261020
CASES = 170

# (minpoly low to high, isolating interval of the chosen root)
FIELDS = [
    ("-3 1", "2, 4"),
    ("-2 0 1", "1, 2"),
    ("-2 0 1", "7/5, 3/2"),
    ("-3 0 1", "1, 2"),
    ("-5 0 1", "2, 3"),
    ("-1 -1 1", "1.5, 1.75"),
    ("-7 0 1", "2.5, 3"),
    ("-2 0 0 1", "1, 2"),
    ("-1 -1 0 1", "1, 2"),
    ("-1 -3 0 1", "1, 2"),
    ("-2 0 0 0 1", "1, 2"),
    ("-3 0 0 0 1", "1, 2"),
    ("1 0 -10 0 1", "3, 4"),
    ("-2 0 0 0 0 1", "1, 2"),
    ("-1 -1 0 0 0 1", "1, 2"),
]


def _literal(rng, style):
    """One coordinate: an int, an a/b or a decimal, all of a few digits."""
    if style == "int" or rng.random() < 0.3:
        return str(rng.randint(-3, 3))
    if style == "frac":
        return f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}"
    return f"{rng.randint(-24, 24) / 8:g}"


def lattice_text(rng):
    """A lattice file of rank 1..min(D, 4), with generators of one
    coordinate style; a few repeat a generator or do not start with 1.
    (Rank 5 in degree 5 took the kernel route of earlier versions minutes.)"""
    minpoly, root = rng.choice(FIELDS)
    degree = len(minpoly.split()) - 1
    rank = rng.randint(1, min(degree, 4))
    style = rng.choice(("int", "frac", "dec"))
    gens = [["1"] + ["0"] * (degree - 1)]
    gens += [[_literal(rng, style) for _ in range(degree)] for _ in range(rank - 1)]
    roll = rng.random()
    if roll < 0.04:
        gens[0][0] = "2"
    elif roll < 0.08 and rank > 1:
        gens.append(list(gens[-1]))
    return (f"field minpoly={minpoly}\nroot in [{root}]\n"
            + "".join("gen " + " ".join(g) + "\n" for g in gens))


def matrix_text(rng):
    """A square matrix of size 1..4 with entries 0..3: symmetric, general,
    or symmetric with determinant 2, so --det-check 2 passes on some."""
    kind = rng.choice(("general", "symmetric", "det2"))
    if kind == "det2":
        a, c, d = rng.choice([(a, c, (2 + c * c) // a) for a in range(1, 7)
                              for c in range(4) if (2 + c * c) % a == 0])
        rows = [[a, c], [c, d]]
    else:
        n = rng.randint(1, 4)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if kind == "symmetric":
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _files():
    """(name, text) of every generated input file, in a pinned order."""
    rng = random.Random(SEED)
    files = [(f"lattice_{k:03d}.lattice", lattice_text(rng)) for k in range(CASES)]
    files += [(f"matrix_{k:03d}.matrix", matrix_text(rng)) for k in range(CASES)]
    return files


def _calls():
    """(case name, argv, directory to run in) of every call."""
    calls = []
    for name, _ in _files():
        if name.endswith(".lattice"):
            calls.append((name, ["lattice", name], None))
        else:
            calls.append((name, ["dimgroup", name], None))
            calls.append((name + " --det-check 2", ["dimgroup", name, "--det-check", "2"], None))
    for sample in sorted((ROOT / "samples").glob("*.variety")):
        argv = ["weil", f"samples/{sample.name}", "--mmax", "4"]
        calls.append((" ".join(argv), argv, ROOT))
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for line in readme:
        if line.startswith("weilzeta ") and line.split()[1] in (
                "count", "weil", "cm", "lattice", "dimgroup"):
            argv = shlex.split(line)[1:]
            calls.append(("README: " + " ".join(argv), argv, ROOT))
    return calls


def _record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.startswith("# timing"))
    return {"code": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": err.getvalue()}


def run_corpus(workdir):
    """Write the generated files to workdir and record every call."""
    for name, text in _files():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    records = {}
    cwd = os.getcwd()
    try:
        for case, argv, where in _calls():
            os.chdir(where or workdir)
            records[case] = _record(argv)
    finally:
        os.chdir(cwd)
    return records


def test_corpus_outputs_match_the_pinned_records(tmp_path):
    expected = json.loads(RECORDS.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert len(got) == 3 * CASES + 16
    assert sorted(got) == sorted(expected)
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, changed[:20]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        records = run_corpus(workdir)
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {RECORDS}", file=sys.stderr)
