"""A seeded mutation fuzz of every input format through cli.main.

Each case takes a sample file, makes 1-4 random edits, biased toward its
numbers, and runs the command for that format (B. P. Miller, L. Fredriksen
and B. So, "An empirical study of the reliability of UNIX utilities",
Commun. ACM 33(12), 1990). Every call must end with exit code 0-3, let no
exception out, and finish within a 2 s alarm.
"""

import random
import re
import signal
from pathlib import Path

import pytest

from weilzeta.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SEED = 1
CASES = 3000
ALARM_S = 2
# a small budget keeps the work each admitted count does small
BUDGET = "65536"


class _Alarm(BaseException):
    """Raised by SIGALRM; not an Exception, so that nothing catches it."""


def _ring(signum, frame):
    raise _Alarm


def _edit_number(rng, text):
    """Replace a number with one of up to 7 digits, append a digit to it,
    or negate it."""
    numbers = list(re.finditer(r"-?\d+", text))
    if not numbers:
        return text
    m = rng.choice(numbers)
    number = m.group()
    new = rng.choice((str(rng.randrange(10 ** rng.randint(1, 7))),
                      number + rng.choice("0123456789"),
                      number[1:] if number.startswith("-") else "-" + number))
    return text[:m.start()] + new + text[m.end():]


def _edit_character(rng, text):
    """Delete, insert or replace one character."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice("0123456789 -+*^=/.,[]#eX\n")
    op = rng.randrange(3)
    return text[:i] + ("" if op == 0 else ch) + text[i + (op != 1):]


def _edit_line(rng, text):
    """Delete, duplicate or swap lines."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.randrange(3)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 4)):
        edit = rng.choices((_edit_number, _edit_character, _edit_line), weights=(6, 2, 2))[0]
        text = edit(rng, text)
    return text


def _argv(rng, path):
    if path.suffix == ".variety":
        return [rng.choice(("count", "weil")), str(path), "--budget", BUDGET]
    return ["lattice" if path.suffix == ".lattice" else "dimgroup", str(path)]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_mutated_inputs_end_with_an_exit_code_in_time(tmp_path, capsys):
    rng = random.Random(SEED)
    samples = sorted(SAMPLES.iterdir())
    failures = []
    previous = signal.signal(signal.SIGALRM, _ring)
    try:
        for _ in range(CASES):
            sample = rng.choice(samples)
            text = _mutate(rng, sample.read_text(encoding="utf-8"))
            path = tmp_path / f"case{sample.suffix}"
            path.write_text(text, encoding="utf-8")
            argv = _argv(rng, path)
            signal.alarm(ALARM_S)
            try:
                outcome = main(argv)
            except _Alarm:
                outcome = f"past the {ALARM_S} s alarm"
            except Exception as exc:  # any escape is a failure
                outcome = f"{type(exc).__name__}: {exc}"
            finally:
                signal.alarm(0)
            capsys.readouterr()
            if outcome not in (0, 1, 2, 3):
                failures.append((argv[0], sample.name, outcome, text[:300]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert failures == []
