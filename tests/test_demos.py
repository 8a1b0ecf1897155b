"""Every walkthrough in demos/ runs and prints its pinned output.

Each demo's output is deterministic; tests/demo_outputs/NAME.txt holds it.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_prints(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    expected = (HERE / "demo_outputs" / f"{path.stem}.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
