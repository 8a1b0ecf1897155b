"""Write goldens/<name>.txt for each cli_corpus job: its report without '# timing' lines.

Run from the repository root, only when a change to the reports is
intended; the cli_corpus workload fails every job whose report differs.

    python3 perfbench/capture_goldens.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    workloads.GOLDENS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src")
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        for name, argv in workloads.CLI_CORPUS:
            out = Path(tmp) / f"{name}.txt"
            subprocess.run([sys.executable, "-m", "weilzeta.cli", *argv, "--out", str(out)],
                           cwd=ROOT, env=env, check=True)
            lines = workloads.report_lines(out.read_text(encoding="utf-8"))
            (workloads.GOLDENS / f"{name}.txt").write_text("\n".join(lines), encoding="utf-8")
            print(f"wrote goldens/{name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
