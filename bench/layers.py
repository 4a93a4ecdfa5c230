"""Time the sum-zero enumeration and the length-5 divisor sweep on fixed inputs.

    python3 bench/layers.py

Runs each call in CALLS three times against this checkout's src/ and
writes the medians, with the machine (cores, Python, numpy), into
BENCH_layers.json at the repository root.  The column is named after
the checkout: its short commit, with "+worktree" when src/ differs from
that commit.  Columns already in the file are kept, so running the
script in two checkouts in turn puts their timings side by side.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ratio_lab.search import divisor_sweep_5, sum_zero_divisor_lists  # noqa: E402

CALLS = {
    "sum_zero_divisor_lists(432, 7)": lambda: sum_zero_divisor_lists(432, 7),
    "sum_zero_divisor_lists(720, 7)": lambda: sum_zero_divisor_lists(720, 7),
    "sum_zero_divisor_lists(1728, 7)": lambda: sum_zero_divisor_lists(1728, 7),
    "divisor_sweep_5(1800)": lambda: divisor_sweep_5(1800),
    "divisor_sweep_5()": lambda: divisor_sweep_5(),
}
RUNS = 3


def _column() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    dirty = git("status", "--porcelain", "--", "src").strip()
    return git("rev-parse", "--short", "HEAD").strip() + ("+worktree" if dirty else "")


def main() -> None:
    seconds = {}
    for name, call in CALLS.items():
        runs = []
        for _ in range(RUNS):
            start = time.perf_counter()
            call()
            runs.append(round(time.perf_counter() - start, 4))
        seconds[name] = {"median_s": median(runs), "runs_s": runs}
        print(f"{name}: {median(runs):.3f} s (runs {runs})", flush=True)
    path = os.path.join(ROOT, "BENCH_layers.json")
    data = {"columns": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    machine = {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    data["columns"][_column()] = {"machine": machine, "runs": RUNS, "calls": seconds}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
