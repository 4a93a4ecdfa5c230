"""Time the sum-zero enumeration, the classification and small-norm
sweeps and the lower-bound table on fixed inputs.

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
from fractions import Fraction
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ratio_lab.bounds import build_table  # noqa: E402
from ratio_lab.search import (  # noqa: E402
    _type_a3_sweep_7,
    _type_a_sweep_9,
    _type_b_sweep_7,
    divisor_sweep_5,
    family_search_5,
    small_norm_catalog,
    sum_zero_divisor_lists,
)

CALLS = {
    "sum_zero_divisor_lists(432, 7)": lambda: sum_zero_divisor_lists(432, 7),
    "sum_zero_divisor_lists(720, 7)": lambda: sum_zero_divisor_lists(720, 7),
    "sum_zero_divisor_lists(1728, 7)": lambda: sum_zero_divisor_lists(1728, 7),
    "sum_zero_divisor_lists(248832, 7)": lambda: sum_zero_divisor_lists(248832, 7),
    "divisor_sweep_5(1800)": lambda: divisor_sweep_5(1800),
    "divisor_sweep_5()": lambda: divisor_sweep_5(),
    "_type_b_sweep_7()": lambda: _type_b_sweep_7(),
    "_type_a3_sweep_7()": lambda: _type_a3_sweep_7(),
    "_type_a_sweep_9()": lambda: _type_a_sweep_9(),
    "family_search_5()": lambda: family_search_5(),
    "small_norm_catalog(4, 11/60)": lambda: small_norm_catalog(4, Fraction(11, 60)),
    "small_norm_catalog(5, 31/168)": lambda: small_norm_catalog(5, Fraction(31, 168)),
    "small_norm_catalog(7, 5/24)": lambda: small_norm_catalog(7, Fraction(5, 24)),
    "small_norm_catalog(8, 8/45)": lambda: small_norm_catalog(8, Fraction(8, 45)),
    "build_table(128, 3)": lambda: build_table(128, 3),
    "build_table(256, 3)": lambda: build_table(256, 3),
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
