"""Time the sum-zero enumeration, the classification and small-norm
sweeps, the lower-bound table, max_separation, the Landau scan and the
list shape rules (make_list, classify_type, family_membership) on fixed
inputs.

    python3 bench/layers.py

Runs each call in CALLS three times against this checkout's src/, in a
child process of its own, and writes the medians and the child's peak
RSS, with the machine (cores, Python, numpy), into BENCH_layers.json at
the repository root.  A call's inputs are built on first use, before its
timed runs, so only the calls that read them pay for them.  The column
is named after the checkout: its short commit, with "+worktree" when
src/ differs from that commit.  Columns already in the file are kept,
so running the script in two checkouts in turn puts their timings side
by side.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ratio_lab.bounds import build_table  # noqa: E402
from ratio_lab.integrality import RatioSpec, family_membership, landau_min_max  # noqa: E402
from ratio_lab.lists import classify_type, make_list  # noqa: E402
from ratio_lab.search import (  # noqa: E402
    _type_a3_sweep_7,
    _type_a_sweep_9,
    _type_b_sweep_7,
    divisor_sweep_5,
    family_search_5,
    small_norm_catalog,
    load_golden,
    sum_zero_divisor_lists,
)
from ratio_lab.separation import max_separation  # noqa: E402


@cache
def _triple_box():
    # the distinct primitive lists [x, y, z], 1 <= x <= 50, 0 < |y|, |z| <= 50,
    # that the acceptance suite's criterion 8 checks against support_bound
    seen = {}
    for x in range(1, 51):
        for y in range(-50, 51):
            for z in range(-50, 51):
                if y and z:
                    a = make_list([x, y, z])
                    if a.length == 3 and a.is_primitive():
                        seen.setdefault(a.elements, a)
    return list(seen.values())


@cache
def _sporadic_specs():
    return [RatioSpec.from_list(e.list) for n in (5, 7, 9) for e in load_golden(f"sporadic_length{n}").entries]


@cache
def _shape_inputs():
    # 100 000 raw lists from random.Random(0), of length 1..9 with entries in
    # +-1..60, then the primitive odd-length sum-zero lists among 20 000 more,
    # each closed by minus its sum
    rng = random.Random(0)

    def raw():
        return [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(rng.randint(1, 9))]

    raws = [raw() for _ in range(100000)]
    closed = [make_list(r + [-sum(r)]) for r in (raw() for _ in range(20000)) if sum(r)]
    return raws, [a for a in closed if a.length % 2 and a.is_primitive()]


def _shape_rules():
    raws, sum_zero = _shape_inputs()
    lists = [make_list(r) for r in raws]
    return [classify_type(a) for a in lists if a.length], [family_membership(a) for a in sum_zero]


CHEBYSHEV_1000 = RatioSpec(numerator=(30000, 1000), denominator=(15000, 10000, 6000))

CALLS = {
    "sum_zero_divisor_lists(720, 3)": lambda: sum_zero_divisor_lists(720, 3),
    "sum_zero_divisor_lists(720, 4)": lambda: sum_zero_divisor_lists(720, 4),
    "sum_zero_divisor_lists(720, 5)": lambda: sum_zero_divisor_lists(720, 5),
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
    "small_norm_catalog(3, 1/7)": lambda: small_norm_catalog(3, Fraction(1, 7)),
    "small_norm_catalog(4, 11/60)": lambda: small_norm_catalog(4, Fraction(11, 60)),
    "small_norm_catalog(5, 31/168)": lambda: small_norm_catalog(5, Fraction(31, 168)),
    "small_norm_catalog(6, 7/36)": lambda: small_norm_catalog(6, Fraction(7, 36)),
    "small_norm_catalog(7, 5/24)": lambda: small_norm_catalog(7, Fraction(5, 24)),
    "small_norm_catalog(8, 8/45)": lambda: small_norm_catalog(8, Fraction(8, 45)),
    "build_table(128, 3)": lambda: build_table(128, 3),
    "build_table(256, 3)": lambda: build_table(256, 3),
    "max_separation(criterion 8 triple box)": lambda: [max_separation(a) for a in _triple_box()],
    "landau_min_max(52 sporadic specs)": lambda: [landau_min_max(r) for r in _sporadic_specs()],
    "landau_min_max(1000 x Chebyshev)": lambda: landau_min_max(CHEBYSHEV_1000),
    "shape rules": _shape_rules,
}
# the inputs a call reads, built before its timed runs
INPUTS = {
    "max_separation(criterion 8 triple box)": _triple_box,
    "landau_min_max(52 sporadic specs)": _sporadic_specs,
    "shape rules": _shape_inputs,
}
RUNS = 3


def _column() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    dirty = git("status", "--porcelain", "--", "src").strip()
    return git("rev-parse", "--short", "HEAD").strip() + ("+worktree" if dirty else "")


def _measure(name: str) -> dict:
    """Run one call RUNS times; the peak RSS is this process's, a fresh
    interpreter that has imported this module."""
    if name in INPUTS:
        INPUTS[name]()
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        CALLS[name]()
        runs.append(round(time.perf_counter() - start, 4))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"median_s": median(runs), "runs_s": runs, "peak_rss_mb": round(peak, 1)}


def main() -> None:
    seconds = {}
    for name in CALLS:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            seconds[name] = pool.apply(_measure, (name,))
        print(f"{name}: {seconds[name]['median_s']:.3f} s, {seconds[name]['peak_rss_mb']} MB", flush=True)
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
