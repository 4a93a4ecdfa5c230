"""Time the sum-zero enumeration and its norms, the classification and
small-norm sweeps, the lower-bound table, the separation queries, the
Landau scan, the gcd norm on a long list and on huge entries, the
integration norm, the list shape rules (make_list, classify_type,
family_membership), the in-process CLI on fixed inputs, and two fresh
processes: perfbench's setup probe and one `norm` query through the CLI.

    python3 bench/layers.py [--against DIR | --digest]

Runs each call of _calls() five times, each run in a fresh interpreter
that imports ratio_lab from a checkout's src/, builds the call's inputs
and then times the call alone; the setup probe reports the seconds its
own fresh interpreter took, as perfbench's does.  It prints each call's
median and fastest run, and writes the median, the fastest run (medians
of five runs still moved 8-24 % on unchanged code), the runs and the
largest peak RSS of those interpreters, with the machine (cores,
Python, numpy), into BENCH_layers.json at the repository root.  With --against DIR, another
git checkout, it times DIR's src/ as well, alternating the two
checkouts run by run and swapping which goes first, so that the
machine's drift falls on both columns alike, and writes both columns.
A column is named after its checkout: its short commit, with
"+worktree" when src/ differs from that commit.  Columns already in the
file are kept.

With --digest it times nothing: it runs each call once in this
interpreter, but for the two fresh-process ones, and prints
"name: <first 10 hex digits of a sha1>", of the repr of the element
tuples for a list of SignedList or a catalog, of its terms in hex for a
Fraction, else of the repr of the result, so that two checkouts' outputs
can be compared call by call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5  # three runs could not tell unchanged calls apart
# perfbench's setup probe: import the CLI and the searches, load every golden catalog
SETUP_PROBE = (
    "from time import perf_counter\n"
    "start = perf_counter()\n"
    "import ratio_lab.cli, ratio_lab.search as s\n"
    "for name in s.GOLDEN_NAMES:\n"
    "    s.load_golden(name)\n"
    "print(perf_counter() - start)\n"
)
SETUP_CALL = "setup probe (fresh process, timed inside)"
WHOLE_PROCESS_CALL = "ratio-lab --format json norm --list=4,-6,9 (whole process)"


def _calls() -> tuple[dict, dict]:
    """(calls, inputs) for the ratio_lab first on sys.path: the timed calls
    by name, and for some of them the inputs they read, built before the
    timed run so that only the calls that read them pay for them."""
    import ratio_lab
    from ratio_lab.bounds import build_table
    from ratio_lab.cli import run
    from ratio_lab.integrality import RatioSpec, family_membership, landau_min_max
    from ratio_lab.lists import classify_type, make_list, norm, norm_by_integration
    from ratio_lab.search import (
        GOLDEN_NAMES,
        _type_a3_sweep_7,
        _type_a_sweep_9,
        _type_b_sweep_7,
        divisor_sweep_5,
        family_search_5,
        load_golden,
        small_norm_catalog,
        sum_zero_divisor_lists,
    )
    from ratio_lab.separation import find_separations, max_separation, separation_orders

    @cache
    def triple_box():
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
    def random_lists():
        # the primitive lists among 1000 random.Random(22) draws of length 2..5
        # with entries in +-1..20, as the acceptance suite's criterion 8 draws them
        rng = random.Random(22)
        lists = [make_list([rng.choice((-1, 1)) * rng.randint(1, 20) for _ in range(rng.randint(2, 5))]) for _ in range(1000)]
        return [a for a in lists if a.length >= 2 and a.is_primitive()]

    @cache
    def sporadic_specs():
        return [RatioSpec.from_list(e.list) for n in (5, 7, 9) for e in load_golden(f"sporadic_length{n}").entries]

    @cache
    def shape_inputs():
        # 100 000 raw lists from random.Random(0), of length 1..9 with entries in
        # +-1..60, then the primitive odd-length sum-zero lists among 20 000 more,
        # each closed by minus its sum
        rng = random.Random(0)

        def raw():
            return [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(rng.randint(1, 9))]

        raws = [raw() for _ in range(100000)]
        closed = [make_list(r + [-sum(r)]) for r in (raw() for _ in range(20000)) if sum(r)]
        return raws, [a for a in closed if a.length % 2 and a.is_primitive()]

    @cache
    def long_list():
        return make_list(range(1, 1001))

    @cache
    def huge_list():
        # 10 entries of 4300 digits (the most int() parses from a string) from random.Random(1)
        rng = random.Random(1)
        return make_list([rng.randrange(10**4299, 10**4300) for _ in range(10)])

    @cache
    def golden_lists():
        return [e.list for name in GOLDEN_NAMES for e in load_golden(name).entries]

    @cache
    def seeded_lists():
        # 200 non-degenerate lists from random.Random(0), of length 2..9 with
        # entries in +-1..200, drawn as the certify benchmark draws its norm lists
        rng = random.Random(0)
        out = []
        while len(out) < 200:
            els = [rng.choice((-1, 1)) * rng.randint(1, 200) for _ in range(rng.choice(range(2, 10)))]
            if not any(-e in els for e in els):
                out.append(make_list(els))
        return out

    def shape_rules():
        raws, sum_zero = shape_inputs()
        lists = [make_list(r) for r in raws]
        return [classify_type(a) for a in lists if a.length], [family_membership(a) for a in sum_zero]

    def cli_queries():
        # 12 queries as a certify round makes them in process: 4 norm, 4 check
        # (Chebyshev, a length-7 and a length-9 sporadic, one not integral) and
        # 4 liouville --N, in JSON, with stdout sent to a buffer; the exit codes
        # and the captured stdout
        argvs = [["norm", "--list=" + a] for a in ("4,-6,9", "1,-6,-10,-15,30", "-1,2,3,-4,-6,-6,12", "137,-52,9,-181,77,23")]
        specs = (("30,1", "15,10,6"), ("4,5,30", "6,8,10,15"), ("4,6,9,24", "2,3,8,12,18"), ("2,3", "1,4"))
        argvs += [["check", "--num=" + num, "--den=" + den] for num, den in specs]
        argvs += [["liouville", "--N", str(n)] for n in range(20000, 20004)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [run(["--format", "json", *argv]) for argv in argvs]
        return codes, out.getvalue()

    def fresh(*argv):
        # stdout of a fresh interpreter that imports this ratio_lab
        src = os.path.dirname(os.path.dirname(os.path.abspath(ratio_lab.__file__)))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True).stdout

    chebyshev_1000 = RatioSpec(numerator=(30000, 1000), denominator=(15000, 10000, 6000))
    calls = {
        "sum_zero_divisor_lists(720, 3)": lambda: sum_zero_divisor_lists(720, 3),
        "sum_zero_divisor_lists(720, 4)": lambda: sum_zero_divisor_lists(720, 4),
        "sum_zero_divisor_lists(720, 5)": lambda: sum_zero_divisor_lists(720, 5),
        "sum_zero_divisor_lists(432, 7)": lambda: sum_zero_divisor_lists(432, 7),
        "sum_zero_divisor_lists(720, 7)": lambda: sum_zero_divisor_lists(720, 7),
        "sum_zero_divisor_lists(1728, 7)": lambda: sum_zero_divisor_lists(1728, 7),
        "sum_zero_divisor_lists(248832, 7)": lambda: sum_zero_divisor_lists(248832, 7),
        "norms of sum_zero_divisor_lists(432, 7)": lambda: [norm(a) for a in sum_zero_divisor_lists(432, 7)],
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
        "max_separation(criterion 8 triple box)": lambda: [max_separation(a) for a in triple_box()],
        "find_separations(criterion 8 random lists, k = 2..7)": lambda: [find_separations(a, k) for a in random_lists() for k in range(2, 8)],
        "separation_orders(criterion 8 random lists)": lambda: [separation_orders(a) for a in random_lists()],
        "landau_min_max(52 sporadic specs)": lambda: [landau_min_max(r) for r in sporadic_specs()],
        "landau_min_max(1000 x Chebyshev)": lambda: landau_min_max(chebyshev_1000),
        "norm(1..1000)": lambda: norm(long_list()),
        "norm(10 random 4300-digit entries)": lambda: norm(huge_list()),
        "norm_by_integration(75 golden entries)": lambda: [norm_by_integration(a) for a in golden_lists()],
        "norm_by_integration(200 seeded lists)": lambda: [norm_by_integration(a) for a in seeded_lists()],
        "shape rules": shape_rules,
        "cli.run(12 certify-style queries)": cli_queries,
        SETUP_CALL: lambda: float(fresh("-c", SETUP_PROBE)),
        WHOLE_PROCESS_CALL: lambda: fresh("-m", "ratio_lab.cli", "--format", "json", "norm", "--list=4,-6,9"),
    }
    inputs = {
        "max_separation(criterion 8 triple box)": triple_box,
        "find_separations(criterion 8 random lists, k = 2..7)": random_lists,
        "separation_orders(criterion 8 random lists)": random_lists,
        "landau_min_max(52 sporadic specs)": sporadic_specs,
        "norm(1..1000)": long_list,
        "norm(10 random 4300-digit entries)": huge_list,
        "norm_by_integration(75 golden entries)": golden_lists,
        "norm_by_integration(200 seeded lists)": seeded_lists,
        "shape rules": shape_inputs,
    }
    return calls, inputs


def _child(src: str, name: str) -> None:
    """One timed run of a call against the ratio_lab in `src`, printed as
    JSON with this interpreter's peak RSS."""
    sys.path.insert(0, src)
    calls, inputs = _calls()
    if name in inputs:
        inputs[name]()
    start = time.perf_counter()
    out = calls[name]()
    seconds = out if name == SETUP_CALL else time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"s": round(seconds, 4), "peak_rss_mb": round(peak, 1)}))


def _digest(out) -> str:
    """The first 10 hex digits of the sha1 of a call's result: of the repr
    of its element tuples for a list of SignedList or a catalog, and of
    its terms in hex for a Fraction, whose decimal repr is capped at 4300
    digits."""
    if isinstance(out, Fraction):
        out = (hex(out.numerator), hex(out.denominator))
    if hasattr(out, "lists"):  # a Catalog
        out = out.lists()
    if isinstance(out, list) and all(hasattr(a, "elements") for a in out):
        out = [a.elements for a in out]
    return hashlib.sha1(repr(out).encode()).hexdigest()[:10]


def _run(root: str, name: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", os.path.join(root, "src"), name]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def _column(root: str) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout

    dirty = git("status", "--porcelain", "--", "src").strip()
    return git("rev-parse", "--short", "HEAD").strip() + ("+worktree" if dirty else "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", help="another git checkout, timed run by run in turn with this one")
    parser.add_argument("--digest", action="store_true", help="print a sha1 prefix of each call's result instead of timing it")
    parser.add_argument("--child", nargs=2, metavar=("SRC", "NAME"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(*args.child)
        return
    sys.path.insert(0, os.path.join(ROOT, "src"))
    calls, _ = _calls()
    if args.digest:
        for name, call in calls.items():
            if name not in (SETUP_CALL, WHOLE_PROCESS_CALL):
                print(f"{name}: {_digest(call())}", flush=True)
        return
    roots = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])
    runs = {root: {name: [] for name in calls} for root in roots}
    for name in calls:
        for r in range(RUNS):
            for root in roots[:: -1 if r % 2 else 1]:
                runs[root][name].append(_run(root, name))
        times = [[x["s"] for x in runs[root][name]] for root in roots]
        print(name + ": " + ", ".join(f"{median(t):.3f} s (min {min(t):.3f})" for t in times), flush=True)
    path = os.path.join(ROOT, "BENCH_layers.json")
    data = {"columns": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    machine = {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    columns = [_column(root) for root in roots]
    for root, column in zip(roots, columns):
        seconds = {
            name: {
                "median_s": median(x["s"] for x in rs),
                "min_s": min(x["s"] for x in rs),
                "runs_s": [x["s"] for x in rs],
                "peak_rss_mb": max(x["peak_rss_mb"] for x in rs),
            }
            for name, rs in runs[root].items()
        }
        data["columns"][column] = {"machine": machine, "runs": RUNS, "alternated_with": [c for c in columns if c != column], "calls": seconds}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
