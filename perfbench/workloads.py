"""The three workloads: what one round calls, on which inputs, and how each
output is checked.

A round is a list of batches.  A batch is one kind of program call made on
a list of items; the harness times the batch as a whole and then checks
every item's output with the checkers of checks.py.  Every round of a
workload makes the same kinds and numbers of calls, so the share of
failed calls is the same in every run.  Rounds last a few seconds, so
that a run holds several of them.  Only `certify` draws its items from
the seed; `classify` and `minimal-norms` run fixed computations.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import checks

QUARTER = Fraction(1, 4)
CLI_TIMEOUT_S = 170


@dataclass
class Batch:
    kind: str
    items: list
    call: Callable
    check: Callable  # (item, output) -> list of problems
    known_fault: Callable = field(default=lambda item: False)


class Context:
    """What the workloads share within one run: the checkout, the program's
    modules, and expected results that only need computing once."""

    def __init__(self, root: str, tiny: bool = False):
        import ratio_lab.bounds
        import ratio_lab.cli
        import ratio_lab.integrality
        import ratio_lab.liouville
        import ratio_lab.lists
        import ratio_lab.search
        import ratio_lab.separation

        self.root = root
        self.src = os.path.join(root, "src")
        self.tiny = tiny
        self.bounds = ratio_lab.bounds
        self.cli = ratio_lab.cli
        self.integrality = ratio_lab.integrality
        self.liouville = ratio_lab.liouville
        self.lists = ratio_lab.lists
        self.search = ratio_lab.search
        self.separation = ratio_lab.separation
        self.paper = {n: checks.paper_catalog(f"sporadic_length{n}", root) for n in (5, 7, 9)}
        self._memo = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def elements(lists) -> list[tuple[int, ...]]:
    return [tuple(a.elements) for a in lists]


# ---------------------------------------------------------------------------
# classify


class Classify:
    """The classification searches through the public search API: the
    length-5 family scan and divisor sweep, and the type-B length-7
    sum-zero sweep, on reduced supports so that a round takes seconds
    (the full `classify --length 5` and `--length 7` take 51 s and 385 s,
    and `--length 9`, about 25 s, is one call that cannot be shortened)."""

    name = "classify"
    details = (
        ("sweep5_s", "s", "lower", ("sweep5",)),
        ("typeb7_s", "s", "lower", ("typeb7",)),
    )

    def __init__(self, ctx: Context):
        self.ctx = ctx
        # (|a| bound, |b| bound, divisor-sweep modulus); full box, reduced modulus
        self.sweep5 = (20, 20, 360) if ctx.tiny else (108, 72, 1800)
        self.typeb7_modulus = 108 if ctx.tiny else 432

    def round(self, rng) -> list[Batch]:
        paper7 = self.ctx.paper[7]
        return [
            Batch("sweep5", [self.sweep5], self.run_sweep5, self.check_sweep5),
            Batch(
                "typeb7",
                [self.typeb7_modulus],
                self.run_typeb7,
                lambda m, out: checks.check_type_b7(elements(out), m, paper7),
            ),
        ]

    def run_sweep5(self, params):
        a_bound, b_bound, modulus = params
        search, integrality = self.ctx.search, self.ctx.integrality
        family = search.family_search_5(a_bound, b_bound)
        swept = search.divisor_sweep_5(modulus)
        tags = [integrality.family_membership(a) for a in family + swept]
        return family, swept, tags

    def check_sweep5(self, params, out):
        a_bound, b_bound, modulus = params
        family, swept, tags = out
        return checks.check_sweep5(
            (elements(family), elements(swept), tags), modulus, self.ctx.paper[5], a_bound, b_bound
        )

    def run_typeb7(self, modulus: int):
        lists = self.ctx.lists
        return [a for a in self.ctx.search.sum_zero_divisor_lists(modulus, 7) if lists.norm(a) == QUARTER]


# ---------------------------------------------------------------------------
# minimal-norms


class MinimalNorms:
    """The small-norm lemma catalogs of lengths 4, 5 and 8 at their cutoffs,
    then the lower-bound table and the D = 2 length cutoffs.  Lengths 6 and
    7 are left out: each is one call of about 14 s."""

    name = "minimal-norms"
    details = (
        ("small_norm_s", "s", "lower", ("small_norm",)),
        ("bounds_table_s", "s", "lower", ("bounds_table",)),
    )

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.lengths = (4, 8) if ctx.tiny else (4, 5, 8)
        self.n_max = 90 if ctx.tiny else 128

    def round(self, rng) -> list[Batch]:
        return [
            Batch("small_norm", list(self.lengths), self.run_catalog, self.check_catalog),
            Batch("bounds_table", [self.n_max], self.run_table, lambda n, out: checks.check_bounds(*out)),
        ]

    def run_catalog(self, length: int):
        return self.ctx.search.small_norm_catalog(length, checks.LEMMA_CUTOFFS[length][0])

    def check_catalog(self, length: int, catalog):
        brute = self.ctx.memo(
            ("small_norm", length),
            lambda: checks.small_norm_keys(length, checks.LEMMA_BRUTE_MODULI[length]),
        )
        entries = [(tuple(e.list.elements), e.norm) for e in catalog.entries]
        return checks.check_small_norm(length, entries, brute)

    def run_table(self, n_max: int):
        bounds = self.ctx.bounds
        table = bounds.build_table(n_max, 3)
        cutoffs = (bounds.max_length_for_D(table, 2), bounds.max_length_for_D(table, 2, use_g1=True))
        g1 = [(n, bounds.g1_closed_form(n)) for n in range(1, 41)]
        rows = (table.g[2:12], table.g1[2:12])
        return rows, cutoffs, g1


# ---------------------------------------------------------------------------
# certify


VALUATION_N_MAX = 6
SUM_ZERO_FAULT_MODULI = (30, 72)  # length 6; fixed, since the fault shows for every modulus
SUM_ZERO_MODULI = {3: (12, 24, 30, 36, 48, 60, 72, 90, 120), 4: (12, 24, 30, 36, 48, 60, 72, 90, 120),
                   5: (12, 24, 30, 36, 48, 60, 72, 90, 120), 7: (12, 18, 20, 24, 28, 30)}


class Certify:
    """A seeded batch of the exact queries and cross-checks a user runs one
    at a time: norms, integrality, valuations, separations, Liouville
    lists, catalog verification and sum-zero enumeration."""

    name = "certify"
    details = (
        ("norm_per_s", "lists/s", "higher", ("norm",)),
        ("integration_norm_per_s", "lists/s", "higher", ("integration_norm",)),
        ("integrality_per_s", "specs/s", "higher", ("integrality",)),
        ("valuation_per_s", "specs/s", "higher", ("valuation",)),
        ("separation_per_s", "lists/s", "higher", ("separation",)),
        ("liouville_per_s", "N/s", "higher", ("liouville",)),
        ("cli_per_s", "queries/s", "higher", ("cli",)),
    )

    def __init__(self, ctx: Context):
        self.ctx = ctx
        scale = 10 if ctx.tiny else 1
        self.n_norm = 200 // scale
        self.n_random_specs = 10 // scale  # per length 3, 5, 7
        self.n_separation = 20 // scale
        self.n_liouville = 200 // scale
        self.catalogs = [(name, ctx.search.load_golden(name)) for name in ctx.search.GOLDEN_NAMES]
        self.paper_specs = [checks.split_spec(e) for n in (5, 7, 9) for e in ctx.paper[n]]

    # -- inputs ---------------------------------------------------------------

    @staticmethod
    def random_list(rng, lengths, top):
        while True:
            els = [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(rng.choice(lengths))]
            if not checks.is_degenerate(els):
                return els

    @staticmethod
    def random_d1_list(rng, length, values, valset):
        """A primitive non-degenerate sum-zero D = 1 list over `values`."""
        while True:
            head = [rng.choice(values) for _ in range(length - 1)]
            full = head + [-sum(head)]
            if full[-1] not in valset or checks.is_degenerate(full) or not checks.is_primitive(full):
                continue
            if abs(2 * sum(1 for e in full if e > 0) - length) == 1:
                return full

    @staticmethod
    def family_lists(rng):
        out = []
        while len(out) < 6:
            a, b = rng.randint(1, 60), rng.randint(1, 60)
            if gcd(a, b) != 1:
                continue
            kind = len(out) // 2
            if kind == 0:
                shape = (a + b, -a, -b)
            elif kind == 1:
                shape = (2 * a, 2 * b, -a, -b, -(a + b))
            else:
                a, b = max(a, b), min(a, b)
                shape = (2 * a, b, -a, -2 * b, -(a - b))
            if not checks.is_degenerate(shape) and len(set(shape)) == len(shape):
                out.append(shape)
        return out

    def spec_item(self, els):
        num, den = checks.split_spec(els)
        spec = self.ctx.integrality.RatioSpec(numerator=num, denominator=den)
        return (num, den), spec, self.ctx.lists.make_list(els)

    def round(self, rng) -> list[Batch]:
        ctx = self.ctx
        make_list = ctx.lists.make_list
        norm_lists = [make_list(self.random_list(rng, range(2, 10), 200)) for _ in range(self.n_norm)]

        values = checks.signed_divisors(720)
        valset = set(values)
        random_specs = [
            self.random_d1_list(rng, length, values, valset)
            for length in (3, 5, 7)
            for _ in range(self.n_random_specs)
        ]
        families = self.family_lists(rng)
        spec_lists = [num + tuple(-b for b in den) for num, den in self.paper_specs] + families + random_specs
        spec_items = [self.spec_item(els) for els in spec_lists]
        # 8 of the paper's lists, the 6 family members, 2 random specs per length
        base, per = len(self.paper_specs), self.n_random_specs
        chosen = rng.sample(range(base), 8) + list(range(base, base + 6))
        chosen += [base + 6 + per * t + i for t in range(3) for i in range(min(2, per))]
        valuation_items = [spec_items[i] for i in chosen]

        separation_lists = []
        while len(separation_lists) < self.n_separation:
            els = self.random_list(rng, (3, 4, 5), 30)
            if checks.is_primitive(els):
                separation_lists.append(make_list(els))
        start = rng.randint(1, 30000)
        liouville_ns = list(range(start, start + self.n_liouville))
        sum_zero = [(rng.choice(SUM_ZERO_MODULI[n]), n) for n in (3, 4, 5, 7)]
        sum_zero += [(m, 6) for m in SUM_ZERO_FAULT_MODULI]
        # the same kinds of query through the command line, in this process
        cli_queries = [("norm", tuple(a.elements)) for a in norm_lists[:4]]
        cli_queries += [("check", *spec_items[i][0]) for i in (chosen[0], chosen[8], chosen[-2], chosen[-1])]
        cli_queries += [("liouville", n) for n in liouville_ns[:4]]

        integrality, separation, liouville = ctx.integrality, ctx.separation, ctx.liouville

        def check_norm(a, value):
            return checks.check_norm(a.elements, value)

        return [
            Batch("norm", norm_lists, ctx.lists.norm, check_norm),
            Batch("integration_norm", norm_lists, ctx.lists.norm_by_integration, check_norm),
            Batch(
                "integrality",
                spec_items,
                lambda it: (integrality.landau_min_max(it[1]), integrality.norm_quarter_check(it[2])),
                lambda it, out: checks.check_integrality(it[0], *out),
            ),
            Batch(
                "valuation",
                valuation_items,
                lambda it: integrality.valuation_oracle(it[1], VALUATION_N_MAX),
                lambda it, out: checks.check_valuation(it[0], VALUATION_N_MAX, out),
            ),
            Batch("separation", separation_lists, self.run_separation, self.check_separation),
            Batch(
                "liouville",
                liouville_ns,
                lambda n: (liouville.build_liouville(n), liouville.liouville_norm_formula(n)),
                lambda n, out: checks.check_liouville(n, out[0].list.elements, out[0].d_of_N, out[1]),
            ),
            Batch("verify", self.catalogs, lambda it: ctx.search.verify_catalog(it[1]), self.check_verify),
            Batch("cli", cli_queries, self.run_cli, lambda q, out: checks.check_cli(q, *out)),
            Batch(
                "sum_zero",
                sum_zero,
                lambda it: ctx.search.sum_zero_divisor_lists(*it),
                self.check_sum_zero,
                known_fault=lambda it: it[1] == 6,
            ),
        ]

    # -- calls and checks -------------------------------------------------------

    def run_cli(self, query):
        kind = query[0]
        if kind == "norm":
            args = ["norm", "--list=" + ",".join(map(str, query[1]))]
        elif kind == "check":
            args = ["check", "--num=" + ",".join(map(str, query[1])), "--den=" + ",".join(map(str, query[2]))]
        else:
            args = ["liouville", "--N", str(query[1])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ctx.cli.run(["--format", "json", *args])
        return code, out.getvalue()

    def run_separation(self, a):
        separation = self.ctx.separation
        found = {}
        for k in range(2, 8):
            found[k] = [
                (w.B, w.b_part.elements, w.C, w.c_part.elements, separation.check_decomposition(a, w))
                for w in separation.find_separations(a, k)
            ]
        top = separation.max_separation(a)
        bound = separation.support_bound(a.length, max(top, 2))
        return found, top, (bound.n, bound.k, bound.modulus)

    @staticmethod
    def check_separation(a, out):
        return checks.check_separation(a.elements, *out)

    @staticmethod
    def check_verify(item, report):
        name, catalog = item
        entries = [(tuple(e.list.elements), e.norm) for e in catalog.entries]
        return checks.check_verify(name, entries, report, checks.PAPER_SPORADIC_COUNTS)

    def check_sum_zero(self, item, result):
        modulus, length = item
        expected = self.ctx.memo(("sum_zero", item), lambda: checks.sum_zero_keys(modulus, length))
        got = {checks.key(a.elements) for a in result}
        return checks.check_sum_zero(got, expected, f"sum_zero_divisor_lists({modulus}, {length})")


WORKLOADS = {cls.name: cls for cls in (Classify, MinimalNorms, Certify)}
