"""Acceptance suite: one test per criterion, each a single pass/fail line.

Criterion 9's divisor-count bracket is asserted in exact integers in its
own test: N_k = prod_{p<=k} p^r with r the largest integer such that
r^pi(k) <= 2^k, so d(N_k) = (r+1)^pi(k) and r^pi(k) <= 2^k < d(N_k).
No upper bound d(N_k) < 2^(k+1) holds for this construction: it fails
at k = 5 and k = 7 for every integer exponent.
"""

import json
import os
import random
import time
from fractions import Fraction
from math import gcd, prod

from ratio_lab.bounds import build_table, g1_closed_form, max_length_for_D
from ratio_lab.integrality import (
    RatioSpec,
    family_membership,
    is_integral,
    landau_min_max,
    valuation_oracle,
)
from ratio_lab.lists import make_list, norm, norm_by_integration
from ratio_lab.liouville import (
    asymptotic_ratio_probe,
    build_liouville,
    liouville_norm_formula,
    n_sub_k,
)
from ratio_lab.search import (
    canonical_pair_key,
    catalog_dir,
    classify_length,
    load_golden,
    sum_zero_divisor_lists,
    verify_catalog,
)
from ratio_lab.separation import (
    check_decomposition,
    find_separations,
    max_separation,
    support_bound,
)

F = Fraction
QUARTER = F(1, 4)


def test_criterion_1_norm_engine():
    start = time.time()
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randint(2, 8)
        a = make_list([rng.choice([-1, 1]) * rng.randint(1, 1000) for _ in range(n)])
        if a.length == 0:
            continue
        assert norm(a) == norm_by_integration(a), a
    points = {
        (1, -2): F(1, 12),
        (1, -2, 4): F(1, 8),
        (4, -6, 9): F(43, 216),
        (1, -2, -3, 6): F(1, 9),
        (1, -6, -10, -15, 30): F(1, 4),
    }
    for els, expected in points.items():
        assert norm(make_list(els)) == expected
    assert time.time() - start < 10


G_ROW = [F(1, 12), F(1, 8), F(1, 9), F(1, 6), F(17, 108), F(5, 27), F(37, 216), F(95, 432), F(2, 9), F(325, 1296)]
G1_ROW = [F(1, 6), F(1, 6), F(1, 6), F(7, 36), F(7, 36), F(17, 72), F(2, 9), F(55, 216), F(55, 216), F(8, 27)]


def test_criterion_2_bounds_table():
    start = time.time()
    small = build_table(11, 3)
    assert [small.g[n] for n in range(2, 12)] == G_ROW
    assert [small.g1[n] for n in range(2, 12)] == G1_ROW
    table = build_table(256, 3)
    assert max_length_for_D(table, 2) == 81
    assert max_length_for_D(table, 2, use_g1=True) == 75
    assert time.time() - start < 30


def test_criterion_3_closed_form():
    table = build_table(20, 1)
    for n in range(1, 21):
        direct = norm(make_list([(-2) ** j for j in range(n)]))
        assert g1_closed_form(n) == direct
        if n >= 2:
            assert table.gr[1][n] == direct


def _golden_json(name: str) -> dict:
    """A golden catalog file as stored: representatives, order and note."""
    with open(os.path.join(catalog_dir(), f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_criterion_4_classification_regression():
    cats = {}
    for length, count in ((5, 29), (7, 21), (9, 2)):
        start = time.time()
        cats[length] = classify_length(length)
        assert len(cats[length].entries) == count, (length, len(cats[length].entries))
        report = verify_catalog(cats[length], load_golden(f"sporadic_length{length}"))
        assert report.ok, report
        assert cats[length].to_json() == _golden_json(f"sporadic_length{length}"), length
        assert time.time() - start < 1800, length
    nine = {tuple(e.list.elements) for e in cats[9].entries}
    expected = {
        canonical_pair_key(make_list([2, 3, 5, 30, -1, -6, -8, -10, -15])),
        canonical_pair_key(make_list([4, 6, 9, 24, -2, -3, -8, -12, -18])),
    }
    assert {canonical_pair_key(make_list(t)) for t in nine} == expected


def test_criterion_5_small_norm_lemmas(small_norm):
    four = small_norm(4, F(11, 60))
    assert four.to_json() == _golden_json("small_norm_length4")
    sweep_part = [e for e in four.entries if all(1728 % abs(v) == 0 for v in e.list.elements)]
    assert len(sweep_part) == 19
    dist = {}
    for e in sweep_part:
        dist[e.norm] = dist.get(e.norm, 0) + 1
    assert dist == {F(1, 6): 9, F(19, 108): 4, F(17, 96): 2, F(13, 72): 4}
    assert canonical_pair_key(make_list([1, -3, -5, 15])) in four.keys()

    six = small_norm(6, F(7, 36))
    assert six.to_json() == _golden_json("small_norm_length6")
    assert six.keys() == {
        canonical_pair_key(make_list([1, -2, -3, 4, 6, -12])),
        canonical_pair_key(make_list([1, -2, -3, 6, 8, -24])),
        canonical_pair_key(make_list([1, -3, -4, 8, 12, -24])),
    }

    seven = small_norm(7, F(5, 24))
    assert seven.entries and all(e.norm == F(5, 24) for e in seven.entries)
    assert canonical_pair_key(make_list([1, -2, -3, 6, 9, -18, 36])) in seven.keys()

    eight = small_norm(8, F(8, 45))
    assert [e.norm for e in eight.entries] == [F(8, 45)]
    assert eight.keys() == {canonical_pair_key(make_list([1, -2, -3, 6, -5, 10, 15, -30]))}


def _landau_nonneg(num, den) -> bool:
    """min f >= 0 for f = sum floor(a x) - sum floor(b x), early exit;
    at x = m/v each floor(a x) is the integer a*m // v."""
    for v in sorted({*num, *den}):
        for m in range(1, v):
            if sum(a * m // v for a in num) - sum(b * m // v for b in den) < 0:
                return False
    return True


def test_criterion_6_integrality_equivalence():
    rng = random.Random(6)
    for length in (3, 5, 7):
        lists = sum_zero_divisor_lists(720, length)
        sample = set(rng.sample(range(len(lists)), min(200, len(lists))))
        for idx, a in enumerate(lists):
            quarter = norm(a) == QUARTER
            pos = tuple(e for e in a.elements if e > 0)
            neg = tuple(-e for e in a.elements if e < 0)
            if len(pos) > len(neg):
                pos, neg = neg, pos
            d_one = len(neg) - len(pos) == 1
            integral = d_one and _landau_nonneg(pos, neg)
            assert integral == quarter, a
            if (quarter or idx in sample) and d_one:
                # spot-confirm the fast path against the full check
                lo, _ = landau_min_max(RatioSpec(numerator=pos, denominator=neg))
                assert (lo >= 0) == _landau_nonneg(pos, neg)


def test_criterion_7_valuation_oracle():
    start = time.time()
    for name in ("sporadic_length5", "sporadic_length7", "sporadic_length9"):
        for e in load_golden(name).entries:
            assert valuation_oracle(RatioSpec.from_list(e.list), n_max=200) is None, e.list
    rng = random.Random(52)
    families = 0
    while families < 150:  # 50 per family
        a = rng.randint(1, 30)
        b = rng.randint(1, 30)
        if gcd(a, b) != 1:
            continue
        which = families % 3
        if which == 0:
            lst = make_list([a + b, -a, -b])
        elif which == 1:
            lst = make_list([2 * a, 2 * b, -a, -b, -(a + b)])
        else:
            if a == b:
                continue
            hi, lo = max(a, b), min(a, b)
            lst = make_list([2 * hi, lo, -hi, -2 * lo, -(hi - lo)])
        if lst.length not in (3, 5) or lst.total != 0 or not lst.is_primitive():
            continue
        assert valuation_oracle(RatioSpec.from_list(lst), n_max=200) is None, lst
        families += 1
    rejected = 0
    while rejected < 100:
        n = rng.randint(2, 3)
        num = sorted(rng.randint(1, 12) for _ in range(n))
        den = sorted(rng.randint(1, 12) for _ in range(n + 1))
        if sum(num) != sum(den) or set(num) & set(den):
            continue
        spec = RatioSpec(numerator=tuple(num), denominator=tuple(den))
        if is_integral(spec):
            continue
        assert valuation_oracle(spec, n_max=200) is not None, spec
        rejected += 1
    assert time.time() - start < 120


def test_criterion_8_separation_suite():
    worked = make_list([30, -15, -10, -6, 1])
    for k in (2, 3, 5):
        assert find_separations(worked, k), k
    assert not find_separations(worked, 6)
    assert max_separation(worked) == 5

    rng = random.Random(22)
    witnesses = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        a = make_list([rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(n)])
        if a.length < 2 or not a.is_primitive():
            continue
        for k in range(2, 8):
            for w in find_separations(a, k):
                check_decomposition(a, w)  # raises if the identity fails
                witnesses += 1
    assert witnesses > 100

    seen = set()
    for x in range(1, 51):
        for y in range(-50, 51):
            for z in range(-50, 51):
                if y == 0 or z == 0:
                    continue
                a = make_list([x, y, z])
                if a.length != 3 or not a.is_primitive() or a.elements in seen:
                    continue
                seen.add(a.elements)
                k = max(max_separation(a), 2)
                modulus = support_bound(3, k).modulus
                assert all(modulus % abs(e) == 0 for e in a.elements), (a, k)


def test_criterion_9_liouville_formula_and_probe():
    for N in range(1, 5001):
        assert liouville_norm_formula(N) == norm(build_liouville(N).list), N
    for k in (2, 3, 4, 5, 6):
        upper, lower = asymptotic_ratio_probe(k)
        # report-only: the ratio converges at (log log)^2 speed, far beyond
        # desk scale, so only ordering is asserted
        assert upper >= lower > 0


def _divisor_count(N: int) -> int:
    d = 1
    p = 2
    while p * p <= N:
        e = 0
        while N % p == 0:
            N //= p
            e += 1
        d *= e + 1
        p += 1
    if N > 1:
        d *= 2
    return d


def test_criterion_9_divisor_count_window():
    # d(N_k) brackets 2^k: r is found here independently of n_sub_k, as
    # the largest integer with r^pi(k) <= 2^k, see the module docstring
    for k in range(2, 13):
        primes = [p for p in range(2, k + 1) if _divisor_count(p) == 2]
        pi = len(primes)
        r = max(s for s in range(1, 2**k + 1) if s**pi <= 2**k)
        N = n_sub_k(k)
        assert N == prod(p**r for p in primes), k
        d = _divisor_count(N)
        assert d == (r + 1) ** pi, (k, d)
        assert r**pi <= 2**k < d, (k, d)
