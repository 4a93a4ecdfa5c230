import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratio_lab.integrality import (
    RatioSpec,
    family_membership,
    is_integral,
    landau_min_max,
    norm_quarter_check,
    to_list,
    valuation_oracle,
)
from ratio_lab.lists import canonical_pair_key, involute, make_list, norm
from ratio_lab.search import load_golden

F = Fraction

CHEB = RatioSpec(numerator=(30, 1), denominator=(15, 10, 6))


def test_spec_validation():
    with pytest.raises(ValueError):
        RatioSpec(numerator=(2, 2), denominator=(1, 1, 2))  # shared entry
    with pytest.raises(ValueError):
        RatioSpec(numerator=(3,), denominator=(1,))  # sums differ
    with pytest.raises(ValueError):
        RatioSpec(numerator=(0, 3), denominator=(1, 2))


@pytest.mark.parametrize(
    "num, den, message",
    [
        ((10**9, 10**9), (2 * 10**9 - 1, 1), "2999999997 breakpoints times 4 entries"),
        # under 10^6 breakpoints, but each sums over 1400 entries
        (range(1, 1400, 2), [*range(2, 1400, 2), 700], "977901 breakpoints times 1400 entries"),
    ],
    ids=["large-entries", "many-entries"],
)
def test_landau_breakpoint_cap(num, den, message):
    # a cap checked after the scan would hang on the first case, not fail
    spec = RatioSpec(numerator=tuple(num), denominator=tuple(den))
    with pytest.raises(ValueError, match=f"^{message}, above the cap of 2\\*10\\^6$"):
        landau_min_max(spec)
    with pytest.raises(ValueError, match="breakpoints"):
        is_integral(spec)


def test_landau_at_the_cap():
    # (444444 - 1) + (222222 - 1) = 666664 breakpoints times 3 entries is
    # 1999992, just under the cap; C(2n, n) at 222222 n is integral
    assert landau_min_max(RatioSpec(numerator=(444444,), denominator=(222222, 222222))) == (0, 1)


def test_to_list():
    a = to_list(CHEB)
    assert a == make_list([1, -6, -10, -15, 30])
    assert a.total == 0 and a.length == 5
    assert to_list(RatioSpec(numerator=(2,), denominator=(1, 1))) == make_list([-1, -1, 2])


def test_landau_chebyshev():
    assert landau_min_max(CHEB) == (0, 1)
    assert is_integral(CHEB)


def test_landau_non_example():
    bad = RatioSpec(numerator=(2, 3), denominator=(1, 4))
    lo, hi = landau_min_max(bad)
    assert lo == -1  # attained at x = 1/4
    assert not is_integral(bad)


def test_landau_binomial_family():
    # every K=1 spec ({a+b};{a,b}) is the binomial coefficient C((a+b)n, an)
    assert is_integral(RatioSpec(numerator=(3,), denominator=(1, 2)))
    assert is_integral(RatioSpec(numerator=(5,), denominator=(2, 3)))


def _f_at(r: RatioSpec, x: Fraction) -> int:
    total = 0
    for a in r.numerator:
        v = a * x
        total += v.numerator // v.denominator
    for b in r.denominator:
        v = b * x
        total -= v.numerator // v.denominator
    return total


def _random_spec(rng, top=60):
    while True:
        num = [rng.randint(1, top) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(1, top) for _ in range(rng.randint(0, 4))]
        last = sum(num) - sum(den)
        if last > 0 and not set(num) & set(den + [last]):
            return RatioSpec(numerator=tuple(num), denominator=tuple(den + [last]))


def _landau_loop(r: RatioSpec) -> tuple[int, int]:
    # reference: f at one breakpoint m/v at a time, in Python integers
    lo = hi = 0
    for v in set(r.numerator) | set(r.denominator):
        for m in range(1, v):
            val = sum(a * m // v for a in r.numerator) - sum(b * m // v for b in r.denominator)
            lo, hi = min(lo, val), max(hi, val)
    return lo, hi


def test_landau_integer_scan_matches_fraction_scan():
    # f evaluated with one Fraction per distinct breakpoint, as the scan
    # was written before it worked on integer floors, and by the loop
    rng = random.Random(8)
    for _ in range(1000):
        r = _random_spec(rng)
        points = {F(m, v) for v in r.numerator + r.denominator for m in range(1, v)}
        values = [0] + [_f_at(r, x) for x in points]
        assert landau_min_max(r) == (min(values), max(values)), r
        assert landau_min_max(r) == _landau_loop(r), r


@st.composite
def _specs(draw):
    num = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    den = draw(st.lists(st.integers(1, 12), max_size=3))
    last = sum(num) - sum(den)
    if last <= 0 or set(num) & set(den + [last]):
        # K = 1: ({a+b}; {a, b}) is a binomial coefficient, always integral
        a = draw(st.integers(1, 12))
        return RatioSpec(numerator=(a + 1,), denominator=(a, 1) if a > 1 else (1, 1))
    return RatioSpec(numerator=tuple(num), denominator=tuple(den + [last]))


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_landau_integral_implies_valuations_pass(r):
    assert landau_min_max(r) == _landau_loop(r)
    if is_integral(r):
        assert valuation_oracle(r, 60) is None


def test_landau_reflection_and_range():
    rng = random.Random(2)
    specs = [CHEB, RatioSpec(numerator=(4, 6), denominator=(2, 3, 5))]
    for r in specs:
        lo, hi = landau_min_max(r)
        assert 0 <= lo and hi <= r.D
        # f(x) + f(-x) = D away from breakpoints
        for _ in range(25):
            x = F(rng.randint(1, 100), 101)
            assert _f_at(r, x) + _f_at(r, -x) == r.D


def test_ratio_spec_from_list():
    # D = 1: the longer, negative side is the denominator
    assert RatioSpec.from_list(make_list([1, -6, -10, -15, 30])) == CHEB
    # D = 2
    spec = RatioSpec.from_list(make_list([3, 3, -1, -1, -2, -2]))
    assert (spec.numerator, spec.denominator, spec.D) == ((3, 3), (1, 1, 2, 2), 2)
    # more positive than negative entries: the sides swap
    assert RatioSpec.from_list(make_list([-1, 6, 10, 15, -30])) == CHEB
    assert RatioSpec.from_list(make_list([1, 1, -2])) == RatioSpec(numerator=(2,), denominator=(1, 1))


def test_norm_quarter_check():
    a = make_list([1, -6, -10, -15, 30])
    spec = norm_quarter_check(a)
    assert spec == CHEB
    assert norm_quarter_check(make_list([-1, -1, 2])) is not None
    assert norm_quarter_check(make_list([1, 2, -3])) is not None
    with pytest.raises(ValueError):
        norm_quarter_check(make_list([1, -3, 9, -27, 81]))  # sum not zero
    # an odd sum-zero list with norm > 1/4 is rejected, not an error
    b = make_list([1, 7, -2, -2, -4])
    assert b.total == 0 and b.length == 5
    assert norm(b) > F(1, 4)
    assert norm_quarter_check(b) is None


def test_quarter_norm_matches_landau_small():
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        body = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(4)]
        last = -sum(body)
        if last == 0:
            continue
        a = make_list(body + [last])
        if a.length != 5 or a.total != 0 or not a.is_primitive():
            continue
        quarter = norm(a) == F(1, 4)
        pos = tuple(e for e in a.elements if e > 0)
        neg = tuple(-e for e in a.elements if e < 0)
        if len(pos) > len(neg):
            pos, neg = neg, pos
        if len(neg) != len(pos) + 1:
            assert not quarter
            checked += 1
            continue
        integral = is_integral(RatioSpec(numerator=pos, denominator=neg))
        assert integral == quarter
        checked += 1


def test_involution_closure_on_integral_lists():
    for raw in ([1, -6, -10, -15, 30], [2, -1, -1], [2, 9, -1, -4, -6]):
        a = make_list(raw)
        assert norm_quarter_check(a) is not None
        bar = involute(a)
        flipped = bar.negate()
        assert norm_quarter_check(bar) is not None or norm_quarter_check(flipped) is not None


def test_valuation_oracle_pass_and_fail():
    assert valuation_oracle(CHEB, n_max=60) is None
    bad = RatioSpec(numerator=(2, 3), denominator=(1, 4))
    hit = valuation_oracle(bad, n_max=10)
    assert hit is not None
    n, p = hit
    # confirm the reported violation with plain factorials
    num = factorial(2 * n) * factorial(3 * n)
    den = factorial(1 * n) * factorial(4 * n)
    assert num % den != 0


def test_valuation_oracle_smallest_failure_is_frozen():
    # 2!3!/(1!4!) = 1/2 already fails at n = 1
    bad = RatioSpec(numerator=(2, 3), denominator=(1, 4))
    first = next(
        n
        for n in range(1, 11)
        if (factorial(2 * n) * factorial(3 * n)) % (factorial(n) * factorial(4 * n))
    )
    assert first == 1
    assert valuation_oracle(bad, n_max=10)[0] == first


def test_valuation_oracle_cap(monkeypatch):
    # 5 entries times 30 times n_max^2 passes 10^8 from n_max = 817 on; the
    # acceptance suite's criterion 7 (n_max 200, entries up to 60) stays
    # below 1.2 * 10^7.  A refused input never reaches the sieve.
    def no_sieve(limit):
        raise AssertionError("the sieve was started")

    monkeypatch.setattr("ratio_lab.integrality.primes_upto", no_sieve)
    with pytest.raises(ValueError, match=r"5 entries times largest entry 30 times n_max\^2 = 817\^2, above the cap"):
        valuation_oracle(CHEB, n_max=817)
    with pytest.raises(AssertionError, match="sieve"):
        valuation_oracle(CHEB, n_max=816)


def test_valuation_oracle_on_families():
    rng = random.Random(4)
    for _ in range(10):
        a = rng.randint(1, 9)
        b = rng.randint(1, 9)
        if gcd(a, b) != 1:
            continue
        fam1 = RatioSpec(numerator=(a + b,), denominator=(a, b)) if a != b else None
        if fam1 and a + b not in (a, b):
            assert valuation_oracle(fam1, n_max=40) is None


def test_family_membership():
    assert family_membership(make_list([-1, -1, 2])) == "family1"
    assert family_membership(make_list([4, 6, -2, -3, -5])) == "family2"
    assert family_membership(make_list([6, 1, -3, -2, -2])) == "family3"
    assert family_membership(make_list([1, -6, -10, -15, 30])) == "sporadic"
    # in both families: the first match of its pair key, (-2, 3), tags it and
    # its negation alike
    assert family_membership(make_list([-1, 2, -3, -4, 6])) == "family3"
    assert family_membership(make_list([1, -2, 3, 4, -6])) == "family3"


def _match_type_a_family(values):
    # the matcher the reference below calls, as it was alongside it
    target = tuple(sorted(values))
    candidates = sorted({-v for v in values})
    for a in candidates:
        for b in candidates:
            if a + b == 0 or gcd(a, b) != 1:
                continue
            if tuple(sorted([2 * a, 2 * b, -a, -b, -(a + b)])) == target:
                return (a, b)
    return None


def _reference_family_membership(a) -> str:
    # the family test before it dropped the retry on the negated list;
    # kept verbatim as the reference the current code must match on a
    # list's pair key
    if a.length % 2 == 0 or a.total != 0 or not a.is_primitive():
        raise ValueError("need a primitive odd-length sum-zero list")
    for candidate in (a.elements, tuple(-e for e in a.elements)):
        if len(candidate) == 3:
            # [a+b, -a, -b]: any sum-zero triple with one positive entry
            if sum(1 for v in candidate if v > 0) == 1:
                return "family1"
        if len(candidate) == 5:
            match = _match_type_a_family(candidate)
            if match is not None:
                fa, fb = match
                return "family2" if fa * fb > 0 else "family3"
    return "sporadic"


def test_family_membership_matches_reference():
    # every primitive sum-zero list of length 3 and 5 over +-1..12
    values = [v for v in range(-12, 13) if v]
    tags = Counter()
    for n in (3, 5):
        for raw in combinations_with_replacement(values, n):
            if sum(raw) != 0:
                continue
            a = make_list(raw)
            if a.length != n or not a.is_primitive():
                continue
            tag = family_membership(a)
            assert tag == _reference_family_membership(make_list(canonical_pair_key(a))), raw
            assert tag == family_membership(a.negate()), raw
            assert to_list(RatioSpec.from_list(a)) in (a, a.negate())  # nothing cancels
            tags[tag] += 1
    assert min(tags[t] for t in ("family1", "family2", "family3", "sporadic")) > 0, tags


# the breakpoints m/v, 0 < m < v <= 30, of every spec with entries in 1..30,
# in lowest terms: the 277 Farey points of order 30 inside (0, 1)
FAREY_30 = np.array([(m, d) for d in range(2, 31) for m in range(1, d) if gcd(m, d) == 1]).T


def _step_rows(k):
    """The k-multisets of 1..30 as non-decreasing rows, and for each the sum
    of floor(v * m / d) over its entries v at every point m/d of FAREY_30,
    in int16, added one entry column at a time."""
    rows = np.fromiter(chain.from_iterable(combinations_with_replacement(range(1, 31), k)), dtype=np.int16).reshape(-1, k)
    m, d = FAREY_30
    floors = (np.arange(31)[:, None] * m // d).astype(np.int16)
    steps = np.zeros((len(rows), len(m)), dtype=np.int16)
    for col in rows.T:
        steps += floors[col]
    return rows, steps


@pytest.mark.parametrize("length", [5, 7])
def test_sporadics_by_landau_without_norms(length):
    # Norm-free cross-check of the golden sporadics: every primitive D = 1
    # spec with entries in 1..30 (the largest golden entry is 30), decided
    # by the Landau criterion alone.  f(x) = sum floor(a x) - sum floor(b x)
    # has period 1, is 0 at 0 and is constant from one breakpoint to the
    # next, so f >= 0 at the points of FAREY_30 is exact integrality.
    num, num_steps = _step_rows(length // 2)
    den, den_steps = _step_rows(length // 2 + 1)
    num_sum, den_sum = num.sum(axis=1, dtype=np.int64), den.sum(axis=1, dtype=np.int64)
    sporadic = set()
    for s in np.intersect1d(num_sum, den_sum):
        i, j = np.flatnonzero(num_sum == s), np.flatnonzero(den_sum == s)
        integral = (num_steps[i][:, None] >= den_steps[j][None]).all(axis=2)
        for p, q in zip(*np.nonzero(integral)):
            a, b = num[i[p]].tolist(), den[j[q]].tolist()
            if set(a) & set(b) or gcd(*a, *b) > 1:  # shared entries cancel; not primitive
                continue
            lst = make_list(a + [-v for v in b])
            if family_membership(lst) == "sporadic":
                sporadic.add(canonical_pair_key(lst))
    assert sporadic == load_golden(f"sporadic_length{length}").keys()
