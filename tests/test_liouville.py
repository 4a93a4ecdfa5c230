from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

import ratio_lab.liouville as liouville
from ratio_lab.lists import concat, make_list, norm, scale
from ratio_lab.liouville import (
    asymptotic_ratio_probe,
    build_liouville,
    liouville_norm_formula,
    n_sub_k,
)

F = Fraction


def test_build_examples():
    assert build_liouville(4).list == make_list([1, -2, 4])
    assert build_liouville(6).list == make_list([1, -2, -3, 6])
    assert build_liouville(12).list == make_list([1, -2, -3, 4, 6, -12])
    assert build_liouville(1).list == make_list([1])
    with pytest.raises(ValueError):
        build_liouville(0)


def test_divisor_count_matches_length():
    for N in (1, 2, 16, 36, 360, 1024):
        ll = build_liouville(N)
        assert ll.d_of_N == ll.list.length


def test_formula_examples():
    assert liouville_norm_formula(4) == F(1, 8)
    assert liouville_norm_formula(6) == F(1, 9)
    assert liouville_norm_formula(1) == F(1, 12)


def test_formula_matches_direct_norm():
    for N in range(1, 600):
        assert liouville_norm_formula(N) == norm(build_liouville(N).list), N


def _reference_norm_formula(N: int) -> Fraction:
    # the series of the module docstring, one Fraction per term, over the
    # factorization liouville_norm_formula reads
    if N < 1:
        raise ValueError("N must be positive")
    d = 1
    f = Fraction(1)
    for p, k in liouville.factorize(N):
        d *= k + 1
        f *= 1 + 2 * sum(
            Fraction(k + 1 - j, k + 1) * Fraction((-1) ** j, p**j)
            for j in range(1, k + 1)
        )
    return Fraction(d, 12) * f


def test_formula_matches_its_series(monkeypatch):
    # N_k has lists too long for norm
    for N in [*range(1, 3001), *map(n_sub_k, range(2, 41))]:
        assert liouville_norm_formula(N) == _reference_norm_formula(N), N
    # every p^k with k <= 20, so that (-1)^k takes both signs at each p, and
    # the products of two such powers, factored here: trial division takes
    # half a million steps to find 999983 in 999983^2
    powers = [Counter({p: k}) for p in (2, 3, 5, 7, 10007, 999983) for k in range(1, 21)]
    factors = powers + [a + b for a, b in combinations_with_replacement(powers, 2)]
    known = {prod(p**k for p, k in c.items()): sorted(c.items()) for c in factors}
    monkeypatch.setattr(liouville, "factorize", known.__getitem__)
    for N in known:
        assert liouville_norm_formula(N) == _reference_norm_formula(N), N


def test_probe_reports_upper_above_lower():
    for k in (2, 3, 4):
        upper, lower = asymptotic_ratio_probe(k)
        assert upper >= lower > 0


class _Started(Exception):
    pass


def test_probe_k_cap(monkeypatch):
    def no_sieve(limit):
        raise _Started

    monkeypatch.setattr(liouville, "primes_upto", no_sieve)
    for k in (1, 257, 100000):
        for fn in (n_sub_k, asymptotic_ratio_probe):
            with pytest.raises(ValueError, match=f"k must be between 2 and 256, got {k}$"):
                fn(k)
    for k in (2, 256):  # the ends of the range get as far as the sieve
        with pytest.raises(_Started):
            asymptotic_ratio_probe(k)


def test_probe_factorizes_nothing(monkeypatch):
    # N_k's primes and exponent give both the formula and d(N_k)
    expected = asymptotic_ratio_probe(64)

    def refused(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(liouville, "factorize", refused)
    assert asymptotic_ratio_probe(64) == expected
    upper, lower = asymptotic_ratio_probe(256)
    assert upper >= lower > 0


def test_probe_k2_shape():
    # k=2: single prime 2, r = 4, N = 16, n = d(N) = 5
    assert n_sub_k(2) == 16
    upper, _ = asymptotic_ratio_probe(2)
    assert upper == liouville_norm_formula(16)


def test_constructive_subadditivity():
    # scaling one list by a prime foreign to the other makes the norms
    # nearly add; one sign choice never exceeds the sum
    cases = [
        (make_list([1, -2]), make_list([1, -2, -3, 6])),
        (make_list([1, -2, 4]), make_list([1, -6, -10, -15, 30])),
    ]
    for b, c in cases:
        p = 101  # prime larger than every prime factor in c
        target = norm(b) + norm(c)
        plus = norm(concat(scale(b, p), c))
        minus = norm(concat(scale(b, -p), c))
        assert min(plus, minus) <= target
        assert abs(plus - target) <= F(2, p) * (norm(b) + norm(c)) + F(1, 2)
