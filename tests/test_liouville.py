from fractions import Fraction

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
