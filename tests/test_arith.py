import time
from math import isqrt

import pytest

from ratio_lab.arith import divisors, factorize


def _trial_divisors(m):
    m = abs(m)
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def test_divisors_match_trial_division():
    for m in range(1, 10**4 + 1):
        assert divisors(m) == _trial_divisors(m)
        # from the primes of a multiple, some of which do not divide m
        assert divisors(m, [p for p, _ in factorize(30 * m)]) == divisors(m)
    assert divisors(-360) == divisors(360)
    assert divisors(0) == []


def test_divisors_of_a_large_prime_power_at_once():
    # trial division up to sqrt(2^60) would take 2^30 steps
    start = time.perf_counter()
    assert divisors(2**60) == [2**j for j in range(61)]
    assert time.perf_counter() - start < 1


def test_factorize():
    assert factorize(1) == []
    assert factorize(2**10 * 3**5) == [(2, 10), (3, 5)]
    # 999983 is the largest prime below 10^6; the cofactor below 10^12 is prime
    assert factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    with pytest.raises(ValueError, match="above 10\\^12"):
        factorize(1000003 * 1000033)
    with pytest.raises(ValueError, match="above 10\\^12"):
        divisors(2**58 * 2000000000003)  # a prime above 10^12
