"""Liouville divisor lists and the asymptotic upper-bound probe.

For N >= 1, the list L(N) has one element lambda(d)*d per divisor d of N,
with lambda(d) = (-1)^Omega(d).  Its norm has the closed multiplicative
form  N(L(N)) = (d(N)/12) f(N)  with

    f(p^k) = 1 + 2 sum_{j=1..k} ((k+1-j)/(k+1)) (-1)^j / p^j,
    (k+1) f(p^k) = (k+1) - 2 (k(p+1) + 1 - (-1/p)^k) / (p+1)^2  (summed),

e.g. L(6) = [1, -2, -3, 6] with norm 1/9.  The lists L(N_k) for
N_k = prod_{p<=k} p^r, with r the largest integer such that
r^pi(k) <= 2^k, have d(N_k) = (r+1)^pi(k) > 2^k elements and realize the
slow log-log decay of minimal norms.  There is no matching upper bound
2^(k+1): only 0 < log2 d(N_k) - k <= pi(k) log2(1 + 1/r), so
log2 d(N_k) ~ k (k = 5 gives d = 64 = 2^(k+1), k = 31 gives 2^33).  The
probe reports the upper/lower ratio trace without asserting any
tolerance (convergence is far beyond desk scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from ratio_lab.arith import factorize, primes_upto
from ratio_lab.bounds import mertens_product_bound
from ratio_lab.lists import SignedList, make_list

__all__ = [
    "LiouvilleList",
    "build_liouville",
    "liouville_norm_formula",
    "asymptotic_ratio_probe",
]


@dataclass(frozen=True)
class LiouvilleList:
    N: int
    list: SignedList
    d_of_N: int


def build_liouville(N: int) -> LiouvilleList:
    """The list {lambda(d) d : d | N}, canonical order.  Raises ValueError
    when d(N) exceeds 4096; lists.norm's work cap refuses its exact norm far
    earlier (d = 2048, the first 11 primes' product, estimates 8.3*10^10)."""
    if N < 1:
        raise ValueError("N must be positive")
    factors = factorize(N)
    d = prod(k + 1 for _, k in factors)
    if d > 4096:
        raise ValueError(f"d(N) = {d} exceeds the cap of 4096 divisors")
    elements = [1]
    for p, k in factors:
        elements = [
            e * (-p) ** j for e in elements for j in range(k + 1)
        ]
    lst = make_list(elements)
    assert lst.length == len(elements)  # distinct |values|: nothing cancels
    return LiouvilleList(N=N, list=lst, d_of_N=len(elements))


def _norm_formula(factors) -> Fraction:
    """(d(N)/12) f(N) from N's (p, k) pairs.  With x = -1/p the series in
    f(p^k) is sum_{m<=k} sum_{j<=m} x^j = (k x (1-x) - x^2 (1-x^k)) / (1-x)^2,
    the summed form, and each p^k puts its numerator over (p+1)^2 p^k."""
    num = den = 1
    for p, k in factors:
        q = (p + 1) ** 2 * p**k
        num *= (k + 1) * q - 2 * ((k * (p + 1) + 1) * p**k - (-1) ** k)
        den *= q
    return Fraction(num, 12 * den)


def liouville_norm_formula(N: int) -> Fraction:
    """(d(N)/12) f(N), which must equal the norm of build_liouville(N).list."""
    if N < 1:
        raise ValueError("N must be positive")
    return _norm_formula(factorize(N))


def _n_sub_k_factors(k: int) -> list[tuple[int, int]]:
    """N_k's (p, r) pairs, ascending: see n_sub_k."""
    if not 2 <= k <= 256:
        raise ValueError(f"k must be between 2 and 256, got {k}")
    primes = primes_upto(k)
    r = 1
    while (r + 1) ** len(primes) <= 2**k:
        r += 1
    return [(p, r) for p in primes]


def n_sub_k(k: int) -> int:
    """N_k = prod_{p<=k} p^r, r the largest integer with r^pi(k) <= 2^k.

    Hence d(N_k) = (r+1)^pi(k), and r^pi(k) <= 2^k < d(N_k).  k runs from
    2 to 256 (N_256 has 2621 digits); other values raise ValueError.
    """
    return prod(p**r for p, r in _n_sub_k_factors(k))


def asymptotic_ratio_probe(k: int) -> tuple[Fraction, Fraction]:
    """(upper construction value, product lower bound) at n = d(N_k).

    The upper value is the exact norm of the Liouville list of N_k; the
    lower is the Mertens-style product bound at the same length.  Their
    ratio closes in on 1 only at (log log)^2 speed, so callers report the
    trace rather than asserting closeness.  k is limited as in n_sub_k.
    Both come from N_k's (p, r) pairs, so nothing is factorized.
    """
    factors = _n_sub_k_factors(k)
    return _norm_formula(factors), mertens_product_bound(prod(r + 1 for _, r in factors))
