"""Liouville divisor lists and the asymptotic upper-bound probe.

For N >= 1, the list L(N) has one element lambda(d)*d per divisor d of N,
with lambda(d) = (-1)^Omega(d).  Its norm has the closed multiplicative
form  N(L(N)) = (d(N)/12) f(N)  with

    f(p^k) = 1 + 2 sum_{j=1..k} ((k+1-j)/(k+1)) (-1)^j / p^j,

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
    when d(N) exceeds 4096, as the exact norm of the list takes
    d(N)(d(N) - 1)/2 gcds, 8.4 million at the cap."""
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


def liouville_norm_formula(N: int) -> Fraction:
    """(d(N)/12) f(N) with f multiplicative as in the module docstring;
    must equal the directly computed norm of build_liouville(N).list."""
    if N < 1:
        raise ValueError("N must be positive")
    d = 1
    f = Fraction(1)
    for p, k in factorize(N):
        d *= k + 1
        f *= 1 + 2 * sum(
            Fraction(k + 1 - j, k + 1) * Fraction((-1) ** j, p**j)
            for j in range(1, k + 1)
        )
    return Fraction(d, 12) * f


def n_sub_k(k: int) -> int:
    """N_k = prod_{p<=k} p^r, r the largest integer with r^pi(k) <= 2^k.

    Hence d(N_k) = (r+1)^pi(k), and r^pi(k) <= 2^k < d(N_k).  k runs from
    2 to 256 (N_256 has 2621 digits); other values raise ValueError.
    """
    if not 2 <= k <= 256:
        raise ValueError(f"k must be between 2 and 256, got {k}")
    primes = primes_upto(k)
    r = 1
    while (r + 1) ** len(primes) <= 2**k:
        r += 1
    out = 1
    for p in primes:
        out *= p**r
    return out


def asymptotic_ratio_probe(k: int) -> tuple[Fraction, Fraction]:
    """(upper construction value, product lower bound) at n = d(N_k).

    The upper value is the exact norm of the Liouville list of N_k; the
    lower is the Mertens-style product bound at the same length.  Their
    ratio closes in on 1 only at (log log)^2 speed, so callers report the
    trace rather than asserting closeness.  k is limited as in n_sub_k.
    """
    N = n_sub_k(k)
    d = prod(e + 1 for _, e in factorize(N))
    return liouville_norm_formula(N), mertens_product_bound(d)
