"""Integrality of factorial ratios, three independent ways.

A ratio spec ({a_1..a_K}; {b_1..b_L}) with equal sums stands for the
sequence (a_1 n)!...(a_K n)! / ((b_1 n)!...(b_L n)!).  Integrality for
all n is equivalent to the step function

    f(x) = sum_i floor(a_i x) - sum_j floor(b_j x)

being nonnegative everywhere, which is a finite check over the
breakpoints m/v in [0, 1).  When D = L - K = 1, integrality is also
equivalent to the signed list [a_1..a_K, -b_1..-b_L] (sum zero, odd
length) having norm exactly 1/4.  A third, slower route checks prime
valuations of the factorials directly for n up to a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ratio_lab.arith import lazy_import, primes_upto
from ratio_lab.lists import SignedList, canonical_pair_key, make_list, norm

np = lazy_import("numpy")  # loaded by the first kernel call

__all__ = [
    "RatioSpec",
    "to_list",
    "landau_min_max",
    "is_integral",
    "norm_quarter_check",
    "valuation_oracle",
    "family_membership",
]


@dataclass(frozen=True)
class RatioSpec:
    """Numerator and denominator multipliers, stored sorted."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        num = tuple(sorted(self.numerator))
        den = tuple(sorted(self.denominator))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        if not num or not den:
            raise ValueError("numerator and denominator must be non-empty")
        if any(a <= 0 for a in num + den):
            raise ValueError("entries must be positive")
        if sum(num) != sum(den):
            raise ValueError("numerator and denominator sums must agree")
        if set(num) & set(den):
            raise ValueError("shared entries must be cancelled first")

    @property
    def K(self) -> int:
        return len(self.numerator)

    @property
    def L(self) -> int:
        return len(self.denominator)

    @property
    def D(self) -> int:
        return self.L - self.K

    @classmethod
    def from_list(cls, a: SignedList) -> "RatioSpec":
        """The spec of a sum-zero list: its positive entries against its
        negated negative ones, with the longer side as the denominator."""
        pos = tuple(e for e in a.elements if e > 0)
        neg = tuple(-e for e in a.elements if e < 0)
        if len(pos) > len(neg):
            pos, neg = neg, pos
        return cls(numerator=pos, denominator=neg)


def to_list(r: RatioSpec) -> SignedList:
    """The signed list [a_1..a_K, -b_1..-b_L]; its sum is zero, and no
    entry cancels, since a spec shares none between its sides."""
    return make_list(list(r.numerator) + [-b for b in r.denominator])


def landau_min_max(r: RatioSpec) -> tuple[int, int]:
    """Exact (min, max) of f over [0, 1).

    f is 1-periodic and right-continuous, jumping only at the points
    m/v for v an entry, so its extrema over the reals are attained on
    that finite set, where f(m/v) = sum_i floor(a_i m / v) - sum_j
    floor(b_j m / v) in integers.  The ratio is integral for all n iff
    min >= 0.  Each entry e adds +-(e m) // v to one int64 vector over
    the v - 1 breakpoints m/v of every distinct entry v, so more than
    2*10^6 breakpoints times entries raises ValueError before any scan.
    With at least 2 entries that cap allows at most 10^6 breakpoints, so
    no entry exceeds 10^6 + 1 and e m < 2^40 cannot overflow; some entry
    is at least 2 (the sides share no 1), so f has a breakpoint.
    """
    values = sorted(set(r.numerator) | set(r.denominator))
    points, entries = sum(v - 1 for v in values), r.K + r.L
    if points * entries > 2 * 10**6:
        raise ValueError(f"{points} breakpoints times {entries} entries, above the cap of 2*10^6")
    vs = np.array(values, dtype=np.int64)
    m = np.arange(points, dtype=np.int64) - np.repeat(np.cumsum(vs - 1) - vs, vs - 1)
    v = np.repeat(vs, vs - 1)
    f = sum(e * m // v for e in r.numerator) - sum(e * m // v for e in r.denominator)
    return min(0, int(f.min())), max(0, int(f.max()))  # f(0) = 0


def is_integral(r: RatioSpec) -> bool:
    return landau_min_max(r)[0] >= 0


def norm_quarter_check(a: SignedList) -> RatioSpec | None:
    """For a primitive odd-length sum-zero list: the corresponding ratio
    spec (with the longer side as denominator) when the norm is exactly
    1/4, else None."""
    if a.length % 2 == 0:
        raise ValueError("list must have odd length")
    if a.total != 0:
        raise ValueError("list must sum to zero")
    if not a.is_primitive():
        raise ValueError("list must be primitive")
    if norm(a) != Fraction(1, 4):
        return None
    spec = RatioSpec.from_list(a)
    assert spec.D == 1
    return spec


def valuation_oracle(r: RatioSpec, n_max: int) -> tuple[int, int] | None:
    """Check sum_i v_p((a_i n)!) >= sum_j v_p((b_j n)!) directly.

    Uses v_p(m!) = sum_t floor(m / p^t).  Scans every n <= n_max and
    every prime p up to (largest entry) * n; larger primes divide none
    of the factorials.  Returns the first violating (n, p), or None on a
    clean pass.  Cross-validates the Landau criterion on the tested
    range; it is not a proof.  The sieve runs to (largest entry) * n_max
    and the loop visits at most (largest entry) * n_max^2 pairs (n, p),
    each taking one valuation per entry, so entries * (largest entry) *
    n_max^2 above 10^8 raises ValueError before any work (at the cap a
    call takes about a second on a 2-core machine).
    """
    entries = [(a, 1) for a in r.numerator] + [(b, -1) for b in r.denominator]
    biggest = max(e for e, _ in entries)
    if len(entries) * biggest * n_max**2 > 10**8:
        raise ValueError(f"{len(entries)} entries times largest entry {biggest} times n_max^2 = {n_max}^2, above the cap of 10^8")
    primes = primes_upto(biggest * n_max)
    for n in range(1, n_max + 1):
        top = biggest * n
        for p in primes:
            if p > top:
                break
            total = 0
            for e, sign in entries:
                m = e * n
                while m:
                    m //= p
                    total += sign * m
            if total < 0:
                return (n, p)
    return None


def _match_type_a_family(values) -> tuple[int, int] | None:
    # [2a, 2b, -a, -b, -(a+b)] with a, b coprime nonzero integers of either
    # sign; with mixed signs this is the same multiset as the third family
    # [2a', b', -a', -2b', -(a'-b')] (take b = -b'), so one matcher covers
    # both and the caller tags by the sign pattern
    target = tuple(sorted(values))
    candidates = sorted({-v for v in values})
    for a in candidates:
        for b in candidates:
            if a + b == 0 or gcd(a, b) != 1:
                continue
            if tuple(sorted([2 * a, 2 * b, -a, -b, -(a + b)])) == target:
                return (a, b)
    return None


def family_membership(a: SignedList) -> str:
    """Tag a primitive odd-length sum-zero list as 'family1'/'family2'/
    'family3' (one of the three infinite families of integral ratios,
    up to global sign) or 'sporadic'.  Every triple is [a+b, -a, -b] up
    to sign (one entry's sign is shared by no other), so 'family1'; a
    length-5 list is 'family2' or 'family3' when it matches [2a, 2b, -a,
    -b, -(a+b)], a shape closed under negation.  It is matched on the
    list's canonical_pair_key, so a list and its negation get one tag: the
    first match, a and then b running up the key's negated elements, gives
    'family2' if a and b share a sign, else 'family3'.  [-1, 2, -3, -4, 6]
    matches (-2, 3) first and (1, 3), so it and its negation are 'family3';
    up to sign it is the only list with |a|, |b| <= 40 matching both ways."""
    if a.length % 2 == 0 or a.total != 0 or not a.is_primitive():
        raise ValueError("need a primitive odd-length sum-zero list")
    if a.length == 3:
        return "family1"
    match = _match_type_a_family(canonical_pair_key(a)) if a.length == 5 else None
    if match is None:
        return "sporadic"
    return "family2" if match[0] * match[1] > 0 else "family3"
