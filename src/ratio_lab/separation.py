"""k-separations of primitive lists.

A primitive non-degenerate list a of length n is k-separated (k >= 2) if it
splits as a = B*b + C*c into two primitive lists b, c (1 <= len(b) <=
len(c) < n) with coprime nonzero coefficients B, C such that

  * exactly one of B, C is a multiple of k, and
  * the gcd-preservation condition holds across the split: if k | B then
    gcd(e, c) = gcd(e/k, c) for every element e of B*b and c of c.

When it holds, the norm decomposes as

    N(a) = (1 - 1/k) (N(b) + N(c)) + (1/k) N(b~ + c~)

with b~ = (B/k) b and c~ = C c (symmetrically when k | C).  Lists that are
at most k-separated have all elements dividing an explicit modulus, which
is what makes the exhaustive classification searches finite.

Every query walks the splits one way, with B and C the signed contents
of the two sides, and make_list builds parts only for the witnesses
find_separations returns.  Each split side has one order: with k | B the
split is a k-separation exactly when k divides

    K_B = |B| / gcd(B, lcm(c)),

and likewise K_C.  Proof: B and C are coprime, as gcd(B, C) divides every
element of a.  For p | k, gcd(e, c_j) = gcd(e/k, c_j) holds exactly when
v_p(k) <= v_p(e) - v_p(c_j) wherever v_p(c_j) > 0; the smallest v_p(e)
on B's side is v_p(B), as b is primitive, and the largest v_p(c_j) is
v_p(lcm(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm

from ratio_lab.arith import divisors, factorize, primes_upto
from ratio_lab.lists import SignedList, concat, make_list, norm, scale

__all__ = [
    "SeparationWitness",
    "SupportBound",
    "find_separations",
    "separation_orders",
    "max_separation",
    "check_decomposition",
    "support_bound",
    "forced_coefficients",
]


@dataclass(frozen=True)
class SeparationWitness:
    """A certified k-separation a = B*b + C*c."""

    k: int
    b_part: SignedList
    c_part: SignedList
    B: int
    C: int
    b_indices: frozenset[int]  # positions in the parent's canonical order

    @property
    def reduced_b(self) -> SignedList:
        """b~ = (B/k) b when k | B, else B b."""
        coeff = self.B // self.k if self.B % self.k == 0 else self.B
        return scale(self.b_part, coeff)

    @property
    def reduced_c(self) -> SignedList:
        """c~ = (C/k) c when k | C, else C c."""
        coeff = self.C // self.k if self.C % self.k == 0 else self.C
        return scale(self.c_part, coeff)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "B": str(self.B),
            "C": str(self.C),
            "b": self.b_part.to_json(),
            "c": self.c_part.to_json(),
        }


def _splits(a: SignedList):
    """Each unordered split of a primitive list's positions, once, as
    (side, B, other, C): b = [a_i / B for i in side] and c likewise are
    primitive with their smallest-|value| element positive, and b is the
    shorter part (at equal length, the smaller).  Dividing a canonical
    list by a signed content keeps it canonical, so no part is built.
    An n-entry list has 2^(n-1) - 1 splits, so more than 18 entries
    raises ValueError before the walk starts."""
    if a.length < 2:
        raise ValueError("list must have length at least 2")
    if a.length > 18:
        raise ValueError(f"list has {a.length} entries, above the cap of 18 (the split walk doubles with each entry)")
    if not a.is_primitive():
        raise ValueError("list must be primitive")
    els = a.elements
    n = len(els)

    def content(pos):
        g = gcd(*(els[i] for i in pos))
        return g if els[pos[0]] > 0 else -g

    for size in range(1, n):
        # fix position 0 on one side to visit each unordered split once
        for rest in combinations(range(1, n), size - 1):
            side = (0,) + rest
            other = tuple(i for i in range(1, n) if i not in rest)
            B, C = content(side), content(other)
            if (len(side), [els[i] // B for i in side]) > (len(other), [els[i] // C for i in other]):
                side, B, other, C = other, C, side, B
            yield side, B, other, C


def _order(els: tuple[int, ...], B: int, other, C: int) -> int:
    """K_B of the module docstring, for the side with content B."""
    return abs(B) // gcd(B, lcm(*(els[j] // C for j in other)))


def find_separations(a: SignedList, k: int) -> list[SeparationWitness]:
    """All k-separations of a primitive list, one witness per unordered
    partition of the positions.  As in _splits, at most 18 entries."""
    if k < 2:
        raise ValueError("k must be at least 2")
    els = a.elements
    out = []
    for side, B, other, C in _splits(a):
        if (B % k == 0 and _order(els, B, other, C) % k == 0) or (C % k == 0 and _order(els, C, side, B) % k == 0):
            b, c = make_list(els[i] // B for i in side), make_list(els[i] // C for i in other)
            out.append(SeparationWitness(k, b, c, B, C, frozenset(side)))
    out.sort(key=lambda w: sorted(w.b_indices))
    return out


def separation_orders(a: SignedList) -> list[int]:
    """Every k >= 2 for which a primitive list is k-separated, ascending:
    the divisors > 1 of each split side's order.  An order divides its
    side's first element, so its divisors come from that element's primes
    and each element is factorized once.  As in _splits, at most 18 entries."""
    els = a.elements
    primes = cache(lambda i: [p for p, _ in factorize(abs(els[i]))])
    found = set()
    for side, B, other, C in _splits(a):
        found.update(divisors(_order(els, B, other, C), primes(side[0])))
        found.update(divisors(_order(els, C, side, B), primes(other[0])))
    return sorted(found - {1})


def max_separation(a: SignedList) -> int:
    """Largest k >= 2 for which a is k-separated, or 1 if none: the
    largest order of a split side, which needs no factorization."""
    els = a.elements
    return max(max(_order(els, B, other, C), _order(els, C, side, B)) for side, B, other, C in _splits(a))


def check_decomposition(
    a: SignedList, w: SeparationWitness
) -> tuple[Fraction, Fraction, Fraction]:
    """Verify the norm decomposition identity for a witness.

    Returns (N(b), N(c), N(b~ + c~)); raises if the witness does not
    reconstruct a or if the identity fails.
    """
    rebuilt = concat(scale(w.b_part, w.B), scale(w.c_part, w.C))
    if rebuilt != a or rebuilt.length != w.b_part.length + w.c_part.length:
        raise ValueError("witness does not reconstruct the parent list")
    nb = norm(w.b_part)
    nc = norm(w.c_part)
    merged = concat(w.reduced_b, w.reduced_c)
    n_merged = norm(merged) if merged.length else Fraction(0)
    k = Fraction(w.k)
    if norm(a) != (1 - 1 / k) * (nb + nc) + n_merged / k:
        raise ValueError("norm decomposition identity failed")
    if merged.length < abs(w.b_part.length - w.c_part.length):
        raise ValueError("merged length below |len(b) - len(c)|")
    if merged.length % 2 != a.length % 2:
        raise ValueError("merged length parity mismatch")
    return nb, nc, n_merged


@dataclass(frozen=True)
class SupportBound:
    n: int
    k: int
    modulus: int


def support_bound(n: int, k: int) -> SupportBound:
    """Elements of a primitive length-n list that is at most k-separated
    divide prod over primes p <= k of p^(r(n-1)), p^r the largest power
    of p at most k."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    modulus = 1
    for p in primes_upto(k):
        r = 0
        q = 1
        while q * p <= k:
            q *= p
            r += 1
        modulus *= p ** (r * (n - 1))
    return SupportBound(n=n, k=k, modulus=modulus)


def forced_coefficients(b: SignedList, c: SignedList) -> tuple[int, int] | None:
    """The unique-up-to-sign (B, C) with s(B*b + C*c) = 0, when both
    element sums are nonzero; None in the excluded zero-sum case."""
    sb, sc = b.total, c.total
    if sb == 0 or sc == 0:
        return None
    g = gcd(sb, sc)
    return (-sc // g, sb // g)
