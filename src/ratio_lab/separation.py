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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

from ratio_lab.arith import divisors, primes_upto
from ratio_lab.lists import SignedList, concat, make_list, norm, scale

__all__ = [
    "SeparationWitness",
    "SupportBound",
    "find_separations",
    "max_separation",
    "check_decomposition",
    "support_bound",
    "forced_coefficients",
    "PRESET_MODULI",
]

# Search presets quoted from the source analysis for special list shapes;
# these are data, not re-derived (the general-position bound comes from
# support_bound()).
PRESET_MODULI = {
    "length7_at_most_7_separated": 2**12 * 3**6 * 5**6 * 7**6,
    "type_a_length7": 2**9 * 3**3 * 5**3 * 7**3,
    "type_a_sum0_length7": 2**6 * 3**2 * 5**2 * 7**2,
    "length5_sum0_four_elements": 2**6 * 3**3 * 5**3,
    "type_b_length7_at_most_4_separated": 2**10 * 3**5,
}


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


def _signed_content(elements: tuple[int, ...]) -> int:
    """gcd of the elements, signed so that dividing by it makes the
    smallest-|value| element positive."""
    g = reduce(gcd, (abs(e) for e in elements))
    first = min(elements, key=lambda e: (abs(e), 0 if e < 0 else 1))
    return g if first > 0 else -g


def _partitions(a: SignedList):
    """Unordered proper partitions of the positions, with derived parts.

    Yields (b_indices, b_part, B, c_part, C) with len(b) <= len(c), ties
    broken so that b is canonically smallest.
    """
    els = a.elements
    n = len(els)
    positions = range(1, n)
    for size in range(1, n):
        # fix position 0 on one side to visit each unordered partition once
        for rest in combinations(positions, size - 1):
            side0 = (0,) + rest
            other = tuple(i for i in range(n) if i not in side0)
            g0 = _signed_content(tuple(els[i] for i in side0))
            g1 = _signed_content(tuple(els[i] for i in other))
            part0 = make_list([els[i] // g0 for i in side0])
            part1 = make_list([els[i] // g1 for i in other])
            if len(side0) < len(other):
                b_idx, b, B, c, C = side0, part0, g0, part1, g1
            elif len(side0) > len(other):
                b_idx, b, B, c, C = other, part1, g1, part0, g0
            elif part0.elements <= part1.elements:
                b_idx, b, B, c, C = side0, part0, g0, part1, g1
            else:
                b_idx, b, B, c, C = other, part1, g1, part0, g0
            yield frozenset(b_idx), b, B, c, C


def _gcd_condition(k: int, B: int, b_scaled_elements, c_elements) -> bool:
    """Part 3 of the definition for the side whose coefficient B has k|B:
    gcd(e, c) = gcd(e/k, c) for every e in B*b and c in the primitive c."""
    for e in b_scaled_elements:
        e_red = e // k
        for c in c_elements:
            if gcd(e, c) != gcd(e_red, c):
                return False
    return True


def _witness_if_valid(a, k, b_idx, b, B, c, C):
    if (B % k == 0) == (C % k == 0):
        return None  # need exactly one coefficient divisible by k
    # primitivity of the parent forces gcd(B, C) = 1; assert to catch bugs
    assert gcd(B, C) == 1, (a, B, C)
    if B % k == 0:
        scaled = [B * e for e in b.elements]
        ok = _gcd_condition(k, B, scaled, [abs(e) for e in c.elements])
    else:
        scaled = [C * e for e in c.elements]
        ok = _gcd_condition(k, C, scaled, [abs(e) for e in b.elements])
    if not ok:
        return None
    return SeparationWitness(k=k, b_part=b, c_part=c, B=B, C=C, b_indices=b_idx)


def find_separations(a: SignedList, k: int) -> list[SeparationWitness]:
    """All k-separations of a primitive list, one witness per unordered
    partition of the positions."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if a.length < 2:
        raise ValueError("list must have length at least 2")
    if not a.is_primitive():
        raise ValueError("list must be primitive")
    out = []
    for b_idx, b, B, c, C in _partitions(a):
        w = _witness_if_valid(a, k, b_idx, b, B, c, C)
        if w is not None:
            out.append(w)
    out.sort(key=lambda w: sorted(w.b_indices))
    return out


def max_separation(a: SignedList) -> int:
    """Largest k >= 2 for which a is k-separated, or 1 if none.

    Every valid k divides the B or C of some split, so scanning the
    divisors of the finitely many split coefficients is exhaustive.
    """
    if a.length < 2:
        raise ValueError("list must have length at least 2")
    if not a.is_primitive():
        raise ValueError("list must be primitive")
    best = 1
    for b_idx, b, B, c, C in _partitions(a):
        for coeff in (B, C):
            for k in divisors(coeff):
                if k > best and _witness_if_valid(a, k, b_idx, b, B, c, C):
                    best = k
    return best


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
    n_merged = norm(merged, empty_ok=True)
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
