"""Canonical signed integer lists and their saw-tooth norms.

A list of nonzero integers [a_1, ..., a_n] induces the 1-periodic function
a(x) = sum_j psi(a_j x) with psi(t) = 1/2 - {t}, and the norm

    N(a) = integral_0^1 a(x)^2 dx = (1/12) sum_{i,j} gcd(a_i, a_j)^2 / (a_i a_j).

Lists are kept canonical (ascending |value|, negative before positive at
equal |value|) and non-degenerate (no value appears together with its
negative).  All arithmetic is exact, via fractions.Fraction.

Reference norms: N([1,-2]) = 1/12, N([1,-2,4]) = 1/8, N([4,-6,9]) = 43/216,
N([1,-2,-3,6]) = 1/9, N([1,-6,-10,-15,30]) = 1/4.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Iterator, Literal

import numpy as np

__all__ = [
    "SignedList",
    "make_list",
    "norm",
    "norm_by_integration",
    "evaluate",
    "involute",
    "scale",
    "concat",
    "classify_type",
    "psi",
]

HALF = Fraction(1, 2)


def _canonical_key(a: int) -> tuple[int, int]:
    # ascending |value|; negative before positive at equal |value|
    return (abs(a), 0 if a < 0 else 1)


class SignedList:
    """Immutable canonical non-degenerate list of nonzero integers."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        # Private-ish constructor: callers go through make_list, which
        # cancels degeneracies and sorts.  We only sanity-check here.
        object.__setattr__(self, "elements", tuple(elements))

    def __setattr__(self, name, value):
        raise AttributeError("SignedList is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedList) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"SignedList({list(self.elements)!r})"

    @property
    def length(self) -> int:
        return len(self.elements)

    @property
    def total(self) -> int:
        """Element sum s(a)."""
        return sum(self.elements)

    @property
    def content(self) -> int:
        """gcd of the absolute values (0 for the empty list)."""
        return reduce(gcd, (abs(a) for a in self.elements), 0)

    def is_primitive(self) -> bool:
        return self.content == 1

    def negate(self) -> "SignedList":
        return make_list([-a for a in self.elements])

    def to_json(self) -> list[str]:
        """JSON form: array of decimal integer strings."""
        return [str(a) for a in self.elements]

    @staticmethod
    def from_json(data: Iterable[str]) -> "SignedList":
        return make_list([int(s) for s in data])


def make_list(raw: Iterable[int]) -> SignedList:
    """Canonicalize: reject zeros, cancel (a, -a) pairs, sort canonically."""
    counts = Counter()
    for a in raw:
        if a == 0:
            raise ValueError("list elements must be nonzero")
        counts[a] += 1
    out: list[int] = []
    for v in {abs(a) for a in counts}:
        c_pos = counts.get(v, 0)
        c_neg = counts.get(-v, 0)
        if c_pos > c_neg:
            out.extend([v] * (c_pos - c_neg))
        elif c_neg > c_pos:
            out.extend([-v] * (c_neg - c_pos))
    out.sort(key=_canonical_key)
    return SignedList(tuple(out))


def _require_nonempty(a: SignedList, empty_ok: bool) -> bool:
    """Returns True if the caller should just use 0 for the empty list."""
    if a.length == 0:
        if empty_ok:
            return True
        raise ValueError("norm of empty list (pass empty_ok=True for 0)")
    return False


def norm(a: SignedList, *, empty_ok: bool = False) -> Fraction:
    """N(a) via the exact gcd double sum, accumulated in integers.

    Over L = lcm(|a_i|) each cross term gcd(a_i, a_j)^2 / (a_i a_j) is
    gcd^2 * (L/a_i) * (L/a_j) / L^2, so

        N = (n L^2 + 2 sum_{i<j} gcd(a_i, a_j)^2 (L/a_i)(L/a_j)) / (12 L^2)

    and only the final quotient is a Fraction.
    """
    if _require_nonempty(a, empty_ok):
        return Fraction(0)
    els = a.elements
    n = len(els)
    big = lcm(*els)
    q = [big // ai for ai in els]
    cross = 0
    for i in range(n):
        ai, qi = els[i], q[i]
        for j in range(i + 1, n):
            g = gcd(ai, els[j])
            cross += g * g * qi * q[j]
    return Fraction(n * big * big + 2 * cross, 12 * big * big)


def psi(x: Fraction) -> Fraction:
    """Saw-tooth psi(x) = 1/2 - {x}; psi(n) = 1/2 at integers."""
    x = Fraction(x)
    return HALF - (x - (x.numerator // x.denominator))


def evaluate(a: SignedList, x: Fraction) -> Fraction:
    """a(x) = sum_j psi(a_j x), exact and 1-periodic."""
    x = Fraction(x)
    return sum((psi(aj * x) for aj in a.elements), Fraction(0))


def norm_by_integration(a: SignedList, *, empty_ok: bool = False) -> Fraction:
    """N(a) = integral_0^1 a(x)^2 dx via the step-function form, exact.

    Away from breakpoints a(x) = C(x) - s*x with C(x) = L/2 + sum_j
    floor(a_j x), a step function jumping +-1 at each m/|a_j|.  With
    u = 2C and Abel summation over the jumps,

        N = (u1^2 - S1)/4 - s*(u1 - S2)/2 + s^2/3,

    where u1 = u(1-), S1 = sum_j x_j * d(u^2), S2 = sum_j x_j^2 * du.
    The inner sums group by denominator |a_j|, so everything is integer
    arithmetic until the final combination.  Independent of norm(); the
    two must agree exactly.

    The breakpoints m/|a_j| are ordered by their float values, which is
    exact while distinct ones, at least 1/max|a_j|^2 apart, stay more
    than 2^-52 apart; larger entries raise ValueError.
    """
    if _require_nonempty(a, empty_ok):
        return Fraction(0)
    if max(abs(e) for e in a.elements) >= 2**26:
        raise ValueError("norm_by_integration needs every |entry| < 2^26")
    s = a.total
    pos = sum(1 for e in a.elements if e > 0)
    u1 = a.length + 2 * s - 2 * pos
    chunks = [
        (np.arange(1, abs(e), dtype=np.int64), abs(e), 2 if e > 0 else -2)
        for e in a.elements
        if abs(e) > 1
    ]
    if not chunks:
        # all elements are +-1 with no cancelling pair: a(x) = u1/2 - s*x
        return Fraction(u1 * u1, 4) - Fraction(s * u1, 2) + Fraction(s * s, 3)
    m_arr = np.concatenate([m for m, _, _ in chunks])
    v_arr = np.concatenate([np.full(len(m), v, dtype=np.int64) for m, v, _ in chunks])
    du = np.concatenate([np.full(len(m), d, dtype=np.int64) for m, _, d in chunks])
    order = np.argsort(m_arr / v_arr, kind="stable")
    m_arr, v_arr, du = m_arr[order], v_arr[order], du[order]
    u_before = (a.length - 2 * (a.length - pos)) + np.cumsum(du) - du
    d_usq = (2 * u_before + du) * du
    # int64 sums of m*d_usq and m*m*du are exact while the sum of the
    # terms' sizes stays below 2^63; past that, sum Python ints
    top = int(m_arr.max())
    if len(m_arr) * top * max(int(np.abs(d_usq).max()), 2 * top) >= 2**63:
        m_arr, d_usq, du = (x.astype(object) for x in (m_arr, d_usq, du))
    s1 = Fraction(0)
    s2 = Fraction(0)
    for v in sorted({v for _, v, _ in chunks}):
        mask = v_arr == v
        s1 += Fraction(int((m_arr[mask] * d_usq[mask]).sum()), v)
        s2 += Fraction(int((m_arr[mask] * m_arr[mask] * du[mask]).sum()), v * v)
    return (
        Fraction(u1 * u1, 4)
        - s1 / 4
        - Fraction(s, 2) * (u1 - s2)
        + Fraction(s * s, 3)
    )


def involute(a: SignedList) -> SignedList:
    """The norm-preserving involution: a_bar(x) = a(x + 1/2).

    Uses psi(2x) = psi(x) + psi(x + 1/2): each odd element a becomes the
    pair (2a, -a), even elements stay, degeneracies cancel.
    """
    out: list[int] = []
    for el in a.elements:
        if el % 2 == 0:
            out.append(el)
        else:
            out.extend((2 * el, -el))
    return make_list(out)


def scale(a: SignedList, k: int) -> SignedList:
    """Multiply every element by k != 0; the norm is unchanged."""
    if k == 0:
        raise ValueError("scale factor must be nonzero")
    return make_list([k * el for el in a.elements])


def concat(a: SignedList, b: SignedList) -> SignedList:
    """Concatenation with degeneracy removal (the list sum a + b)."""
    return make_list(list(a.elements) + list(b.elements))


def classify_type(a: SignedList) -> Literal["A", "B"]:
    """Type A iff the multiset splits into (t, -2t) couples, plus one
    unpaired element when the length is odd; otherwise Type B."""
    if a.length == 0:
        raise ValueError("cannot classify the empty list")
    counts = Counter(a.elements)
    leftover_allowed = a.length % 2 == 1
    if _match_pairs(counts, leftover_allowed):
        return "A"
    return "B"


def _match_pairs(counts: Counter, leftover_allowed: bool) -> bool:
    # Backtracking on the smallest remaining |value|: it can only be the
    # small half of a couple (paired with -2x) or the single leftover.
    remaining = [a for a, c in counts.items() if c > 0]
    if not remaining:
        return True
    x = min(remaining, key=_canonical_key)
    options = []
    if counts.get(-2 * x, 0) > 0:
        options.append("pair")
    if leftover_allowed:
        options.append("leftover")
    for opt in options:
        counts[x] -= 1
        if opt == "pair":
            counts[-2 * x] -= 1
            ok = _match_pairs(counts, leftover_allowed)
            counts[-2 * x] += 1
        else:
            ok = _match_pairs(counts, False)
        counts[x] += 1
        if ok:
            return True
    return False
