"""Canonical signed integer lists and their saw-tooth norms.

A list of nonzero integers [a_1, ..., a_n] induces the 1-periodic function
a(x) = sum_j psi(a_j x) with psi(t) = 1/2 - {t}, and the norm

    N(a) = integral_0^1 a(x)^2 dx = (1/12) sum_{i,j} gcd(a_i, a_j)^2 / (a_i a_j).

Lists are kept canonical (ascending |value|) and non-degenerate (no value
appears together with its negative).  All arithmetic is exact, via
fractions.Fraction.  A list may carry its exact norm, `known_norm`, which
norm() returns as it is: with_norms builds lists that carry it, from one
integer pass over all of them; make_list, and so every other list, leaves
it None.  canonical_pair_key names a list and its negation by one member.

Reference norms: N([1,-2]) = 1/12, N([1,-2,4]) = 1/8, N([4,-6,9]) = 43/216,
N([1,-2,-3,6]) = 1/9, N([1,-6,-10,-15,30]) = 1/4.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Literal

from ratio_lab.arith import lazy_import

np = lazy_import("numpy")  # loaded by the first kernel call

__all__ = [
    "SignedList",
    "make_list",
    "canonical_pair_key",
    "norm",
    "with_norms",
    "norm_by_integration",
    "evaluate",
    "involute",
    "scale",
    "concat",
    "classify_type",
    "psi",
]

HALF = Fraction(1, 2)
# norm's cap on its work estimate (see norm)
NORM_WORK_CAP = 10**10


@dataclass(frozen=True, slots=True)
class SignedList:
    """Immutable canonical non-degenerate list of nonzero integers; callers
    go through make_list, which cancels and sorts.  `known_norm` is N(a)
    when its builder already has it exactly (only with_norms sets it;
    make_list never does); it takes no part in equality, hashing or repr."""

    elements: tuple[int, ...]
    known_norm: Fraction | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

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
    """Canonicalize: reject zeros, keep one net count per |v| (copies of
    v minus copies of -v) and emit the survivors by ascending |v|."""
    net: dict[int, int] = {}
    for a in raw:
        if a == 0:
            raise ValueError("list elements must be nonzero")
        v = abs(a)
        net[v] = net.get(v, 0) + (1 if a > 0 else -1)
    return SignedList(tuple(v if c > 0 else -v for v, c in sorted(net.items()) for _ in range(abs(c))))


def canonical_pair_key(a: SignedList) -> tuple[int, ...]:
    """Key of a +- pair: the canonical element tuple of whichever of a and
    its negation starts negative.  A non-degenerate list and its negation
    first differ at position 0, so this is the smaller of the two."""
    return a.elements if a.elements[:1] < (0,) else tuple(-v for v in a.elements)


def norm(a: SignedList) -> Fraction:
    """N(a) via the exact gcd double sum, accumulated in integers.

    Over a common multiple M of the entries, with g = gcd(a_i, a_j), each
    cross term g^2 / (a_i a_j) is g * (g (M/a_i) / a_j) / M, and g (M/a_i)
    / a_j = +-M / lcm(a_i, a_j) is an integer, so with M = lcm(|a_i|)

        N = (n M + 2 sum_{i<j} g * (g * (M/a_i) // a_j)) / (12 M)

    and only the final quotient is a Fraction; with_norms sums the terms
    times M, over M^2.  The empty list raises ValueError; a list's
    known_norm, when its builder set one, is returned as it is.

    Otherwise the work is bounded first.  Each of the n(n-1)/2 pair terms
    multiplies and divides a number of at most B bits (B, the sum of the
    entries' bit lengths, bounds M's) by ones of at most w 64-bit words,
    w the largest entry's (1 below 2^64).  So n(n-1)/2 * B * w estimates
    the work without forming M (lcm(1..20000) takes 0.14 s).  Above
    NORM_WORK_CAP = 10^10 it raises ValueError: 1..1000 (4.5*10^9)
    answers, 1..1300 does not.
    """
    if a.known_norm is not None:
        return a.known_norm
    if a.length == 0:
        raise ValueError("norm of the empty list")
    els = a.elements
    words = (max(map(abs, els)).bit_length() + 63) // 64
    work = len(els) * (len(els) - 1) // 2 * sum(map(int.bit_length, els)) * words
    if work > NORM_WORK_CAP:
        raise ValueError(f"norm work estimate {work} (pairs times the sum of the entries' bit lengths times the largest entry's 64-bit words) is above the cap of 10^10")
    big = lcm(*els)
    cross = 0
    for i, x in enumerate(els):
        c = big // x
        for y in els[i + 1 :]:
            g = gcd(x, y)
            cross += g * (g * c // y)
    return Fraction(len(els) * big + 2 * cross, 12 * big)


def with_norms(blocks: Iterable[np.ndarray], top: int) -> list[SignedList]:
    """The rows of `blocks`, 2-D integer arrays of canonical non-degenerate
    lists whose elements divide top > 0, as SignedLists with exact norms.

    norm's terms over M = top, times M: N = (n top^2 + 2 sum_{i<j} g^2
    (top/x_i)(top/x_j)) / (12 top^2), a column pair at a time, and one
    Fraction per distinct numerator, shared by the whole call.  Each term
    is at most top^2, as is each product on the way to it (g <= min(|x_i|,
    |x_j|)), so every partial sum is at most (n top)^2: a block runs in
    int64 while that is below 2^63, else over Python ints (dtype object).

    The builds run with the cyclic collector paused (back on after only if
    it was on): nothing they make refers back to what refers to it, so its
    passes could free nothing, and reference counting frees it all."""
    lists, shared = [], {}  # shared: numerator -> its Fraction
    enabled = gc.isenabled()
    gc.disable()  # the builds below make no cycle (see above)
    try:
        for r in blocks:
            n = r.shape[1]
            r = r.astype(np.int64 if (n * top) ** 2 < 2**63 else object, copy=False)
            co = top // r
            cross = np.zeros(len(r), dtype=r.dtype)
            for i, j in combinations(range(n), 2):
                g = np.gcd(r[:, i], r[:, j])
                cross += g * g * co[:, i] * co[:, j]
            num = (n * top * top + 2 * cross).tolist()
            shared.update((v, Fraction(v, 12 * top * top)) for v in set(num).difference(shared))
            lists += map(SignedList, map(tuple, r.tolist()), map(shared.__getitem__, num))
        return lists
    finally:
        if enabled:
            gc.enable()


def psi(x: Fraction) -> Fraction:
    """Saw-tooth psi(x) = 1/2 - {x}; psi(n) = 1/2 at integers."""
    x = Fraction(x)
    return HALF - (x - (x.numerator // x.denominator))


def evaluate(a: SignedList, x: Fraction) -> Fraction:
    """a(x) = sum_j psi(a_j x), exact and 1-periodic."""
    x = Fraction(x)
    return sum((psi(aj * x) for aj in a.elements), Fraction(0))


def norm_by_integration(a: SignedList) -> Fraction:
    """N(a) = integral_0^1 a(x)^2 dx via the step-function form, exact.

    Away from breakpoints a(x) = C(x) - s*x with C(x) = L/2 + sum_j
    floor(a_j x), a step function jumping +-1 at each m/|a_j|.  With
    u = 2C and Abel summation over the jumps,

        N = (u1^2 - S1)/4 - s*(u1 - S2)/2 + s^2/3,

    where u1 = u(1-), S1 = sum_j x_j * d(u^2), S2 = sum_j x_j^2 * du.
    The breakpoints m/v of the entries with v = |a_j| > 1 are laid out
    entry by entry and sorted once by float value (the d(u^2) of equal
    x_j telescope, so ties need no order).  Back in entry order, one
    reduce per sum gives each entry its S1 * v and S2 * v^2 in integers,
    and with b = lcm(v)^2, N is one quotient of integers, (3 u1^2 b -
    3 S1 b - 6 s (u1 b - S2 b) + 4 s^2 b) / (12 b).  Independent of
    norm(); the two must agree exactly.

    The float order is exact while distinct breakpoints, at least
    1/max|a_j|^2 apart, stay more than 2^-52 apart, so while every
    |a_j| < 2^26.  The empty list and over 2^21 breakpoints (sum |a_j|
    - 1, which keeps |a_j| < 2^26 and the arrays below about 0.5 GB)
    raise ValueError.
    """
    if a.length == 0:
        raise ValueError("norm of the empty list")
    points = sum(abs(e) - 1 for e in a.elements)
    if points > 2**21:
        raise ValueError(f"norm_by_integration takes at most 2^21 breakpoints (sum of |entry| - 1), got {points}")
    s = a.total
    pos = sum(1 for e in a.elements if e > 0)
    u1 = a.length + 2 * s - 2 * pos
    steps = np.array([e for e in a.elements if abs(e) > 1], dtype=np.int64)
    vs = np.abs(steps)
    runs = vs - 1
    starts = np.cumsum(runs) - runs  # entry k's breakpoints are starts[k]:starts[k] + runs[k]
    m = np.arange(points, dtype=np.int64) - np.repeat(starts - 1, runs)
    du = np.repeat(2 * np.sign(steps), runs)
    order = np.argsort(m / np.repeat(vs, runs))
    du_sorted = du[order]
    u_after = (2 * pos - a.length) + np.cumsum(du_sorted)
    d_usq = np.empty_like(du)
    d_usq[order] = (2 * u_after - du_sorted) * du_sorted
    # int64 sums of m*d_usq and m*m*du are exact while the sum of the
    # terms' sizes stays below 2^63 (each entry's sums are sub-sums of
    # those terms); past that, sum Python ints
    top = max(map(abs, a.elements)) - 1
    if points * top * max(int(np.abs(d_usq).max(initial=0)), 2 * top) >= 2**63:
        m, d_usq, du = (x.astype(object) for x in (m, d_usq, du))
    ws = vs.tolist()
    big = lcm(*ws)
    b = big * big
    s1b = big * sum(int(x) * (big // w) for x, w in zip(np.add.reduceat(m * d_usq, starts), ws))
    s2b = sum(int(x) * (big // w) ** 2 for x, w in zip(np.add.reduceat(m * m * du, starts), ws))
    return Fraction(3 * u1 * u1 * b - 3 * s1b - 6 * s * (u1 * b - s2b) + 4 * s * s * b, 12 * b)


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
    unpaired element when the length is odd; otherwise Type B.  Couples
    link t to -2t, so the values form chains t, -2t, 4t, ... on which
    greedy pairing from the small end is a maximum matching: by ascending
    |t|, pair min(count t, count -2t) copies; more than length % 2
    unpaired copies make Type B.  The empty list raises ValueError."""
    if a.length == 0:
        raise ValueError("cannot classify the empty list")
    counts = Counter(a.elements)  # keys in canonical order, by ascending |t|
    unpaired = 0
    for t, c in counts.items():
        paired = min(c, counts.get(-2 * t, 0))
        if paired:
            counts[-2 * t] -= paired
        unpaired += c - paired
        if unpaired > a.length % 2:
            return "B"
    return "A"
