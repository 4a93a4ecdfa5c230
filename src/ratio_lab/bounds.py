"""Recursive exact lower bounds for minimal norms of lists.

G_r(n) is the infimum of norms over non-degenerate length-n lists whose
elements use only the first r primes; G(n) is the unrestricted infimum,
G(n;d) the infimum after excising finitely many subspaces of dimension at
most d, and G~(n;d) the sum-zero variant.  The tables here hold certified
lower bounds computed by the separation recursion

    G_r(n) >= min_{i,j} ( G_{r-1}(n),
                          G_r(i) + G_{r-1}(n-i),
                          (1 - 1/p_r)(G_r(i) + G_{r-1}(n-i)) + G_r(j)/p_r )

over 1 <= i < n and |n-2i| <= j < n with j = n mod 2, seeded with
G_0(n) = n^2/12 and G_r(1) = 1/12; G(n) is bounded by the same shape with
G_r(n) in the first slot and p_{r+1} as the prime, and G(n;1) by its
least split G(i) + G(n-i).  All arithmetic exact, in O(n^2) steps per row:
every window |n-2i| <= j < n ends at n, so the j-minimum is a suffix
minimum over same-parity j, built once per n; min(s, (1-1/p)s + m/p) =
(1-1/p)s + min(s, m)/p leaves one candidate per split s; and the loop over
i works on integer numerators over one common denominator, making one
Fraction per entry.  The G row is its own split partner, so there i stops
at n/2: i and n-i give the same split and the same window.

Landmark values: the n = 2..11 rows are
  G(n)   >= 1/12, 1/8, 1/9, 1/6, 17/108, 5/27, 37/216, 95/432, 2/9, 325/1296
  G(n;1) >= 1/6, 1/6, 1/6, 7/36, 7/36, 17/72, 2/9, 55/216, 55/216, 8/27
and G(n) > 1 for n >= 82, G(n;1) > 1 for n >= 76.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from ratio_lab.arith import primes_upto

__all__ = [
    "BoundTable",
    "INFINITY",
    "build_table",
    "g1_closed_form",
    "mertens_product_bound",
    "g_nd_lower",
    "g_tilde_lower",
    "max_length_for_D",
]

# Tagged +infinity sentinel for G(n;d) with d >= n.  float('inf') compares
# correctly against Fraction and is never mistaken for a rational value.
INFINITY = float("inf")


@dataclass(frozen=True)
class BoundTable:
    n_max: int
    r_max: int
    gr: tuple[tuple[Fraction, ...], ...]  # gr[r][n], 0 <= n <= n_max
    g: tuple[Fraction, ...]  # g[n]
    g1: tuple[Fraction, ...]  # g1[n], g1[0] = g1[1] = 0 placeholders


def _row(seed, p: int, partner=None) -> tuple[list[Fraction], list[Fraction]]:
    """One row of the recursion with prime p over the seed row, and the
    row of its least splits row[i] + partner[n - i] (None: the row itself).
    own and far hold row and partner numerators over the denominator den."""
    row, least = [Fraction(0), Fraction(1, 12)], [Fraction(0), Fraction(0)]
    den = lcm(12, *(f.denominator for f in seed), *(f.denominator for f in partner or ()))
    own = [0, den // 12]
    far = own if partner is None else [f.numerator * (den // f.denominator) for f in partner]
    for n in range(2, len(seed)):
        # suffix[t] = min own[j] over n - 2 - 2t <= j < n, j = n mod 2; split i
        # reads t = min(i, n - i) - 1, so j_min follows i up and back down
        suffix = list(accumulate(own[n - 2 :: -2], min))
        best = seed[n].numerator * (p * den // seed[n].denominator)
        low = own[1] + far[n - 1]
        top = n // 2 + 1 if partner is None else n
        for a, b, j_min in zip(own[1:top], far[n - 1 : n - top : -1], suffix + suffix[n % 2 - 2 :: -1]):
            split = a + b
            if split < low:
                low = split
            # min(split, mixed) = (1 - 1/p) split + min(split, j_min) / p, times p den
            candidate = (p - 1) * split + (split if split < j_min else j_min)
            if candidate < best:
                best = candidate
        row.append(Fraction(best, p * den))
        least.append(Fraction(low, den))
        q = lcm(den, row[n].denominator) // den
        if q > 1:
            den, own = den * q, [x * q for x in own]
            far = own if partner is None else [x * q for x in far]
        own.append(row[n].numerator * (den // row[n].denominator))
    return row, least


def build_table(n_max: int, r_max: int = 3) -> BoundTable:
    """Fill the G_r / G / G(.;1) lower-bound tables up to n_max.

    Rows are computed in increasing r, and within a row in increasing n;
    the recursion only consults same-row entries at smaller lengths, so a
    single pass suffices.  Index 0 holds 0 (the empty list), which the
    j-minimum legitimately reaches when i = n/2.  n_max runs from 2 to
    1024 and r_max from 1 to 8 (the table at 1024 and 8 takes about 2.5 s
    on a 2-core machine); other values raise ValueError.
    """
    if not 2 <= n_max <= 1024:
        raise ValueError(f"n_max must be between 2 and 1024, got {n_max}")
    if not 1 <= r_max <= 8:
        raise ValueError(f"r_max must be between 1 and 8, got {r_max}")
    # the k-th prime is at most k^2 + 1
    primes = primes_upto((r_max + 1) ** 2 + 1)[: r_max + 1]
    gr = [[Fraction(n * n, 12) for n in range(n_max + 1)]]
    for p in primes[:r_max]:
        gr.append(_row(gr[-1], p, gr[-1])[0])
    g, g1 = _row(gr[-1], primes[r_max])
    return BoundTable(n_max, r_max, tuple(map(tuple, gr)), tuple(g), tuple(g1))


def g1_closed_form(n: int) -> Fraction:
    """Exact value of G_1(n), attained by the list [(-2)^j : 0 <= j < n]:
    (1/12)(n/3 + (2/3)(1 - 1/2 + 1/4 - ... + (-1)^(n-1)/2^(n-1)))."""
    if n < 1:
        raise ValueError("n must be positive")
    alt = sum(Fraction((-1) ** j, 2**j) for j in range(n))
    return Fraction(1, 12) * (Fraction(n, 3) + Fraction(2, 3) * alt)


def mertens_product_bound(n: int) -> Fraction:
    """G(n) >= (n/12) prod_{j<=m} (p_j - 1)/(p_j + 1) with 2^m <= n < 2^(m+1);
    the large-n fallback once the recursion table stops."""
    if n < 2:
        raise ValueError("n must be at least 2")
    m = n.bit_length() - 1
    primes = primes_upto(m * m + 1)[:m]
    value = Fraction(n, 12)
    for p in primes:
        value *= Fraction(p - 1, p + 1)
    return value


def g_nd_lower(table: BoundTable, n: int, d: int):
    """Lower bound for G(n;d) = min over compositions of n into d+1
    positive parts of the sum of G-bounds; INFINITY when d >= n."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if d >= n:
        return INFINITY
    if n > table.n_max:
        raise ValueError("table too small")
    return _composition_min((INFINITY,) + table.g[1:], n, d + 1)


def _composition_min(values, n: int, parts: int):
    """Min over compositions of n into `parts` parts of the sum of
    values[part], INFINITY at every excluded part size (0 among them):
    each pass turns the row for t parts into the row for t + 1."""
    row = values[: n + 1]
    for _ in range(parts - 1):
        row = [min((row[m - i] + values[i] for i in range(1, m)), default=INFINITY) for m in range(n + 1)]
    return row[n]


def g_tilde_lower(table: BoundTable, n: int, d: int):
    """Lower bound for the sum-zero variant:
    min( G(n;d+1), min over compositions into d+1 parts >= 3 of the sum of
    per-part sum-zero bounds ), the per-part bound being 1/4 for odd parts
    and the G table value for even parts >= 4."""
    if n < 2 or d < 0:
        raise ValueError("need n >= 2 and d >= 0")
    if n > table.n_max:
        raise ValueError("table too small")
    base = [INFINITY] * 3 + [Fraction(1, 4) if ell % 2 else table.g[ell] for ell in range(3, n + 1)]
    return min(g_nd_lower(table, n, d + 1), _composition_min(base, n, d + 1))


def max_length_for_D(table: BoundTable, D: int, *, use_g1: bool = False) -> int:
    """Largest length K+L not ruled out by the table for excess D.

    A ratio with excess D has length K+L = 2K+D, so only lengths of D's
    parity are admissible; any list norm is at most D^2/4.  Returns one
    more than the largest admissible n with bound <= D^2/4, i.e. the
    published cutoffs: D=2 gives 81 from the g row (none beyond) and 75
    from the g1 row (finitely many beyond); D=1 gives 10.  The row need
    not be monotone, so the cutoff depends on n_max: at r_max 2, G(90..94)
    > 1 > G(96), and D=2 reads 89 at n_max 90..95 and 97 from 98 on.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    threshold = Fraction(D * D, 4)
    row = table.g1 if use_g1 else table.g
    admissible = [n for n in range(2, table.n_max + 1) if n % 2 == D % 2]
    if row[admissible[-1]] <= threshold:
        raise ValueError("table too small to witness the crossing")
    return max(n for n in admissible if row[n] <= threshold) + 1
