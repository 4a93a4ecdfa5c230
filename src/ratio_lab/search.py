"""Exhaustive and family searches behind the classification results.

The classification of integral factorial ratios with D = 1 boils down to
finding all primitive sum-zero lists of odd length 5, 7, 9 with norm
exactly 1/4.  Infinite families aside, there are 52 sporadic lists:
29 of length 5, 21 of length 7 and 2 of length 9.  The searches here
reproduce them: a family scan plus a sweep over quadruples of divisors
of 2^6*3^3*5^3 with a forced fifth element for length 5; for length 7
two pairable shape sweeps and a sum-zero sweep over divisors of
2^10*3^5 for the non-pairable case; for length 9 a pairable sweep plus
a recombination of [1,-2,-3,6] with the small-norm length-5 catalogue.

Every sweep is data (`_Sweep`) run by one engine, `_scan`: parameter
groups, the rows it enumerates (a support, how many parameters are drawn
from it, the multiples m*v a parameter v contributes), a free last
element (minus the sum) or a join (only the rows that sum to zero, whose
last element is a parameter like any other), a float norm bound (1/4 for
every classification sweep) and an exact `keep` predicate.  The engine
is one sorted join: each head takes one searchsorted range of the sorted
tail rows, so only rows that can hit are visited, each multiset once,
and their float norms come from cross-term tables.  A row whose elements
one of the primes 2, 3, 5, 7 all divide is not primitive, a scaled copy
of a list of the same norm, so it is never a result, and the engine
skips it before its float norm: each value carries a mask of the primes
dividing every element it gives, and a row is skipped when the AND of
its masks is not 0 (`_scan`).  `_live_rows` drops the remaining
degenerate and non-primitive rows, `_confirm` decides the rest exactly,
and a sweep returns one list per +- pair (`_dedup`, up to permutation
and global sign flip).  One rule names a pair: of a list and its
negation, the one whose canonical tuple starts negative
(`lists.canonical_pair_key`).  Where every support is laid out in (-d, d)
pairs, the negation of a row is a row too, and the engine visits only
the member of each pair that starts negative, which halves the work and
is the member `_dedup` keeps; so `sum_zero_divisor_lists` gets just that
member at every length.  The float bound only prunes: every sweep checks
that the error bound of `_prefilter_error` is below FLOAT_TOL.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, gcd, prod

from ratio_lab.arith import divisors, lazy_import
from ratio_lab.integrality import RatioSpec, family_membership, is_integral, norm_quarter_check
from ratio_lab.lists import SignedList, canonical_pair_key, classify_type, make_list, norm, norm_by_integration, with_norms
from ratio_lab.separation import forced_coefficients

np = lazy_import("numpy")  # loaded by the first sweep

__all__ = [
    "Catalog",
    "CatalogEntry",
    "family_search_5",
    "divisor_sweep_5",
    "sum_zero_divisor_lists",
    "classify_length",
    "small_norm_catalog",
    "verify_catalog",
    "d2_family_probe",
    "canonical_pair_key",
    "catalog_dir",
    "load_golden",
    "GOLDEN_NAMES",
]

QUARTER = Fraction(1, 4)
# float prefilter tolerance; _rows proves on every sweep that it exceeds
# the float error (_prefilter_error)
FLOAT_TOL = 5e-13
# a sweep's tail is built and sorted once; TAIL_ROWS only sets the one-head
# split (the fewest leading parameters that leave at most TAIL_ROWS tail
# rows), and heads and hits go CHUNK rows per numpy call
TAIL_ROWS = 1 << 17
CHUNK = 1 << 13
# the at-most-7-separated support of pairable sum-zero lists (the length-7 type A
# sweep, the length-5 lemma); quoted from the source analysis, not derived
PAIRABLE_SUPPORT = 2**6 * 3**2 * 5**2 * 7**2
# _Sweep.solved of a join: the rows of its groups that sum to zero
JOIN = "join"


def _signed_divisors(m: int) -> tuple[int, ...]:
    """Divisors of m != 0 of both signs, by ascending |v|, negative first."""
    if m == 0:
        raise ValueError("a divisor support needs a nonzero modulus: every integer divides 0")
    return tuple(v for d in divisors(m) for v in (-d, d))


def _box(bound: int) -> tuple[int, ...]:
    """The nonzero integers in [-bound, bound], in the same order."""
    return tuple(v for d in range(1, bound + 1) for v in (-d, d))


def _dedup(lists) -> list[SignedList]:
    seen = {}
    for a in lists:
        seen.setdefault(canonical_pair_key(a), a)
    return [seen[k] for k in sorted(seen)]


def _live_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of candidate rows that are primitive and hold no zero and no
    (x, -x) pair, which make_list would reject or cancel; columns are
    compared pairwise, so memory stays linear in the number of rows."""
    keep = (np.gcd.reduce(rows, axis=1) == 1) & np.all(rows != 0, axis=1)
    for i, j in combinations(range(rows.shape[1]), 2):
        keep &= rows[:, i] != -rows[:, j]
    return keep


# ---------------------------------------------------------------------------
# the sweep engine


@dataclass(frozen=True)
class _Group:
    """`count` parameters drawn from `values` as a non-decreasing index
    tuple; a parameter v contributes the elements m*v, m in `mults`."""

    values: tuple[int, ...]
    count: int
    mults: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class _Sweep:
    """A sweep as data, its groups written as the rows it enumerates.  A
    row holds its parameters' elements in group order, then, if `solved`
    is True, minus their sum, which must be nonzero.  A join (`solved`
    JOIN) keeps the rows that sum to zero, so its last element is a
    parameter of a group like any other.  `bound`, if set, keeps rows of
    float norm <= bound + FLOAT_TOL; norm-1/4 searches take 0.25, as
    odd-length sum-zero rows have norm >= 1/4
    (tests/test_lists.py::test_odd_sum_zero_norm_at_least_quarter)."""

    groups: tuple[_Group, ...]
    bound: float | None = None
    solved: bool | str = False

    @property
    def length(self) -> int:
        return sum(g.count * len(g.mults) for g in self.groups) + (self.solved is True)


def _pairable(m: int, k: int) -> tuple[_Group, _Group]:
    """The pairable shape [a,-2a,...,c], k pairs then c, elements dividing m."""
    return (_Group(_signed_divisors(m // 2), k, (1, -2)), _Group(_signed_divisors(m), 1))


def _prefilter_error(length: int) -> float:
    """Bound on |float norm - exact norm| for a row of `length` elements.

    _scan computes the norm as (length/2 + S)/6, where S sums the
    n = length(length-1)/2 cross terms gcd(x,y)^2/(xy).  Each term has
    magnitude <= 1 (gcd^2 <= |xy|) and takes 3 roundings (g*g, then x*y
    and a quotient or two quotients) from inputs exact in float64.
    Adding the K = n + 1 summands in any order and dividing by 6 gives,
    with u = 2^-53 and gamma_j = j*u/(1 - j*u),

        |error| <= gamma_(K+3) (length/2 + n)/6 = gamma_(K+3) length^2/12,

    about 3.0e-14 at length 9.
    """
    j = length * (length - 1) // 2 + 4
    return j * 2.0**-53 / (1 - j * 2.0**-53) * length**2 / 12


def _paired(values) -> bool:
    """Whether values are laid out in (-d, d) pairs, as _signed_divisors
    and _box lay them out: negation then maps index i to i^1."""
    return len(values) % 2 == 0 and all(v < 0 and w == -v for v, w in zip(values[0::2], values[1::2]))


def _combos(n: int, k: int) -> np.ndarray:
    """The non-decreasing k-tuples of indices below n (n, k >= 1), in lexical
    order, in the smallest unsigned type that holds them.  They are built
    a level at a time from the (k-1)-tuples, which are sorted by their
    first index: first index i goes before the suffix of those that start
    at i or later.  One searchsorted finds the suffixes, one repeat writes
    the first column and one concatenate of the suffix views the rest,
    into the level's one array (an index array for the gather took 3
    times as long and 2-5 times the memory of the result)."""
    first = np.arange(n, dtype=np.min_scalar_type(n))
    rows = first[:, None]
    for _ in range(k - 1):
        start = np.searchsorted(rows[:, 0], first)
        counts = len(rows) - start
        out = np.empty((counts.sum(), rows.shape[1] + 1), dtype=first.dtype)
        out[:, 0] = np.repeat(first, counts)
        np.concatenate([rows[s:] for s in start.tolist()], out=out[:, 1:])
        rows = out
    return rows


def _cross(x: _Group, y: _Group) -> np.ndarray:
    """T[i, j]: the cross terms between parameters x.values[i], y.values[j],
    built about CHUNK entries at a time, which bounds the temporaries.  On
    a _paired axis only the +d values take gcds: gcd ignores signs, so the
    -d row or column is the +d one negated, written in place.  A sign flip
    is exact, and 0 - t turns a sum of 0, +0.0, into +0.0 as the full
    grid's sum is, so every entry has the bits the full grid gives it."""
    px, py = _paired(x.values), _paired(y.values)
    out = np.zeros((len(x.values), len(y.values)))
    sx, sy = (slice(1, None, 2) if p else slice(None) for p in (px, py))  # the values that take gcds
    xv, yv = np.array(x.values[sx])[:, None], np.array(y.values[sy])[None, :]
    part = out[sx, sy]
    step = 1 + CHUNK // yv.shape[1]
    for r, (m, mm) in product(range(0, len(xv), step), product(x.mults, y.mults)):
        g = np.gcd(m * xv[r : r + step], mm * yv).astype(np.float64)
        g *= g
        g /= m * xv[r : r + step]
        g /= mm * yv
        part[r : r + step] += g
    if px:  # the -d rows, then the -d columns of every row
        np.subtract(0, out[1::2, sy], out=out[0::2, sy])
    if py:
        np.subtract(0, out[:, 1::2], out=out[:, 0::2])
    return out


def _gcd_tables(groups, top: int) -> tuple[np.ndarray, dict]:
    """(slot, tabs) for a sweep whose elements all divide `top`.  For an
    integer e with d = gcd(top, e), slot[e % top] is the index of d among
    the divisors of top, and tabs[gi, m][i, slot] = gcd(x, d)^2 / x for
    x = m * groups[gi].values[i]: gcd(x, e) = gcd(x, d) as x divides top,
    and each entry is the quotient of exact integers rounded once, as the
    direct g * g / x rounds it."""
    divs = np.array(divisors(top))
    slot = np.searchsorted(divs, np.gcd(np.arange(top), top)).astype(np.min_scalar_type(len(divs)))
    tabs = {}
    for gi, g in enumerate(groups):
        for m in g.mults:
            x = m * np.array(g.values)[:, None]
            gg = np.gcd(x, divs).astype(np.float64)
            tabs[gi, m] = gg * gg / x
    return slot, tabs


def _n_combos(groups, params) -> int:
    """The number of index combinations of the given parameters (by group)."""
    return prod(comb(len(groups[gi].values) + k - 1, k) for gi, k in Counter(params).items())


def _index_rows(groups, params) -> tuple[list[np.ndarray], int]:
    """(columns, rows) of every index combination of the parameters, first
    group major, so sorted by the first column (one row for none)."""
    cols, rows = [], 1
    for gi, k in Counter(params).items():
        c = _combos(len(groups[gi].values), k)
        new = c if rows == 1 else np.tile(c, (rows, 1))
        cols = [np.repeat(i, len(c)) for i in cols] + list(new.T)
        rows *= len(c)
    return cols, rows


def _joined(h, lo, stop):
    """The hits of the tail ranges lo[r]:stop[r], of heads h[r], as (head,
    tail) row indices, CHUNK at a time."""
    ends = np.cumsum(stop - lo)
    for c0 in range(0, int(ends[-1]), CHUNK):
        k = np.arange(c0, min(c0 + CHUNK, int(ends[-1])))
        r = np.searchsorted(ends, k, side="right")
        yield h[r], stop[r] - ends[r] + k


def _live(parts) -> np.ndarray:
    """The rows of the arrays `parts` that _live_rows keeps."""
    rows = np.concatenate(parts)
    return rows[_live_rows(rows)]


def _class_primes(elements) -> list[int]:
    """The primes of 2, 3, 5 and 7 that divide some element: _scan sorts
    rows into 2^len classes by which of them divide all their elements."""
    return [p for p in (2, 3, 5, 7) if any(e % p == 0 for e in elements)]


def _scan(sweep: _Sweep, part: int = 0, parts: int = 1) -> np.ndarray:
    """Float-prefilter one share of a sweep: its surviving live rows.

    The tail's index rows are built once, in first index order, and sorted
    once, stably, by one key K*n + first index: K is a row's sum in a join
    and its class (below) otherwise, and n is the number of values in the
    tail's first group if the head's last parameter is of that group, else
    1 with no first index in the key.  A Python loop runs over the leading
    head parameters, the rows of _index_rows in lexical order, every
    `parts`-th from `part` on, the others forming numpy blocks.  In a
    sum-zero join (JOIN, whose last element's support is a group of the
    sweep's own) each head takes one searchsorted range of tail rows, sum
    -(head sum), first index from the head's last on if both are of one
    group, so each multiset is reached once; a block's heads look their
    ranges up in key order, so that each binary search starts where the
    last one ended.  Other sweeps take one head at a time, and its hits
    are a slice of the tail per class it is compatible with, from its last
    index j on if both are of one group: class c is the rows
    begin[c*n + j]:begin[(c + 1)*n], begin[k] the first row of key >= k
    (gathering the slices in blocks made most of them 1.2-3.5 times
    slower, BENCH_layers.json).

    Only primitive rows can be live, so rows whose elements one prime
    divides are dropped before any float norm.  For the primes p_b of
    _class_primes, bit b of a value v's mask is set when p_b divides
    gcd(mults) * v, that is every element v gives, and a row's class is
    the AND of its parameters' masks: a nonzero class names a prime that
    divides the whole row, which _live_rows would drop.  A head and a tail
    row are joined only when the AND of their classes is 0: the one-head
    path never visits the other tail slices (with no head parameter the
    head's class, the AND of no masks, has every bit set, so only class 0
    is compatible), and the join drops the other hits of its ranges (a
    class in the join key, one range per class, made the divisor joins up
    to 1.4 times slower).  A free solved element (True) needs no mask: it
    is minus the sum of the others, so a prime dividing them all divides
    it.  Larger primes are ignored, so _live_rows stays the exact gate.

    A sweep is +- paired when every group's values are _paired and group
    0's first multiple is positive.  Negation then maps index i to i^1 in
    every group and the float bound keeps a row exactly when it keeps its
    negation, so of each live row and its negation exactly one has an
    even first index (a row with both i and i^1 holds d and -d and is not
    live), and only those rows are visited.  One mask, before any sums,
    keeps them: on the heads, before the deal to the shares, or with no
    head parameter (lead 0) on the tail rows.  Each kept row starts
    negative, so it is the smaller of its pair.  Negation keeps a row's
    class, so the two rules compose."""
    groups, solved, bound = sweep.groups, sweep.solved, sweep.bound
    owner = [gi for gi, g in enumerate(groups) for _ in range(g.count)]  # group of each parameter
    sum_zero = solved == JOIN
    if sum_zero:  # the split balances heads and tail rows
        size = lambda c: _n_combos(groups, owner[:c]) + _n_combos(groups, owner[c:])  # noqa: E731
        cut, lead = min(range(1, max(2, len(owner))), key=lambda c: (size(c), -c)), 1
    else:
        cut = lead = min(c for c in range(len(owner) + 1) if _n_combos(groups, owner[c:]) <= TAIL_ROWS)
    block, tail = owner[lead:cut], owner[cut:]
    vals = [np.array(g.values) for g in groups]
    # the cross-term tables of a float bound; an unbounded join does no cross-term work
    tables = {pair: _cross(groups[pair[0]], groups[pair[1]]) for pair in set(combinations(owner, 2))} if bound is not None else {}
    elements = [m * v for g in groups for m in g.mults for v in g.values]
    primes = np.array(_class_primes(elements), dtype=np.int64)
    full = (1 << len(primes)) - 1  # the mask of every prime, and the class of no parameter
    bits = 1 << np.arange(len(primes))
    masks = [(((gcd(*g.mults) * v)[:, None] % primes == 0) @ bits).astype(np.uint8) for g, v in zip(groups, vals)]
    weights = [sum(g.mults) * v for g, v in zip(groups, vals)]  # the element sum a value gives
    compatible = cache(lambda m: [c for c in range(full + 1) if not c & m])  # the classes a head mask joins

    def fold(op, table, params, cols, start):
        """op folded from start over the table entries of rows' parameters
        (one row for none): weights give sums, masks classes."""
        out = np.full(len(cols[0]) if cols else 1, start, dtype=table[0].dtype)
        for gi, i in zip(params, cols):
            op(out, table[gi][i], out=out)
        return out

    def inner(params, cols):
        """Inner cross terms of rows of the given parameter indices, index
        arrays or a head's scalars (one row if the last is a scalar)."""
        out = np.zeros(len(cols[-1]) if cols and np.ndim(cols[-1]) else 1)
        for q, r in combinations(range(len(params)), 2):
            out += tables[params[q], params[r]][cols[q], cols[r]]
        return out

    def columns(idx):
        """The element columns of rows of the given parameter indices."""
        return [v if m == 1 else m * v for gi, i in zip(owner, idx) for v in [vals[gi][i]] for m in groups[gi].mults]

    block_idx, rows = _index_rows(groups, block)
    after = 0 < lead < cut and owner[lead - 1] == owner[lead]  # block indices from the prefix's last on
    shared = 0 < cut < len(owner) and owner[cut - 1] == owner[cut]
    n = len(vals[tail[0]]) if shared else 1
    const = sweep.length / 2
    const += sum(gcd(m, mm) ** 2 / (m * mm) for gi in owner for m, mm in combinations(groups[gi].mults, 2))
    # a free solved element e takes gcd(x, e) with each other element x, from
    # tables (_gcd_tables) if every x divides the largest, top, and rows >= top
    top = max(map(abs, elements))
    gcds = solved is True and _n_combos(groups, owner) >= top and all(top % x == 0 for x in elements)
    slot, tabs = _gcd_tables(groups, top) if gcds else (None, None)
    empty = np.empty((0, sweep.length), dtype=np.int64)
    out, pending, held = [], [empty], 0  # live rows, and float hits not yet through _live_rows
    head_idx, _ = _index_rows(groups, owner[:lead])
    tail_idx, _ = _index_rows(groups, tail)
    # a +- paired layout (see above): only even first indices of parameter 0 are visited
    if groups[0].mults[0] > 0 and all(_paired(g.values) for g in groups):
        first = head_idx if lead else tail_idx
        even = first[0] % 2 == 0
        first[:] = [i[even] for i in first]
    tail_cls = fold(np.bitwise_and, masks, tail, tail_idx, full)
    # the tail rows sorted once, in place, by the key K*n + first index, K the sum in
    # a join, else the class (they are in first index order already); columns stay
    # in their _combos type, and a class key in the smallest, so the sort is a radix sort
    key = fold(np.add, weights, tail, tail_idx, 0) if sum_zero else tail_cls.astype(np.min_scalar_type((full + 1) * n))
    key *= n
    key += tail_idx[0] if shared else 0
    order = np.argsort(key, kind="stable")
    for i in (*tail_idx, tail_cls, key):
        i[:] = i[order]
    del order
    tail_inner = inner(tail, tail_idx) if bound is not None else None
    begin = None if sum_zero else np.searchsorted(key, np.arange((full + 2) * n)).tolist()
    heads = np.transpose(head_idx).tolist() if lead else [[]]
    hms = fold(np.bitwise_and, masks, owner[:lead], head_idx, full).tolist()
    hsums = fold(np.add, weights, owner[:lead], head_idx, 0).tolist()
    for hi, hm, hsum in list(zip(heads, hms, hsums))[part::parts]:
        # the rows of the cross-term tables that the leading parameters pick
        against = [sum(tables[owner[q], gq][hi[q]] for q in range(lead)) for gq in tail] if lead and bound is not None else []
        for s in range(int(np.searchsorted(block_idx[0], hi[-1])) if after else 0, rows, CHUNK):
            head = hi + [i[s : s + CHUNK] for i in block_idx]
            if bound is not None:
                base = const + inner(owner[:cut], head)
            if sum_zero:  # for each head, in key order, the tail rows of sum -(head sum)
                at = fold(np.add, weights, block, head[lead:], hsum) * -n
                h = np.argsort(at, kind="stable")
                lo = np.searchsorted(key, (at + (head[-1] if shared else 0))[h])
                hits = _joined(h, lo, np.searchsorted(key, at[h] + n))
                hmask = fold(np.bitwise_and, masks, block, head[lead:], hm)
            else:  # one head, and a slice of each compatible class from its last index on
                j = hi[-1] if shared else 0
                spans = [(begin[c * n + j], begin[(c + 1) * n]) for c in compatible(hm)]
                hits = (((), slice(c0, min(c0 + CHUNK, c1))) for a, c1 in spans for c0 in range(a, c1, CHUNK))
            for h, t in hits:
                if sum_zero:  # only the hits of class 0
                    keep = (hmask[h] & tail_cls[t]) == 0
                    h, t = h[keep], t[keep]
                idx = hi + [i[h].astype(np.intp) for i in head[lead:]] + [i[t].astype(np.intp) for i in tail_idx]
                # a free solved element: minus the row's weight sum
                free = [-fold(np.add, weights, owner[lead:], idx[lead:], hsum)] if solved is True else []
                if bound is not None:
                    total = base[h] + tail_inner[t]
                    for row, i in zip(against, idx[cut:]):
                        total += row[i]
                    for q, r in product(range(lead, cut), range(cut, len(owner))):
                        total += tables[owner[q], owner[r]][idx[q], idx[r]]
                    if free:  # the terms of e
                        e = free[0]
                        if gcds:
                            k = slot[e % top]
                            terms = [tabs[gi, m][i, k] for gi, i in zip(owner, idx) for m in groups[gi].mults]
                        else:
                            terms = [np.gcd(x, e).astype(np.float64) ** 2 / x for x in columns(idx)]
                        # e is 0 where the others sum to 0, a row _live_rows drops
                        with np.errstate(divide="ignore", invalid="ignore"):
                            total += sum(terms) / e
                    hit = np.flatnonzero(total / 6 <= bound + FLOAT_TOL)
                    if not len(hit):
                        continue
                    # only the hits' element columns are built; head scalars stay
                    idx, free = hi + [i[hit] for i in idx[lead:]], [e[hit] for e in free]
                cols = columns(idx) + free
                found = np.empty((np.broadcast(*cols).size, sweep.length), dtype=np.int64)
                for q, x in enumerate(cols):
                    found[:, q] = x
                pending.append(found)
                held += len(found)
                if held >= CHUNK:  # one _live_rows call per about CHUNK float hits
                    out.append(_live(pending))
                    pending, held = [empty], 0
    return np.concatenate(out + [_live(pending)])


def _rows(sweep: _Sweep, jobs: int = 1) -> np.ndarray:
    """Every row of a sweep that passes the float bound and _live_rows, with
    _scan's prefix loop sharded over `jobs` processes, in lexicographic
    order: one sort after the shares are joined, so any `jobs` gives the
    same array.  First check that int64 holds a sum of length - 1 elements
    times n, plus n (n = 1, or for a sum-zero join key the support size),
    and that a float bound t is sound: elements exact in float64 (the solved
    one is at most `length` times the largest), and the error bound plus the
    roundings of t and of t + FLOAT_TOL, 2u(1 + |t|), below FLOAT_TOL.
    Before all that, `jobs` outside 1..os.cpu_count() raises ValueError, so
    a refused pool never starts.  A group without values gives no rows."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and {cpus} (the number of CPUs), got {jobs}")
    length, groups = sweep.length, sweep.groups
    if not all(g.values for g in groups):
        return np.empty((0, length), dtype=np.int64)
    biggest = max((abs(m * v) for g in groups for m in g.mults for v in g.values), default=0)
    n = max(len(g.values) for g in groups) if sweep.solved == JOIN else 1
    if ((length - 1) * biggest + 1) * n >= 2**63:
        raise ValueError(f"row sums times {n} support values (the join key) overflow int64")
    err = _prefilter_error(length) + 2.0**-52 * (1 + abs(sweep.bound or 0))
    if sweep.bound is not None and (length * biggest >= 2**53 or not err < FLOAT_TOL):
        raise ArithmeticError(f"float prefilter bound {err:.2e} is not below FLOAT_TOL {FLOAT_TOL:.2e}")
    if jobs == 1:
        rows = _scan(sweep)
    else:
        from multiprocessing import Pool  # loaded only when a sweep is dealt to workers
        with Pool(jobs) as pool:
            rows = np.concatenate(pool.starmap(_scan, [(sweep, s, jobs) for s in range(jobs)]))
    return rows[np.lexsort(rows.T[::-1])]


def _confirm(sweep: _Sweep, keep, jobs: int = 1) -> list[SignedList]:
    """The exact step: build each row of the sweep (_rows, in lexicographic
    order; they are distinct: _scan reaches each index multiset once, in
    disjoint `jobs` shares), take the first of each +- pair (_dedup), and
    keep the lists passing `keep`.  `keep` runs once per pair, so it must
    give a list and its negation the same answer, as every `keep` here does:
    the norm tests and cutoffs, classify_type and family_membership.  A +-
    paired sweep visits only the rows that start negative (_scan): the
    negation of a row that starts positive is a row that starts negative, so
    the smallest row of each pair key is visited and _dedup keeps the list
    it kept when every row was visited."""
    return [a for a in _dedup(map(make_list, _rows(sweep, jobs).tolist())) if keep(a)]


def _is_quarter(a: SignedList) -> bool:
    return norm(a) == QUARTER


# ---------------------------------------------------------------------------
# length 5


def family_search_5(a_bound: int = 108, b_bound: int = 72) -> list[SignedList]:
    """Scan [a, -2a, b, -3b, a+2b] over coprime (a, b) in the box.

    The derived bound |ab| <= 36, |bc| <= 36 or |ac| <= 72 confines any
    norm-1/4 member of this family to |a| <= 108, |b| <= 72.
    """
    sweep = _Sweep((_Group(_box(a_bound), 1, (1, -2)), _Group(_box(b_bound), 1, (1, -3))), 0.25, True)
    return _confirm(sweep, lambda a: _is_quarter(a) and family_membership(a) == "sporadic")


def divisor_sweep_5(modulus: int = 2**6 * 3**3 * 5**3, jobs: int = 1) -> list[SignedList]:
    """All norm-1/4 length-5 lists with four elements dividing the modulus.

    The fifth element is forced by the zero-sum condition and need not
    divide the modulus, whose default is quoted from the source analysis,
    not derived.  ~10^8 raw multisets; float prefilter + exact confirmation.
    """
    sweep = _Sweep((_Group(_signed_divisors(modulus), 4),), 0.25, True)
    return _confirm(sweep, _is_quarter, jobs)


# ---------------------------------------------------------------------------
# generic sum-zero sweep over a divisor support (lengths 2..7)


def sum_zero_divisor_lists(modulus: int, length: int) -> list[SignedList]:
    """Every primitive non-degenerate sum-zero list of the given length
    with all elements dividing the modulus, up to permutation and sign, in
    canonical_pair_key order, each with its exact norm.  The +- paired
    join visits each multiset once, in canonical order, and of each +- pair
    only the member that starts negative (_scan), its own key."""
    if length < 2 or length > 7:
        raise ValueError("supported lengths: 2..7")
    rows = _rows(_Sweep((_Group(_signed_divisors(modulus), length),), None, JOIN))
    return with_norms((rows[c : c + CHUNK] for c in range(0, len(rows), CHUNK)), abs(modulus))


# ---------------------------------------------------------------------------
# length 7


def _type_a_sweep_7(jobs: int = 1) -> list[SignedList]:
    """Pairable [a,-2a,b,-2b,c,-2c,d=a+b+c] with elements dividing
    PAIRABLE_SUPPORT = 2^6*3^2*5^2*7^2."""
    return _confirm(_Sweep(_pairable(PAIRABLE_SUPPORT, 3), 0.25, JOIN), _is_quarter, jobs)


def _type_a3_sweep_7(jobs: int = 1) -> list[SignedList]:
    """[a,-2a,b,-2b,c,-3c,d=a+b+2c] with elements dividing 2^12*3^6*5^6
    (the plain at-most-5-separated support; sound but not sharp)."""
    M = 2**12 * 3**6 * 5**6
    groups = (_Group(_signed_divisors(M // 2), 2, (1, -2)), _Group(_signed_divisors(M // 3), 1, (1, -3)), _Group(_signed_divisors(M), 1))
    return _confirm(_Sweep(groups, 0.25, JOIN), _is_quarter, jobs)


def _type_b_sweep_7(jobs: int = 1) -> list[SignedList]:
    """Sum-zero sweep over divisors of 2^10*3^5 (the at-most-4-separated
    support for non-pairable lists, quoted from the source analysis, not
    derived), keeping norm-1/4 results."""
    return _confirm(_Sweep((_Group(_signed_divisors(2**10 * 3**5), 7),), 0.25, JOIN), _is_quarter, jobs)


# ---------------------------------------------------------------------------
# length 9


def _type_a_sweep_9(jobs: int = 1) -> list[SignedList]:
    """Pairable [a,-2a,...,d,-2d,e=a+b+c+d] with elements dividing
    2^16*3^8 (the plain at-most-4-separated support for length 9)."""
    return _confirm(_Sweep(_pairable(2**16 * 3**8, 4), 0.25, JOIN), _is_quarter, jobs)


def _combine_sweep_9() -> list[SignedList]:
    """Recombine B*[1,-2,-3,6] with C*c for small-norm length-5 lists c.

    For a sum-zero odd-length product the coefficients are forced (up to
    a global sign) by B*s(b) + C*s(c) = 0, so each candidate pair yields
    at most one list to test.  -c would force (-B, C) and so the negated
    list, which _dedup drops as the other member of its +- pair.
    """
    b = make_list([1, -2, -3, 6])
    cands = []
    for c in small_norm_catalog(5, Fraction(13, 72)).lists():
        coefficients = forced_coefficients(b, c)
        if coefficients is not None:
            B, C = coefficients
            cands.append(make_list([B * e for e in b] + [C * e for e in c]))
    return _dedup(a for a in cands if a.length == 9 and a.total == 0 and a.is_primitive() and norm(a) == QUARTER)


# ---------------------------------------------------------------------------
# catalogs


@dataclass(frozen=True)
class CatalogEntry:
    list: SignedList
    norm: Fraction


@dataclass(frozen=True)
class Catalog:
    name: str
    entries: tuple[CatalogEntry, ...]
    note: str = ""

    def lists(self) -> list[SignedList]:
        return [e.list for e in self.entries]

    def keys(self) -> set[tuple[int, ...]]:
        return {canonical_pair_key(e.list) for e in self.entries}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "note": self.note,
            "entries": [
                {"list": e.list.to_json(), "norm": f"{e.norm.numerator}/{e.norm.denominator}"}
                for e in self.entries
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Catalog":
        entries = tuple(
            CatalogEntry(list=SignedList.from_json(e["list"]), norm=Fraction(e["norm"]))
            for e in data["entries"]
        )
        for e in entries:
            if norm(e.list) != e.norm:
                raise ValueError(f"catalog {data['name']}: stored norm mismatch for {e.list}")
        return Catalog(name=data["name"], entries=entries, note=data.get("note", ""))


def _catalog(name: str, lists, note: str = "") -> Catalog:
    entries = tuple(
        CatalogEntry(list=a, norm=norm(a)) for a in sorted(lists, key=canonical_pair_key)
    )
    return Catalog(name=name, entries=entries, note=note)


def classify_length(n: int, jobs: int = 1) -> Catalog:
    """Sporadic norm-1/4 sum-zero lists of length 5, 7 or 9."""
    if n == 5:
        found = family_search_5() + divisor_sweep_5(jobs=jobs)
        note = (
            "two-parameter family scan (|a|<=108, |b|<=72) plus quadruple "
            "sweep over divisors of 2^6*3^3*5^3 with forced fifth element"
        )
    elif n == 7:
        found = _type_a_sweep_7(jobs) + _type_a3_sweep_7(jobs) + _type_b_sweep_7(jobs)
        note = (
            "pairable sweep over divisors of 2^6*3^2*5^2*7^2, the (c,-3c) "
            "variant over divisors of 2^12*3^6*5^6, and a sum-zero sweep "
            "over divisors of 2^10*3^5 for non-pairable lists (empty). "
            "The entry [-1,2,3,-4,-6,-6,12] genuinely repeats -6."
        )
    elif n == 9:
        found = _type_a_sweep_9(jobs) + _combine_sweep_9()
        note = (
            "pairable sum-zero sweep over divisors of 2^16*3^8 plus "
            "recombination of [1,-2,-3,6] with length-5 lists of norm <= 13/72"
        )
    else:
        raise ValueError("classification lengths are 5, 7, 9")
    sporadics = [a for a in _dedup(found) if family_membership(a) == "sporadic"]
    return _catalog(f"sporadic_length{n}", sporadics, note)


# ---------------------------------------------------------------------------
# small-norm catalogs


def _shapes_3(threshold: Fraction) -> list[tuple[_Group, ...]]:
    """Any length-3 list with norm < 43/216 is of the form [a, -ka, b] with
    2 <= k <= 5 and gcd(a, b) = 1, and within each family the norm tends
    to a limit >= 1/6, so a threshold below 1/6 gives a finite scan bound.
    Each shape's cross-term table holds 2 bound x 2k bound floats, so a
    scan bound above 1000 (thresholds of 333/2000 and up) raises ValueError."""
    if threshold >= Fraction(1, 6):
        raise ValueError("infinitely many length-3 lists below thresholds >= 1/6")
    bound = 1 + int(1 / (6 * (Fraction(1, 6) - threshold)))
    if bound > 1000:
        raise ValueError(f"threshold {threshold} needs a scan bound of {bound}, above the cap of 1000")
    return [(_Group(_box(bound), 1, (1, -k)), _Group(_box(k * bound), 1)) for k in (2, 3, 4, 5)]


# The small-norm lemmas by length: (the threshold the catalog is complete to,
# None where _shapes_3 refuses; threshold -> the groups tuples to sweep; note)
_SMALL_NORM = {
    3: (None, _shapes_3, "forms [a,-ka,b], 2<=k<=5"),
    # non-pairable: divisors of 4^3*3^3 = 1728 cover the at-most-4-separated
    # case, and the [a,-3a,b,-3b] family contributes [1,-3,-5,15] at 8/45
    4: (
        Fraction(11, 60),
        lambda t: [(_Group(_signed_divisors(1728), 4),), (_Group(tuple(range(1, 41)), 1, (1, -3)), _Group(_box(40), 1, (1, -3)))],
        "non-pairable, sweep over divisors of 1728 plus [a,-3a,b,-3b]",
    ),
    # pairable, over PAIRABLE_SUPPORT
    5: (
        Fraction(31, 168),
        lambda t: [_pairable(PAIRABLE_SUPPORT, 2)],
        "pairable [a,-2a,b,-2b,c] over divisors of 2^6*3^2*5^2*7^2",
    ),
    # non-pairable: divisors of 2^5*3^4 cover the 3-separated case, and two
    # structured families the 4-or-more-separated cases
    6: (
        Fraction(7, 36),
        lambda t: [
            (_Group(_signed_divisors(2**5 * 3**4), 6),),
            (_Group(_box(100), 1, (1, -2, -3, 6)), _Group(_box(100), 1, (1, -3))),
            (_Group(_box(100), 2, (1, -2, 4)),),
        ],
        "non-pairable, sweep over divisors of 2^5*3^4 plus two families",
    ),
    # pairable, over the at-most-4-separated support: the global minimum 5/24
    # is attained here, and every other case exceeds it
    7: (
        Fraction(5, 24),
        lambda t: [_pairable(2**9 * 3**3, 3)],
        "pairable over divisors of 2^9*3^3; global minimum 5/24",
    ),
    # the global minimum 8/45 is attained on divisors of 30
    8: (Fraction(8, 45), lambda t: [(_Group(_signed_divisors(30), 8),)], "sweep over divisors of 30; global minimum 8/45"),
}


def small_norm_catalog(n: int, threshold: Fraction) -> Catalog:
    """Catalog of the small-norm lists of length n at a lemma cutoff.

    It keeps the lists of norm < threshold at lengths 3 and 4 and of norm
    <= threshold at lengths 5 to 8, at lengths 4 and 6 only non-pairable
    (type B) ones.  Length 3 takes thresholds below 1/6 that need a scan
    bound of at most 1000; lengths 4 to 8 take thresholds up to the one
    their catalog is complete to: 11/60, 31/168, 7/36, 5/24 and 8/45.
    Any other input raises ValueError before a sweep starts.
    """
    threshold = Fraction(threshold)
    if n not in _SMALL_NORM:
        raise ValueError("small-norm catalogs cover lengths 3..8")
    cutoff, shapes, note = _SMALL_NORM[n]
    if cutoff is not None and threshold > cutoff:
        raise ValueError(f"the length-{n} catalog is complete only up to {cutoff}")

    def keep(a: SignedList) -> bool:  # classify_type first: norm runs only on type B
        return (n not in (4, 6) or classify_type(a) == "B") and (norm(a) < threshold if n <= 4 else norm(a) <= threshold)

    found = _dedup(a for groups in shapes(threshold) for a in _confirm(_Sweep(groups, float(threshold)), keep))
    return _catalog(f"small_norm_length{n}", found, note)


# ---------------------------------------------------------------------------
# verification and probes


@dataclass(frozen=True)
class VerifyReport:
    name: str
    checked: int
    failures: tuple[str, ...]
    golden_diff: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.golden_diff


def verify_catalog(c: Catalog, golden: Catalog | None = None) -> VerifyReport:
    """Recompute every entry's norm two ways, run the integrality checks
    where applicable, and diff against a golden catalog if given."""
    failures = []
    for e in c.entries:
        if norm(e.list) != e.norm:
            failures.append(f"{e.list}: stored norm {e.norm} != {norm(e.list)}")
            continue
        if norm_by_integration(e.list) != e.norm:
            failures.append(f"{e.list}: integration norm disagrees")
        if e.list.total == 0 and e.list.length % 2 == 1 and e.norm == QUARTER:
            spec = norm_quarter_check(e.list)
            if spec is None or not is_integral(spec):
                failures.append(f"{e.list}: norm-1/4 list fails the integrality check")
    diff = []
    if golden is not None:
        ours, theirs = c.keys(), golden.keys()
        diff = [f"extra: {list(k)}" for k in sorted(ours - theirs)]
        diff += [f"missing: {list(k)}" for k in sorted(theirs - ours)]
    return VerifyReport(name=c.name, checked=len(c.entries), failures=tuple(failures), golden_diff=tuple(diff))


def d2_family_probe(a_range=range(1, 6), b_range=range(1, 6)) -> dict:
    """Re-verify the two displayed D=2 families on a coprime (a, b) grid."""
    results = {"checked": 0, "integral": 0, "cases": []}
    for a, b in product(a_range, b_range):
        if a + b == 0 or gcd(a, b) != 1:
            continue
        for shape in (
            [-a, 2 * a, -4 * a, -b, 2 * b, -4 * b, 6 * (a + b), -3 * (a + b)],
            [3 * a, 3 * b, -a, -b, -(a + b), -(a + b)],
        ):
            lst = make_list(shape)
            if lst.length != len(shape) or lst.total != 0:
                continue
            spec = RatioSpec.from_list(lst)
            ok = spec.D == 2 and is_integral(spec)
            results["checked"] += 1
            results["integral"] += ok
            results["cases"].append({"a": a, "b": b, "list": list(lst.elements), "integral": ok})
    return results


# ---------------------------------------------------------------------------
# golden catalogs

GOLDEN_NAMES = (
    "sporadic_length5",
    "sporadic_length7",
    "sporadic_length9",
    "small_norm_length4",
    "small_norm_length6",
)


def catalog_dir() -> str:
    return os.environ.get("RATIO_LAB_CATALOG_DIR") or os.path.join(os.path.dirname(__file__), "catalogs")


def load_golden(name: str) -> Catalog:
    """The catalog `name` from catalog_dir().  A file that is not JSON,
    misses a key, holds one of the wrong type or stores a wrong norm
    raises ValueError naming the file."""
    path = os.path.join(catalog_dir(), f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        try:
            return Catalog.from_json(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed catalog file {path}: {exc!r}") from exc
