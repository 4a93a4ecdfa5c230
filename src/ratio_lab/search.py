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

Every sweep but the sum-zero enumeration is data (`_Sweep`) run by one
engine: parameter groups (a support, how many parameters are drawn from
it, the multiples m*v a parameter v contributes), an optional last
element solved from the zero sum, a float test (== target or <= bound)
and an exact `keep` predicate.  `_scan` loops in Python over the leading
parameters and evaluates the float norm of the trailing ones in numpy
blocks from per-group-pair cross-term tables; `--jobs` shards that loop.
`_live_rows` drops degenerate and non-primitive rows, `_confirm` decides
the rest exactly, and `_dedup` identifies lists up to permutation and
global sign flip.  The float test only prunes: every sweep checks that
the error bound of `_prefilter_error` is below FLOAT_TOL.

The sum-zero enumeration for lengths 5 and 7 (`_sum_zero_vectorised`)
stays in int64 arrays until its final lists.  Of each multiset and its
negation it keeps one row, the one whose numerically sorted tuple is
lexicographically smaller, which is the list that sorting the candidate
tuples and keeping the first per canonical_pair_key would pick; the rows
are then put in canonical order and sorted by that key in numpy, and
each becomes a SignedList directly.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, islice, product
from math import comb, gcd, prod
from multiprocessing import Pool

import numpy as np

from ratio_lab.arith import divisors
from ratio_lab.integrality import RatioSpec, family_membership, is_integral, norm_quarter_check
from ratio_lab.lists import SignedList, classify_type, concat, make_list, norm, norm_by_integration, scale
from ratio_lab.separation import PRESET_MODULI

__all__ = [
    "SearchSpec",
    "Catalog",
    "CatalogEntry",
    "enumerate_lists",
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
QUARTER_TEST = ("eq", 0.25)
# float prefilter tolerance; _sweep proves on every sweep that it exceeds
# the float error (_prefilter_error)
FLOAT_TOL = 5e-13
# the flattened tail of a sweep holds at most TAIL_ROWS index combinations
# and is evaluated CHUNK rows per numpy call, which bounds the temporaries
TAIL_ROWS = 1 << 17
CHUNK = 1 << 13


def _signed_divisors(m: int) -> tuple[int, ...]:
    """Divisors of m of both signs, by ascending |v|, negative first."""
    return tuple(v for d in divisors(m) for v in (-d, d))


def _box(bound: int) -> tuple[int, ...]:
    """The nonzero integers in [-bound, bound], in the same order."""
    return tuple(v for d in range(1, bound + 1) for v in (-d, d))


def canonical_pair_key(a: SignedList) -> tuple[int, ...]:
    """Dedup key: canonical element tuple, minimised over global sign flip."""
    return min(a.elements, a.negate().elements)


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
    """A sweep as data.  A row holds its parameters' elements in group
    order, then, if `solved` is set, minus their sum, which must be
    nonzero (True) or one of the values in `solved`.  `test` is the float
    prefilter: ("eq", target), ("le", bound) or None."""

    groups: tuple[_Group, ...]
    test: tuple[str, float] | None = None
    solved: bool | tuple[int, ...] = False

    @property
    def length(self) -> int:
        return sum(g.count * len(g.mults) for g in self.groups) + (self.solved is not False)


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


def _combos(n: int, k: int) -> np.ndarray:
    """The non-decreasing k-tuples of indices below n, in lexical order."""
    flat = chain.from_iterable(combinations_with_replacement(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=comb(n + k - 1, k) * k).reshape(-1, k)


def _cross(x: _Group, y: _Group) -> np.ndarray:
    """T[i, j]: the cross terms between parameters x.values[i], y.values[j]."""
    xv, yv = np.array(x.values)[:, None], np.array(y.values)[None, :]
    out = np.zeros((len(x.values), len(y.values)))
    for m, mm in product(x.mults, y.mults):
        g = np.gcd(m * xv, mm * yv).astype(np.float64)
        out += g * g / ((m * xv).astype(np.float64) * (mm * yv))
    return out


def _member_table(values) -> tuple[int, np.ndarray]:
    """(m, table) with table[x % m] == x exactly for x in `values`; an
    empty slot r holds r + 1, which is not congruent to r."""
    m = max(2, 2 * len(values))
    while len({v % m for v in values}) < len(values):
        m += 1
    table = np.arange(1, m + 1)
    table[np.array(values) % m] = values
    return m, table


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


def _scan(args) -> list[tuple[int, ...]]:
    """Float-prefilter one share of a sweep, every `parts`-th head from
    `part` on, and return the surviving live rows as element tuples."""
    sweep, part, parts = args
    groups, solved = sweep.groups, sweep.solved
    owner = [gi for gi, g in enumerate(groups) for _ in range(g.count)]  # group of each parameter
    # the Python loop takes the fewest leading parameters that leave at most
    # TAIL_ROWS tail rows, unless that makes more heads; then the most that do not
    cut = min(c for c in range(len(owner) + 1) if _n_combos(groups, owner[c:]) <= TAIL_ROWS)
    if _n_combos(groups, owner[:cut]) > TAIL_ROWS:
        cut = max(c for c in range(len(owner) + 1) if _n_combos(groups, owner[:c]) <= TAIL_ROWS)
    head, tail = owner[:cut], owner[cut:]
    # the tail's index columns: the product of its groups' combinations,
    # first group major, so the rows are sorted by their first index
    tail_idx, rows = [], 1
    for gi, k in Counter(tail).items():
        c = _combos(len(groups[gi].values), k)
        new = c if rows == 1 else np.tile(c, (rows, 1))
        tail_idx = [np.repeat(i, len(c)) for i in tail_idx] + list(new.T)
        rows *= len(c)
    vals = [np.array(g.values) for g in groups]
    tables = {pair: _cross(groups[pair[0]], groups[pair[1]]) for pair in set(combinations(owner, 2))}
    tail_sum = np.zeros(rows, dtype=np.int64)
    for gi, i in zip(tail, tail_idx):
        tail_sum += sum(groups[gi].mults) * vals[gi][i]
    tail_inner = np.zeros(rows)
    for q, r in combinations(range(len(tail)), 2):
        tail_inner += tables[tail[q], tail[r]][tail_idx[q], tail_idx[r]]
    const = sweep.length / 2
    const += sum(gcd(m, mm) ** 2 / (m * mm) for gi in owner for m, mm in combinations(groups[gi].mults, 2))
    member = _member_table(solved) if isinstance(solved, tuple) else None
    # a free solved element e takes gcd(x, e) with every other element x;
    # when each x divides the largest, top, and the sweep has at least top
    # rows, those come from tables indexed by e % top (_gcd_tables)
    elements = [m * v for g in groups for m in g.mults for v in g.values]
    top = max(map(abs, elements))
    gcds = None
    if solved is True and _n_combos(groups, owner) >= top and all(top % x == 0 for x in elements):
        gcds = _gcd_tables(groups, top)
    op, target = sweep.test or ("le", np.inf)
    segments = [combinations_with_replacement(range(len(vals[g])), k) for g, k in Counter(head).items()]
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for h in islice(product(*segments), part, None, parts):
            hi = sum(h, ())
            hv = [groups[gi].values[i] for gi, i in zip(head, hi)]
            hsum = sum(sum(groups[gi].mults) * v for gi, v in zip(head, hv))
            base = const + sum(tables[head[p], head[r]][hi[p], hi[r]] for p, r in combinations(range(cut), 2))
            against = [(tables[gp, gq][i], q) for gp, i in zip(head, hi) for q, gq in enumerate(tail)]
            start = int(np.searchsorted(tail_idx[0], hi[-1])) if head and tail and head[-1] == tail[0] else 0
            for lo in range(start, rows, CHUNK):
                ci = [i[lo : lo + CHUNK] for i in tail_idx]
                total = base + tail_inner[lo : lo + CHUNK]
                if solved is not False:
                    e = -(hsum + tail_sum[lo : lo + CHUNK])
                    if member is not None:
                        sel = np.nonzero(member[1][e % member[0]] == e)[0]
                        if not len(sel):
                            continue
                        ci, total, e = [i[sel] for i in ci], total[sel], e[sel]
                for row, q in against:
                    total += row[ci[q]]
                tv = [vals[gi][i] for gi, i in zip(tail, ci)]
                cols = [m * v for gi, v in zip(head, hv) for m in groups[gi].mults]
                cols += [v if m == 1 else m * v for gi, v in zip(tail, tv) for m in groups[gi].mults]
                if solved is not False:
                    against_e = 0.0
                    if gcds is None:
                        for x in cols:
                            g = np.gcd(x, e).astype(np.float64)
                            against_e = against_e + g * g / x
                    else:
                        slot, tabs = gcds
                        k = slot[e % top]
                        for gi, i in chain(zip(head, hi), zip(tail, ci)):
                            for m in groups[gi].mults:
                                against_e = against_e + tabs[gi, m][i, k]
                    total += against_e / e
                    cols.append(e)
                nrm = total / 6
                hit = np.abs(nrm - target) < FLOAT_TOL if op == "eq" else nrm <= target + FLOAT_TOL
                if hit.any():
                    found = np.column_stack([np.broadcast_to(x, hit.shape)[hit] for x in cols])
                    out.extend(map(tuple, found[_live_rows(found)].tolist()))
    return out


def _sweep(sweep: _Sweep, keep, jobs: int = 1) -> list[SignedList]:
    """Float-prefilter every row of a sweep, sharding the head loop over
    `jobs` processes, and confirm the survivors exactly.  First prove the
    float test sound: elements exact in float64 (the solved one is at most
    `length` times the largest), and the error bound plus the roundings of
    the target t and of t + FLOAT_TOL, 2u(1 + |t|), below FLOAT_TOL."""
    length = sweep.length
    biggest = max((abs(m * v) for g in sweep.groups for m in g.mults for v in g.values), default=0)
    bound = _prefilter_error(length) + 2.0**-52 * (1 + abs(sweep.test[1] if sweep.test else 0))
    if length * biggest >= 2**53 or not bound < FLOAT_TOL:
        raise ArithmeticError(f"float prefilter bound {bound:.2e} is not below FLOAT_TOL {FLOAT_TOL:.2e}")
    if jobs <= 1:
        rows = _scan((sweep, 0, 1))
    else:
        with Pool(jobs) as pool:
            rows = [r for share in pool.map(_scan, [(sweep, s, jobs) for s in range(jobs)]) for r in share]
    return _confirm(rows, keep)


def _confirm(rows, keep) -> list[SignedList]:
    """The exact step: build each distinct candidate once, in sorted order,
    and keep the lists passing `keep` (engine rows have passed _live_rows)."""
    return [a for a in map(make_list, sorted(set(rows))) if keep(a)]


def _is_quarter(a: SignedList) -> bool:
    return norm(a) == QUARTER


# ---------------------------------------------------------------------------
# length 5


def family_search_5(a_bound: int = 108, b_bound: int = 72) -> list[SignedList]:
    """Scan [a, -2a, b, -3b, a+2b] over coprime (a, b) in the box.

    The derived bound |ab| <= 36, |bc| <= 36 or |ac| <= 72 confines any
    norm-1/4 member of this family to |a| <= 108, |b| <= 72.
    """
    sweep = _Sweep((_Group(_box(a_bound), 1, (1, -2)), _Group(_box(b_bound), 1, (1, -3))), QUARTER_TEST, True)
    return _dedup(_sweep(sweep, lambda a: _is_quarter(a) and family_membership(a) == "sporadic"))


def divisor_sweep_5(modulus: int | None = None, jobs: int = 1) -> list[SignedList]:
    """All norm-1/4 length-5 lists with four elements dividing the modulus.

    The fifth element is forced by the zero-sum condition and need not
    divide the modulus.  ~10^8 raw multisets; float prefilter + exact
    confirmation.
    """
    if modulus is None:
        modulus = PRESET_MODULI["length5_sum0_four_elements"]
    sweep = _Sweep((_Group(_signed_divisors(modulus), 4),), QUARTER_TEST, True)
    return _dedup(_sweep(sweep, _is_quarter, jobs))


# ---------------------------------------------------------------------------
# generic sum-zero sweep over a divisor support (lengths 3, 5, 7)


def sum_zero_divisor_lists(modulus: int, length: int) -> list[SignedList]:
    """Every primitive non-degenerate sum-zero list of the given length
    with all elements dividing the modulus, deduplicated up to
    permutation and global sign flip, in canonical_pair_key order."""
    if length < 2 or length > 7:
        raise ValueError("supported lengths: 2..7")
    vals = _signed_divisors(modulus)
    if length <= 4:
        pos = {v: idx for idx, v in enumerate(vals)}
        raw = set()
        for combo in combinations_with_replacement(range(len(vals)), length - 1):
            last = -sum(vals[i] for i in combo)
            j = pos.get(last)
            if j is not None and j >= combo[-1]:
                raw.add(tuple(vals[i] for i in combo) + (last,))
        return _dedup(_confirm(raw, lambda a: a.length == length and a.is_primitive()))
    rows = _sum_zero_vectorised(vals, length)
    if rows.shape[1] != length:
        return []  # length 6: the kernel builds 7-element rows only
    # each row and its negation in SignedList order, ascending |v| and
    # negative first; the smaller of the two is the canonical_pair_key
    els, neg = _canonical_order(rows), _canonical_order(-rows)
    keys = np.where(_lex_less(els, neg)[:, None], els, neg)
    return [SignedList(t) for t in els[np.lexsort(keys.T[::-1])].tolist()]


def _canonical_order(rows: np.ndarray) -> np.ndarray:
    """Each row sorted as make_list sorts: ascending |v|, negative first."""
    return np.take_along_axis(rows, np.argsort(2 * np.abs(rows) + (rows > 0), axis=1), axis=1)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows of a that are lexicographically smaller than the
    same rows of b."""
    first = (a != b).argmax(axis=1)[:, None]
    return np.take_along_axis(a, first, axis=1)[:, 0] < np.take_along_axis(b, first, axis=1)[:, 0]


def _sum_zero_vectorised(vals, length) -> np.ndarray:
    """Sum-zero rows over the support `vals` for lengths 5 and 7.

    A row is a head (one support index for length 5, three otherwise),
    a tail of three indices from the head's last on, and a last element
    solved from the zero sum, kept if it lies in the support at an index
    no smaller than the tail's last, so each multiset is reached once.
    Heads that share a last index share their tail slice and run as one
    2-D block of about CHUNK cells.

    Returns one row per +- pair of primitive non-degenerate multisets,
    sorted numerically: a row is kept only if it is lexicographically
    smaller than its negation -row[::-1], which the symmetric support
    also reaches.  This is the member of the pair that comes first in
    sorted order.
    """
    n = len(vals)
    maxabs = abs(vals[-1])
    v = np.array(vals, dtype=np.int64)
    tails = _combos(n, 3)
    tsums = v[tails].sum(axis=1)
    offsets = np.searchsorted(tails[:, 0], np.arange(n))
    # support index over the reachable range of the solved element, -1 off it
    span = length * maxabs
    index = np.full(2 * span + 1, -1, dtype=np.min_scalar_type(-n))
    index[v + span] = np.arange(n)
    heads = np.arange(n)[:, None] if length == 5 else tails
    hsums = v[heads].sum(axis=1)
    last = heads[:, -1]
    # skip heads whose every tail leaves a solved element beyond maxabs
    suf_min = np.minimum.accumulate(tsums[::-1])[::-1][offsets[last]]
    suf_max = np.maximum.accumulate(tsums[::-1])[::-1][offsets[last]]
    live = (hsums + suf_min <= maxabs) & (hsums + suf_max >= -maxabs)
    out = [np.empty((0, heads.shape[1] + 4), dtype=np.int64)]
    for c in range(n):
        hs = np.nonzero(live & (last == c))[0]
        o = offsets[c]
        shifted, t3 = span - tsums[o:], tails[o:, 2]
        step = max(1, CHUNK // len(t3))
        hit_h, hit_t = [], []
        for b in range(0, len(hs), step):
            block = hs[b : b + step]
            h, t = np.nonzero(index[shifted - hsums[block, None]] >= t3)
            hit_h.append(block[h])
            hit_t.append(t + o)
        if not hit_h:
            continue
        hh, tt = np.concatenate(hit_h), np.concatenate(hit_t)
        rows = np.concatenate([v[heads[hh]], v[tails[tt]], -(hsums[hh] + tsums[tt])[:, None]], axis=1)
        rows = np.sort(rows[_live_rows(rows)], axis=1)
        out.append(rows[_lex_less(rows, -rows[:, ::-1])])
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# length 7


def _type_a_sweep_7(jobs: int = 1) -> list[SignedList]:
    """Pairable [a,-2a,b,-2b,c,-2c,d=a+b+c] with elements dividing
    2^6*3^2*5^2*7^2 (the at-most-7-separated sum-zero support)."""
    M = PRESET_MODULI["type_a_sum0_length7"]
    sweep = _Sweep((_Group(_signed_divisors(M // 2), 3, (1, -2)),), QUARTER_TEST, _signed_divisors(M))
    return _dedup(_sweep(sweep, _is_quarter, jobs))


def _type_a3_sweep_7(jobs: int = 1) -> list[SignedList]:
    """[a,-2a,b,-2b,c,-3c,d=a+b+2c] with elements dividing 2^12*3^6*5^6
    (the plain at-most-5-separated support; sound but not sharp)."""
    M = 2**12 * 3**6 * 5**6
    groups = (_Group(_signed_divisors(M // 2), 2, (1, -2)), _Group(_signed_divisors(M // 3), 1, (1, -3)))
    return _dedup(_sweep(_Sweep(groups, QUARTER_TEST, _signed_divisors(M)), _is_quarter, jobs))


def _type_b_sweep_7() -> list[SignedList]:
    """Sum-zero sweep over divisors of 2^10*3^5 (the at-most-4-separated
    support for non-pairable lists), keeping norm-1/4 results."""
    M = PRESET_MODULI["type_b_length7_at_most_4_separated"]
    return list(filter(_is_quarter, sum_zero_divisor_lists(M, 7)))


# ---------------------------------------------------------------------------
# length 9


def _type_a_sweep_9(jobs: int = 1) -> list[SignedList]:
    """Pairable [a,-2a,...,d,-2d,e=a+b+c+d] with elements dividing
    2^16*3^8 (the plain at-most-4-separated support for length 9)."""
    M = 2**16 * 3**8
    sweep = _Sweep((_Group(_signed_divisors(M // 2), 4, (1, -2)),), QUARTER_TEST, _signed_divisors(M))
    return _dedup(_sweep(sweep, _is_quarter, jobs))


def _combine_sweep_9() -> list[SignedList]:
    """Recombine B*[1,-2,-3,6] with C*c for small-norm length-5 lists c.

    For a sum-zero odd-length product the coefficients are forced (up to
    a global sign) by B*s(b) + C*s(c) = 0, so each candidate pair yields
    at most one list to test.
    """
    b = make_list([1, -2, -3, 6])
    s_b = b.total
    out = []
    c_entries = [e.list for e in small_norm_catalog(5, Fraction(13, 72)).entries]
    for c in c_entries:
        for cc in (c, c.negate()):
            s_c = cc.total
            if s_c == 0:
                continue
            g = gcd(s_b, s_c)
            B, C = -s_c // g, s_b // g
            cand = concat(scale(b, B), scale(cc, C))
            if cand.length == 9 and cand.total == 0 and cand.is_primitive() and norm(cand) == QUARTER:
                out.append(cand)
    return _dedup(out)


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
        found = _type_a_sweep_7(jobs) + _type_a3_sweep_7(jobs) + _type_b_sweep_7()
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


def _below(threshold: Fraction, shapes, keep) -> list[SignedList]:
    """The lists passing `keep` in the sweeps over each groups tuple in
    `shapes`, with the float test <= threshold, deduplicated."""
    test = ("le", float(threshold))
    return _dedup(a for groups in shapes for a in _sweep(_Sweep(groups, test), keep))


def _small_norm_3(threshold: Fraction) -> list[SignedList]:
    """Length-3 lists with norm < threshold; finite only below 1/6.

    Any length-3 list with norm < 43/216 is of the form [a, -ka, b] with
    2 <= k <= 5 and gcd(a, b) = 1, and within each family the norm tends
    to a limit >= 1/6, so a sub-1/6 threshold gives a finite scan range.
    """
    if threshold > Fraction(43, 216):
        raise ValueError("length-3 catalogs only exist below 43/216")
    if threshold >= Fraction(1, 6):
        raise ValueError("infinitely many length-3 lists below thresholds >= 1/6")
    bound = 1 + int(1 / (6 * (Fraction(1, 6) - threshold)))
    shapes = [(_Group(_box(bound), 1, (1, -k)), _Group(_box(k * bound), 1)) for k in (2, 3, 4, 5)]
    return _below(threshold, shapes, lambda a: norm(a) < threshold)


def _small_norm_4(threshold: Fraction) -> list[SignedList]:
    """Non-pairable length-4 lists with norm < threshold (max 11/60).

    Union of the sweep over divisors of 4^3*3^3 = 1728 (covers the
    at-most-4-separated case) and the [a,-3a,b,-3b] family, which
    contributes [1,-3,-5,15] at 8/45.
    """
    if threshold > Fraction(11, 60):
        raise ValueError("the length-4 catalog is complete only up to 11/60")
    family = (_Group(tuple(range(1, 41)), 1, (1, -3)), _Group(_box(40), 1, (1, -3)))
    shapes = [(_Group(_signed_divisors(1728), 4),), family]
    return _below(threshold, shapes, lambda a: classify_type(a) == "B" and norm(a) < threshold)


def _small_norm_5(threshold: Fraction) -> list[SignedList]:
    """Pairable length-5 lists [a,-2a,b,-2b,c] with norm <= threshold
    (max 31/168), swept over the at-most-7-separated support."""
    if threshold > Fraction(31, 168):
        raise ValueError("the pairable length-5 catalog is complete only up to 31/168")
    M = PRESET_MODULI["type_a_sum0_length7"]
    groups = (_Group(_signed_divisors(M // 2), 2, (1, -2)), _Group(_signed_divisors(M), 1))
    return _below(threshold, [groups], lambda a: norm(a) <= threshold)


def _small_norm_6(threshold: Fraction) -> list[SignedList]:
    """Non-pairable length-6 lists with norm <= threshold (max 7/36):
    a sweep over divisors of 2^5*3^4 (the 3-separated case) plus the two
    structured families from the 4-or-more-separated cases."""
    if threshold > Fraction(7, 36):
        raise ValueError("the non-pairable length-6 catalog is complete only up to 7/36")
    box = _box(100)
    shapes = [
        (_Group(_signed_divisors(2**5 * 3**4), 6),),
        (_Group(box, 1, (1, -2, -3, 6)), _Group(box, 1, (1, -3))),
        (_Group(box, 2, (1, -2, 4)),),
    ]
    return _below(threshold, shapes, lambda a: classify_type(a) == "B" and norm(a) <= threshold)


def _small_norm_7(threshold: Fraction) -> list[SignedList]:
    """Length-7 minima: pairable lists over the at-most-4-separated
    support 2^9*3^3 with norm <= threshold (the global minimum 5/24 is
    attained here; all other cases exceed it)."""
    M = 2**9 * 3**3
    groups = (_Group(_signed_divisors(M // 2), 3, (1, -2)), _Group(_signed_divisors(M), 1))
    return _below(threshold, [groups], lambda a: norm(a) <= threshold)


def _small_norm_8(threshold: Fraction) -> list[SignedList]:
    """Length-8 lists over divisors of 30 with norm <= threshold; the
    global minimum 8/45 is attained on this support."""
    return _below(threshold, [(_Group(_signed_divisors(30), 8),)], lambda a: norm(a) <= threshold)


def small_norm_catalog(n: int, threshold: Fraction) -> Catalog:
    """Catalog of small-norm lists of length n at a lemma cutoff."""
    threshold = Fraction(threshold)
    builders = {
        3: (_small_norm_3, "forms [a,-ka,b], 2<=k<=5"),
        4: (_small_norm_4, "non-pairable, sweep over divisors of 1728 plus [a,-3a,b,-3b]"),
        5: (_small_norm_5, "pairable [a,-2a,b,-2b,c] over divisors of 2^6*3^2*5^2*7^2"),
        6: (_small_norm_6, "non-pairable, sweep over divisors of 2^5*3^4 plus two families"),
        7: (_small_norm_7, "pairable over divisors of 2^9*3^3; global minimum 5/24"),
        8: (_small_norm_8, "sweep over divisors of 30; global minimum 8/45"),
    }
    if n not in builders:
        raise ValueError("small-norm catalogs cover lengths 3..8")
    fn, note = builders[n]
    return _catalog(f"small_norm_length{n}", fn(threshold), note)


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
        for k in sorted(ours - theirs):
            diff.append(f"extra: {list(k)}")
        for k in sorted(theirs - ours):
            diff.append(f"missing: {list(k)}")
    return VerifyReport(name=c.name, checked=len(c.entries), failures=tuple(failures), golden_diff=tuple(diff))


def d2_family_probe(a_range=range(1, 6), b_range=range(1, 6)) -> dict:
    """Re-verify the two displayed D=2 families on a coprime (a, b) grid."""
    results = {"checked": 0, "integral": 0, "cases": []}
    for a in a_range:
        for b in b_range:
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
# generic enumeration (small search specs)


@dataclass(frozen=True)
class SearchSpec:
    length: int
    constraint: str = "none"  # "none" | "sum_zero"
    support_modulus: int | None = None
    box: int | None = None
    norm_threshold: Fraction | None = None
    strict: bool = True
    type_filter: str | None = None  # "A" (pairable) / "B" or None
    norm_equals: Fraction | None = None

    def __post_init__(self):
        if self.support_modulus is None and self.box is None:
            raise ValueError("need a support modulus or a box bound for finiteness")
        if self.constraint not in ("none", "sum_zero"):
            raise ValueError("constraint must be 'none' or 'sum_zero'")


def enumerate_lists(spec: SearchSpec):
    """Yield (list, norm) for every primitive non-degenerate list meeting
    the spec, once per canonical form, in canonical order (ascending
    |value|, negative first, element by element)."""
    vals = _box(spec.box) if spec.support_modulus is None else _signed_divisors(spec.support_modulus)
    if spec.box is not None:
        vals = tuple(v for v in vals if abs(v) <= spec.box)
    # with the sum-zero constraint the last element is solved, in the support
    count, solved = (spec.length - 1, vals) if spec.constraint == "sum_zero" else (spec.length, False)
    test = None
    if spec.norm_equals is not None:
        test = ("eq", float(spec.norm_equals))
    elif spec.norm_threshold is not None:
        test = ("le", float(spec.norm_threshold))

    def keep(a: SignedList) -> bool:
        if spec.type_filter is not None and classify_type(a) != spec.type_filter:
            return False
        nv = norm(a)
        if spec.norm_equals is not None and nv != spec.norm_equals:
            return False
        if spec.norm_threshold is not None:
            return nv < spec.norm_threshold if spec.strict else nv <= spec.norm_threshold
        return True

    found = {a.elements: a for a in _sweep(_Sweep((_Group(vals, count),), test, solved), keep)}
    for elements in sorted(found, key=lambda els: [(abs(v), v > 0) for v in els]):
        yield found[elements], norm(found[elements])


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
    override = os.environ.get("RATIO_LAB_CATALOG_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "catalogs")


def load_golden(name: str) -> Catalog:
    path = os.path.join(catalog_dir(), f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return Catalog.from_json(json.load(fh))
