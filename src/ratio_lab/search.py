"""Exhaustive and family searches behind the classification results.

The classification of integral factorial ratios with D = 1 boils down to
finding all primitive sum-zero lists of odd length 5, 7, 9 with norm
exactly 1/4.  Infinite families aside, there are 52 sporadic lists:
29 of length 5, 21 of length 7 and 2 of length 9.  The searches here
reproduce them: a two-parameter family scan for length 5 plus a sweep
over quadruples of divisors of 2^6*3^3*5^3 with a forced fifth element;
two shape-pattern sweeps for length 7 (pairable lists with elements
dividing 2^6*3^2*5^2*7^2, and the (c,-3c) variant) plus a sum-zero
sweep over divisors of 2^10*3^5 for the non-pairable case; and for
length 9 a pairable sum-zero sweep plus a recombination of [1,-2,-3,6]
with the small-norm length-5 catalogue.

Raw search spaces reach ~10^8 multisets, so the hot loops vectorise a
float-norm prefilter with numpy and drop degenerate and non-primitive
candidates before building any list; survivors are then confirmed in
exact arithmetic.  The prefilter is sound as long as each kernel's float
error stays below FLOAT_TOL, so that a true hit cannot be rejected;
it does not need to separate 1/4 from every other norm, because false
positives are re-checked exactly.  Deduplication is up to permutation
and global sign flip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from multiprocessing import Pool

import numpy as np

from ratio_lab.integrality import family_membership, norm_quarter_check, is_integral
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
# float prefilter tolerance.  Soundness rests on the float error of each
# kernel: a true hit must land within FLOAT_TOL of its target, and the
# kernels sum at most a few dozen terms of size <= 1, so their error is a
# few 1e-15.  FLOAT_TOL does not separate 1/4 from every other norm: in
# divisor_sweep_5 the solved fifth element reaches 864000, so norm
# denominators reach about 2.2e12 and the guaranteed distance of another
# norm from 1/4 falls to about 4.5e-13.  Such false positives are
# rejected by the exact check.
FLOAT_TOL = 5e-13


def _signed_divisors(m: int) -> list[int]:
    divs = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            divs.update((d, m // d))
        d += 1
    return sorted([d for d in divs] + [-d for d in divs], key=lambda v: (abs(v), v > 0))


def canonical_pair_key(a: SignedList) -> tuple[int, ...]:
    """Dedup key: canonical element tuple, minimised over global sign flip."""
    return min(a.elements, a.negate().elements)


def _dedup(lists) -> list[SignedList]:
    seen = {}
    for a in lists:
        seen.setdefault(canonical_pair_key(a), a)
    return [seen[k] for k in sorted(seen)]


def _live_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of candidate rows that are primitive and hold no (x, -x) pair.

    make_list would cancel such a pair (so the list comes out shorter) and
    the primitivity check would drop the rest; masking them here saves
    building those lists.  Columns are compared pairwise, so memory stays
    linear in the number of rows.
    """
    keep = np.gcd.reduce(rows, axis=1) == 1
    width = rows.shape[1]
    for i in range(width):
        for j in range(i + 1, width):
            keep &= rows[:, i] != -rows[:, j]
    return keep


def _float_cross(x: int, y: int) -> float:
    g = gcd(x, y)
    return g * g / (x * y)


def _float_norm(elements) -> float:
    total = len(elements) / 12.0
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            total += _float_cross(x, y) / 6.0
    return total


def _tmatrix(vals: list[int]) -> np.ndarray:
    """T[x, y] = gcd(x,y)^2/(x*y) as float64 (the off-diagonal norm term)."""
    v = np.array(vals, dtype=np.int64)
    g = np.gcd(v[:, None], v[None, :]).astype(np.float64)
    vf = v.astype(np.float64)
    return g * g / (vf[:, None] * vf[None, :])


def _pair_arrays(vals: list[int]):
    """Flattened (k, l) combinations with k <= l, grouped by k."""
    n = len(vals)
    ks, ls, sums = [], [], []
    offsets = [0] * (n + 1)
    for k in range(n):
        offsets[k] = len(ks)
        for l in range(k, n):
            ks.append(k)
            ls.append(l)
            sums.append(vals[k] + vals[l])
    offsets[n] = len(ks)
    return (
        np.array(ks, dtype=np.int32),
        np.array(ls, dtype=np.int32),
        np.array(sums, dtype=np.int64),
        offsets,
    )


def _triple_arrays(vals: list[int], tmat: np.ndarray | None):
    """Flattened (i, j, k) combinations with i <= j <= k, grouped by i.

    Returns index arrays, element sums, the internal float cross-term sum,
    and per-first-index offsets, plus suffix min/max of the sums for
    feasibility pruning.
    """
    n = len(vals)
    i1, i2, i3, sums = [], [], [], []
    offsets = [0] * (n + 1)
    for a in range(n):
        offsets[a] = len(i1)
        for b in range(a, n):
            vab = vals[a] + vals[b]
            for c in range(b, n):
                i1.append(a)
                i2.append(b)
                i3.append(c)
                sums.append(vab + vals[c])
    offsets[n] = len(i1)
    i1 = np.array(i1, dtype=np.int32)
    i2 = np.array(i2, dtype=np.int32)
    i3 = np.array(i3, dtype=np.int32)
    sums = np.array(sums, dtype=np.int64)
    internal = None
    if tmat is not None:
        internal = tmat[i1, i2] + tmat[i1, i3] + tmat[i2, i3]
    return i1, i2, i3, sums, internal, offsets


# ---------------------------------------------------------------------------
# length 5


def family_search_5(a_bound: int = 108, b_bound: int = 72) -> list[SignedList]:
    """Scan [a, -2a, b, -3b, a+2b] over coprime (a, b) in the box.

    The derived bound |ab| <= 36, |bc| <= 36 or |ac| <= 72 confines any
    norm-1/4 member of this family to |a| <= 108, |b| <= 72.
    """
    out = []
    for a in range(-a_bound, a_bound + 1):
        if a == 0:
            continue
        for b in range(-b_bound, b_bound + 1):
            if b == 0 or gcd(a, b) != 1:
                continue
            c = a + 2 * b
            if c == 0:
                continue
            lst = make_list([a, -2 * a, b, -3 * b, c])
            if lst.length != 5 or lst.total != 0 or not lst.is_primitive():
                continue
            if norm(lst) == QUARTER and family_membership(lst) == "sporadic":
                out.append(lst)
    return _dedup(out)


def _sweep5_shard(args) -> list[tuple[int, ...]]:
    """One shard of the quadruple sweep: first-index range [lo, hi)."""
    modulus, lo, hi = args
    vals = _signed_divisors(modulus)
    n = len(vals)
    v = np.array(vals, dtype=np.int64)
    tmat = _tmatrix(vals)
    pk, pl, psum, offsets = _pair_arrays(vals)
    pT = tmat[pk, pl]
    pvk = v[pk].astype(np.float64)
    pvl = v[pl].astype(np.float64)
    pvk_i = v[pk]
    pvl_i = v[pl]
    base = 5.0 / 12.0
    cands = []
    for i in range(lo, hi):
        vi = vals[i]
        Ti = tmat[i]
        for j in range(i, n):
            vj = vals[j]
            o = offsets[j]
            e = -((vi + vj) + psum[o:])
            ef = e.astype(np.float64)
            cross = Ti[pk[o:]] + Ti[pl[o:]] + tmat[j][pk[o:]] + tmat[j][pl[o:]] + pT[o:]
            with np.errstate(divide="ignore", invalid="ignore"):
                gi = np.gcd(vi, e).astype(np.float64)
                gj = np.gcd(vj, e).astype(np.float64)
                gk = np.gcd(pvk_i[o:], e).astype(np.float64)
                gl = np.gcd(pvl_i[o:], e).astype(np.float64)
                ecross = (gi * gi / vi + gj * gj / vj + gk * gk / pvk[o:] + gl * gl / pvl[o:]) / ef
                nrm = base + (cross + tmat[i, j] + ecross) / 6.0
            hits = np.nonzero(np.abs(nrm - 0.25) < FLOAT_TOL)[0]
            if not len(hits):
                continue
            rows = np.empty((len(hits), 5), dtype=np.int64)
            rows[:, 0] = vi
            rows[:, 1] = vj
            rows[:, 2] = pvk_i[o + hits]
            rows[:, 3] = pvl_i[o + hits]
            rows[:, 4] = e[hits]
            rows = rows[(rows[:, 4] != 0) & _live_rows(rows)]
            cands.extend(map(tuple, rows.tolist()))
    return cands


def divisor_sweep_5(modulus: int | None = None, jobs: int = 1) -> list[SignedList]:
    """All norm-1/4 length-5 lists with four elements dividing the modulus.

    The fifth element is forced by the zero-sum condition and need not
    divide the modulus.  ~10^8 raw multisets; float prefilter + exact
    confirmation.
    """
    if modulus is None:
        modulus = PRESET_MODULI["length5_sum0_four_elements"]
    n = len(_signed_divisors(modulus))
    if jobs <= 1:
        cands = _sweep5_shard((modulus, 0, n))
    else:
        bounds = [round(i * n / jobs) for i in range(jobs + 1)]
        shards = [(modulus, bounds[t], bounds[t + 1]) for t in range(jobs)]
        with Pool(jobs) as pool:
            cands = [c for part in pool.map(_sweep5_shard, shards) for c in part]
    out = []
    for tup in sorted(set(cands)):
        a = make_list(tup)
        if a.length == 5 and a.total == 0 and a.is_primitive() and norm(a) == QUARTER:
            out.append(a)
    return _dedup(out)


# ---------------------------------------------------------------------------
# generic sum-zero sweep over a divisor support (lengths 3, 5, 7)


def sum_zero_divisor_lists(modulus: int, length: int) -> list[SignedList]:
    """Every primitive non-degenerate sum-zero list of the given length
    with all elements dividing the modulus, deduplicated up to
    permutation and global sign flip."""
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
    else:
        raw = _sum_zero_vectorised(vals, length)
    out = []
    for tup in sorted(raw):
        a = make_list(tup)
        if a.length == length and a.total == 0 and a.is_primitive():
            out.append(a)
    return _dedup(out)


def _sum_zero_vectorised(vals, length) -> list[tuple[int, ...]]:
    """Vectorised enumeration for lengths 5..7: the free elements are a
    head (python loop) plus a flattened tail block; the last element is
    solved from the zero-sum condition and looked up in the support.

    Each primitive non-degenerate multiset is returned once, as a
    numerically sorted tuple.
    """
    n = len(vals)
    maxabs = abs(vals[-1])
    v = np.array(vals, dtype=np.int64)
    t1, t2, t3, tsums, _, offsets = _triple_arrays(vals, None)
    # support index over the reachable range of the solved element, -1 off it
    span = (length - 1) * maxabs + maxabs
    index = np.full(2 * span + 1, -1, dtype=np.int64)
    index[v + span] = np.arange(n)
    raw = []

    def scan(head_vals: tuple[int, ...], s_head: int, start: int):
        o = offsets[start]
        if o == len(tsums):
            return
        solved = -(s_head + tsums[o:])
        # the solved element sits at or after the tail's last index, so
        # each multiset is reached by exactly one (head, tail) split
        hits = np.nonzero(index[solved + span] >= t3[o:])[0]
        if not len(hits):
            return
        rows = np.empty((len(hits), len(head_vals) + 4), dtype=np.int64)
        rows[:, : len(head_vals)] = head_vals
        rows[:, -4] = v[t1[o + hits]]
        rows[:, -3] = v[t2[o + hits]]
        rows[:, -2] = v[t3[o + hits]]
        rows[:, -1] = solved[hits]
        raw.extend(map(tuple, np.sort(rows[_live_rows(rows)], axis=1).tolist()))

    if length == 5:
        for i in range(n):
            scan((vals[i],), vals[i], i)
    else:
        # suffix extremes of tail sums for cheap infeasibility skips
        suf_min = np.minimum.accumulate(tsums[::-1])[::-1]
        suf_max = np.maximum.accumulate(tsums[::-1])[::-1]
        for idx in range(len(tsums)):
            a, b, c = int(t1[idx]), int(t2[idx]), int(t3[idx])
            s_head = int(tsums[idx])
            o = offsets[c]
            if o >= len(tsums):
                continue
            if s_head + int(suf_min[o]) > maxabs or s_head + int(suf_max[o]) < -maxabs:
                continue
            scan((vals[a], vals[b], vals[c]), s_head, c)
    return raw


# ---------------------------------------------------------------------------
# length 7


def _verify_quarter(candidates) -> list[SignedList]:
    out = []
    for tup in sorted(set(candidates)):
        a = make_list(tup)
        if a.length == len(tup) and a.total == 0 and a.is_primitive() and norm(a) == QUARTER:
            out.append(a)
    return _dedup(out)


def _type_a_sweep_7() -> list[SignedList]:
    """Pairable [a,-2a,b,-2b,c,-2c,d=a+b+c] with elements dividing
    2^6*3^2*5^2*7^2 (the at-most-7-separated sum-zero support)."""
    M = PRESET_MODULI["type_a_sum0_length7"]
    halves = _signed_divisors(M // 2)
    dset = set(_signed_divisors(M))
    n = len(halves)
    cands = []
    hv = np.array(halves, dtype=np.int64)
    span = 3 * max(abs(v) for v in halves)
    member = np.zeros(2 * span + 1, dtype=bool)
    for v in dset:
        if abs(v) <= span:
            member[v + span] = True
    for i in range(n):
        for j in range(i, n):
            s2 = halves[i] + halves[j]
            cvec = hv[j:]
            d = s2 + cvec
            hits = np.nonzero(member[d + span])[0]
            for p in hits:
                c = int(cvec[p])
                dval = s2 + c
                if dval == 0:
                    continue
                a, b = halves[i], halves[j]
                tup = (a, -2 * a, b, -2 * b, c, -2 * c, dval)
                if abs(_float_norm(tup) - 0.25) < FLOAT_TOL:
                    cands.append(tup)
    return _verify_quarter(cands)


def _type_a3_sweep_7() -> list[SignedList]:
    """[a,-2a,b,-2b,c,-3c,d=a+b+2c] with elements dividing 2^12*3^6*5^6
    (the plain at-most-5-separated support; sound but not sharp)."""
    M = 2**12 * 3**6 * 5**6
    ab_vals = _signed_divisors(M // 2)
    c_vals = _signed_divisors(M // 3)
    n = len(ab_vals)
    cv = np.array(c_vals, dtype=np.int64)
    cands = []
    for i in range(n):
        for j in range(i, n):
            s2 = ab_vals[i] + ab_vals[j]
            d = s2 + 2 * cv
            ad = np.abs(d)
            with np.errstate(divide="ignore", invalid="ignore"):
                ok = (d != 0) & (ad <= M) & (M % np.where(ad == 0, 1, ad) == 0)
            for p in np.nonzero(ok)[0]:
                a, b, c = ab_vals[i], ab_vals[j], int(cv[p])
                tup = (a, -2 * a, b, -2 * b, c, -3 * c, int(d[p]))
                if abs(_float_norm(tup) - 0.25) < FLOAT_TOL:
                    cands.append(tup)
    return _verify_quarter(cands)


def _type_b_sweep_7() -> list[SignedList]:
    """Sum-zero sweep over divisors of 2^10*3^5 (the at-most-4-separated
    support for non-pairable lists), keeping norm-1/4 results."""
    M = PRESET_MODULI["type_b_length7_at_most_4_separated"]
    lists = sum_zero_divisor_lists(M, 7)
    return [a for a in lists if norm(a) == QUARTER]


# ---------------------------------------------------------------------------
# length 9


def _type_a_sweep_9() -> list[SignedList]:
    """Pairable [a,-2a,...,d,-2d,e=a+b+c+d] with elements dividing
    2^16*3^8 (the plain at-most-4-separated support for length 9)."""
    M = 2**16 * 3**8
    halves = _signed_divisors(M // 2)
    n = len(halves)
    pk, pl, psum, offsets = _pair_arrays(halves)
    pkv = np.array([halves[int(k)] for k in pk], dtype=np.int64)
    plv = np.array([halves[int(l)] for l in pl], dtype=np.int64)
    cands = []
    for i in range(n):
        for j in range(i, n):
            s2 = halves[i] + halves[j]
            o = offsets[j]
            e = s2 + psum[o:]
            ae = np.abs(e)
            ok = (e != 0) & (ae <= M) & (M % np.where(ae == 0, 1, ae) == 0)
            for p in np.nonzero(ok)[0]:
                a, b = halves[i], halves[j]
                c, d = int(pkv[o + p]), int(plv[o + p])
                ev = int(e[p])
                tup = (a, -2 * a, b, -2 * b, c, -2 * c, d, -2 * d, ev)
                if abs(_float_norm(tup) - 0.25) < FLOAT_TOL:
                    cands.append(tup)
    return _verify_quarter(cands)


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
        found = _type_a_sweep_7() + _type_a3_sweep_7() + _type_b_sweep_7()
        note = (
            "pairable sweep over divisors of 2^6*3^2*5^2*7^2, the (c,-3c) "
            "variant over divisors of 2^12*3^6*5^6, and a sum-zero sweep "
            "over divisors of 2^10*3^5 for non-pairable lists (empty). "
            "The entry [-1,2,3,-4,-6,-6,12] genuinely repeats -6."
        )
    elif n == 9:
        found = _type_a_sweep_9() + _combine_sweep_9()
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
    out = []
    bound = 1 + int(1 / (6 * (Fraction(1, 6) - threshold)))
    for k in (2, 3, 4, 5):
        for a in range(-bound, bound + 1):
            if a == 0:
                continue
            for b in range(-k * bound, k * bound + 1):
                if b == 0 or gcd(a, b) != 1 or abs(a * b) > bound * k:
                    continue
                lst = make_list([a, -k * a, b])
                if lst.length == 3 and lst.is_primitive() and norm(lst) < threshold:
                    out.append(lst)
    return _dedup(out)


def _small_norm_4(threshold: Fraction) -> list[SignedList]:
    """Non-pairable length-4 lists with norm < threshold (max 11/60).

    Union of the sweep over divisors of 4^3*3^3 = 1728 (covers the
    at-most-4-separated case) and the [a,-3a,b,-3b] family, which
    contributes [1,-3,-5,15] at 8/45.
    """
    if threshold > Fraction(11, 60):
        raise ValueError("the length-4 catalog is complete only up to 11/60")
    vals = _signed_divisors(1728)
    out = []
    thr = float(threshold) + FLOAT_TOL
    for combo in combinations_with_replacement(vals, 4):
        if _float_norm(combo) >= thr:
            continue
        a = make_list(combo)
        if a.length == 4 and a.is_primitive() and classify_type(a) == "B" and norm(a) < threshold:
            out.append(a)
    for a in range(1, 41):
        for b in range(-40, 41):
            if b == 0 or gcd(a, b) != 1 or abs(a * b) > 40:
                continue
            lst = make_list([a, -3 * a, b, -3 * b])
            if lst.length == 4 and lst.is_primitive() and classify_type(lst) == "B" and norm(lst) < threshold:
                out.append(lst)
    return _dedup(out)


def _small_norm_5(threshold: Fraction) -> list[SignedList]:
    """Pairable length-5 lists [a,-2a,b,-2b,c] with norm <= threshold
    (max 31/168), swept over the at-most-7-separated support."""
    if threshold > Fraction(31, 168):
        raise ValueError("the pairable length-5 catalog is complete only up to 31/168")
    M = PRESET_MODULI["type_a_sum0_length7"]
    halves = _signed_divisors(M // 2)
    c_vals = _signed_divisors(M)
    n = len(halves)
    cv = np.array(c_vals, dtype=np.int64)
    cvf = cv.astype(np.float64)
    tol = float(threshold) + FLOAT_TOL
    heads, counts, hit_c = [], [], []
    for i in range(n):
        a = halves[i]
        ga = np.gcd(a, cv).astype(np.float64)
        g2a = np.gcd(2 * a, cv).astype(np.float64)
        ta = ga * ga / (a * cvf) + g2a * g2a / (-2 * a * cvf)
        for j in range(i, n):
            b = halves[j]
            gb = np.gcd(b, cv).astype(np.float64)
            g2b = np.gcd(2 * b, cv).astype(np.float64)
            tb = gb * gb / (b * cvf) + g2b * g2b / (-2 * b * cvf)
            base = _float_norm((a, -2 * a, b, -2 * b)) + 1.0 / 12.0
            nrm = base + (ta + tb) / 6.0
            c = cv[nrm <= tol]
            heads.append((a, b))
            counts.append(len(c))
            hit_c.append(c)
    ab = np.repeat(np.array(heads, dtype=np.int64), counts, axis=0)
    a, b = ab[:, 0], ab[:, 1]
    rows = np.stack((a, -2 * a, b, -2 * b, np.concatenate(hit_c)), axis=1)
    out = []
    for tup in sorted(set(map(tuple, rows[_live_rows(rows)].tolist()))):
        lst = make_list(tup)
        if lst.length == 5 and lst.is_primitive() and norm(lst) <= threshold:
            out.append(lst)
    return _dedup(out)


def _block_sweep(vals, length: int, threshold: float):
    """Generic multiset sweep: python loop over lead triples, vectorised
    float norm over trailing triples via precomputed cross-term rows.
    Yields candidate tuples with float norm <= threshold."""
    tmat = _tmatrix(vals)
    n = len(vals)
    t1, t2, t3, _, internal, offsets = _triple_arrays(vals, tmat)
    # per-value cross-term against every trailing triple
    ct = np.empty((n, len(t1)))
    for x in range(n):
        row = tmat[x]
        ct[x] = row[t1] + row[t2] + row[t3]
    base = length / 12.0
    if length == 6:
        lead_iter = combinations_with_replacement(range(n), 3)
        for (a, b, c) in lead_iter:
            o = offsets[c]
            lead_cross = tmat[a, b] + tmat[a, c] + tmat[b, c]
            nrm = base + (lead_cross + ct[a][o:] + ct[b][o:] + ct[c][o:] + internal[o:]) / 6.0
            for p in np.nonzero(nrm <= threshold)[0]:
                idx = o + int(p)
                yield (vals[a], vals[b], vals[c], vals[int(t1[idx])], vals[int(t2[idx])], vals[int(t3[idx])])
    elif length == 8:
        for lead in combinations_with_replacement(range(n), 5):
            a, b, c, d, e = lead
            o = offsets[e]
            lead_cross = sum(tmat[x, y] for ii, x in enumerate(lead) for y in lead[ii + 1 :])
            cross = ct[a][o:] + ct[b][o:] + ct[c][o:] + ct[d][o:] + ct[e][o:]
            nrm = base + (lead_cross + cross + internal[o:]) / 6.0
            for p in np.nonzero(nrm <= threshold)[0]:
                idx = o + int(p)
                yield tuple(vals[x] for x in lead) + (
                    vals[int(t1[idx])],
                    vals[int(t2[idx])],
                    vals[int(t3[idx])],
                )
    else:
        raise ValueError("block sweep supports lengths 6 and 8")


def _small_norm_6(threshold: Fraction) -> list[SignedList]:
    """Non-pairable length-6 lists with norm <= threshold (max 7/36):
    a sweep over divisors of 2^5*3^4 (the 3-separated case) plus the two
    structured families from the 4-or-more-separated cases."""
    if threshold > Fraction(7, 36):
        raise ValueError("the non-pairable length-6 catalog is complete only up to 7/36")
    vals = _signed_divisors(2**5 * 3**4)
    out = []
    for tup in _block_sweep(vals, 6, float(threshold) + FLOAT_TOL):
        a = make_list(tup)
        if a.length == 6 and a.is_primitive() and classify_type(a) == "B" and norm(a) <= threshold:
            out.append(a)
    for a_, b_ in ((a_, b_) for a_ in range(-100, 101) for b_ in range(-100, 101)):
        if a_ == 0 or b_ == 0 or gcd(a_, b_) != 1:
            continue
        for shape in ([a_, -2 * a_, -3 * a_, 6 * a_, b_, -3 * b_], [a_, -2 * a_, 4 * a_, b_, -2 * b_, 4 * b_]):
            lst = make_list(shape)
            if lst.length == 6 and lst.is_primitive() and classify_type(lst) == "B" and norm(lst) <= threshold:
                out.append(lst)
    return _dedup(out)


def _small_norm_7(threshold: Fraction) -> list[SignedList]:
    """Length-7 minima: pairable lists over the at-most-4-separated
    support 2^9*3^3 with norm <= threshold (the global minimum 5/24 is
    attained here; all other cases exceed it)."""
    M = 2**9 * 3**3
    halves = _signed_divisors(M // 2)
    d_vals = _signed_divisors(M)
    thr = float(threshold) + FLOAT_TOL
    cands = []
    for combo in combinations_with_replacement(halves, 3):
        a, b, c = combo
        body = (a, -2 * a, b, -2 * b, c, -2 * c)
        base = _float_norm(body) + 1.0 / 12.0
        for d in d_vals:
            cross = sum(_float_cross(x, d) for x in body) / 6.0
            if base + cross <= thr:
                cands.append(body + (d,))
    out = []
    for tup in sorted(set(cands)):
        lst = make_list(tup)
        if lst.length == 7 and lst.is_primitive() and norm(lst) <= threshold:
            out.append(lst)
    return _dedup(out)


def _small_norm_8(threshold: Fraction) -> list[SignedList]:
    """Length-8 lists over divisors of 30 with norm <= threshold; the
    global minimum 8/45 is attained on this support."""
    vals = _signed_divisors(30)
    out = []
    for tup in _block_sweep(vals, 8, float(threshold) + FLOAT_TOL):
        a = make_list(tup)
        if a.length == 8 and a.is_primitive() and norm(a) <= threshold:
            out.append(a)
    return _dedup(out)


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
                pos = tuple(e for e in lst.elements if e > 0)
                neg = tuple(-e for e in lst.elements if e < 0)
                if len(pos) > len(neg):
                    pos, neg = neg, pos
                from ratio_lab.integrality import RatioSpec

                spec = RatioSpec(numerator=pos, denominator=neg)
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
    solve_last: bool = False  # last element forced by sum zero, support-free

    def __post_init__(self):
        if self.support_modulus is None and self.box is None:
            raise ValueError("need a support modulus or a box bound for finiteness")
        if self.constraint not in ("none", "sum_zero"):
            raise ValueError("constraint must be 'none' or 'sum_zero'")
        if self.solve_last and self.constraint != "sum_zero":
            raise ValueError("solve_last requires the sum_zero constraint")


def enumerate_lists(spec: SearchSpec):
    """Yield (list, norm) for every primitive non-degenerate list meeting
    the spec, once per canonical form, in canonical order."""
    if spec.solve_last:
        # free elements divide the support; the last is forced by the
        # zero-sum condition.  Only the norm-1/4 length-5 sweep is big
        # enough to need this; it reuses the vectorised engine.
        if spec.length == 5 and spec.norm_equals == QUARTER and spec.support_modulus:
            for a in divisor_sweep_5(spec.support_modulus):
                yield a, QUARTER
            return
        raise ValueError("solve_last is only wired for the length-5 norm-1/4 sweep")
    if spec.support_modulus is not None:
        vals = _signed_divisors(spec.support_modulus)
        if spec.box is not None:
            vals = [v for v in vals if abs(v) <= spec.box]
    else:
        vals = sorted(
            [v for v in range(-spec.box, spec.box + 1) if v != 0],
            key=lambda v: (abs(v), v > 0),
        )
    thr = None if spec.norm_threshold is None else float(spec.norm_threshold) + FLOAT_TOL
    seen = set()
    for combo in combinations_with_replacement(vals, spec.length):
        if spec.constraint == "sum_zero" and sum(combo) != 0:
            continue
        if thr is not None and _float_norm(combo) > thr:
            continue
        a = make_list(combo)
        if a.length != spec.length or not a.is_primitive():
            continue
        if a.elements in seen:
            continue
        seen.add(a.elements)
        if spec.type_filter is not None and classify_type(a) != spec.type_filter:
            continue
        nv = norm(a)
        if spec.norm_equals is not None and nv != spec.norm_equals:
            continue
        if spec.norm_threshold is not None:
            if spec.strict and not nv < spec.norm_threshold:
                continue
            if not spec.strict and not nv <= spec.norm_threshold:
                continue
        yield a, nv


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
