import hashlib
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import isqrt

import numpy as np
import pytest

import ratio_lab.search as search
from ratio_lab.integrality import family_membership
from ratio_lab.lists import classify_type, involute, make_list, norm
from ratio_lab.search import (
    GOLDEN_NAMES,
    Catalog,
    canonical_pair_key,
    d2_family_probe,
    divisor_sweep_5,
    family_search_5,
    load_golden,
    small_norm_catalog,
    sum_zero_divisor_lists,
    verify_catalog,
)

F = Fraction


def keys(lists):
    return {canonical_pair_key(a) for a in lists}


def test_family_search_5_count_and_members():
    found = family_search_5()
    assert len(found) == 19
    assert canonical_pair_key(make_list([1, 9, -2, -3, -5])) in keys(found)
    assert canonical_pair_key(make_list([1, 15, -2, -5, -9])) in keys(found)
    for a in found:
        assert a.total == 0 and norm(a) == F(1, 4)
        assert family_membership(a) == "sporadic"


def test_family_search_5_box_widening_adds_nothing():
    base = keys(family_search_5())
    widened = keys(family_search_5(a_bound=130, b_bound=86))
    assert widened == base


def test_small_norm_4_catalog(small_norm):
    cat = small_norm(4, F(11, 60))
    assert len(cat.entries) == 20
    by_norm = {}
    for e in cat.entries:
        by_norm.setdefault(e.norm, 0)
        by_norm[e.norm] += 1
    assert by_norm == {F(1, 6): 9, F(19, 108): 4, F(17, 96): 2, F(13, 72): 4, F(8, 45): 1}
    assert canonical_pair_key(make_list([1, -3, -5, 15])) in cat.keys()


def test_small_norm_5_catalog(small_norm):
    cat = small_norm(5, F(31, 168))
    assert len(cat.entries) == 25
    norms = sorted(e.norm for e in cat.entries)
    assert norms.count(F(11, 60)) == 12
    assert canonical_pair_key(make_list([1, -2, 4, -8, 16])) in cat.keys()
    for e in cat.entries:
        assert classify_type(e.list) == "A"


def test_small_norm_7_minimum(small_norm):
    cat = small_norm(7, F(5, 24))
    assert min(e.norm for e in cat.entries) == F(5, 24)
    assert all(e.norm == F(5, 24) for e in cat.entries)
    assert canonical_pair_key(make_list([1, -2, -3, 6, 9, -18, 36])) in cat.keys()


def test_small_norm_8_minimum(small_norm):
    cat = small_norm(8, F(8, 45))
    assert [e.norm for e in cat.entries] == [F(8, 45)]
    assert cat.keys() == keys([make_list([1, -2, -3, 6, -5, 10, 15, -30])])


def test_small_norm_3_matches_box_reference(small_norm):
    cat = small_norm(3, F(1, 7))
    assert len(cat.entries) == 5
    assert canonical_pair_key(make_list([1, -2, 4])) in cat.keys()
    assert min(e.norm for e in cat.entries) == F(1, 8)


def test_length4_catalog_involution_behaviour(small_norm):
    # the involution preserves the norm on every entry; images that stay
    # at length 4 land back inside the catalog (up to sign)
    cat = small_norm(4, F(11, 60))
    ckeys = cat.keys()
    fixed = 0
    for e in cat.entries:
        bar = involute(e.list)
        assert norm(bar) == e.norm
        if bar.length == 4:
            assert canonical_pair_key(bar) in ckeys
            fixed += 1
    assert fixed == 4


def test_sum_zero_divisor_lists_small():
    lists = sum_zero_divisor_lists(6, 3)
    assert all(a.total == 0 and a.length == 3 and a.is_primitive() for a in lists)
    assert canonical_pair_key(make_list([1, 2, -3])) in keys(lists)
    # naive cross-check
    vals = [v for v in range(-6, 7) if v != 0 and 6 % abs(v) == 0]
    ref = set()
    for combo in combinations_with_replacement(vals, 3):
        a = make_list(combo)
        if a.length == 3 and a.total == 0 and a.is_primitive():
            ref.add(canonical_pair_key(a))
    assert keys(lists) == ref


def _signed_divisors(modulus):
    return [s * d for d in range(1, modulus + 1) if modulus % d == 0 for s in (1, -1)]


def _first_per_key(candidates, keep=lambda a: True):
    """The representative rule of the searches: visit the candidate
    tuples in sorted order, keep the first list for each canonical key
    among those that are nonzero, primitive, as long as their tuple and
    pass `keep`, and return the kept lists sorted by key."""
    kept = {}
    for tup in sorted(set(candidates)):
        if 0 in tup:
            continue
        a = make_list(tup)
        if a.length == len(tup) and a.is_primitive() and keep(a):
            kept.setdefault(canonical_pair_key(a), a)
    return [kept[k].elements for k in sorted(kept)]


S12 = search._signed_divisors(12)


@pytest.mark.parametrize(
    "values, count, bound, solved, keep",
    [
        (S12, 3, None, False, lambda a: True),
        # 1/6 is attained: the strict cut keeps 3 pairs, the non-strict 12
        (S12, 4, 1 / 6, False, lambda a: norm(a) < F(1, 6)),
        (S12, 4, 1 / 6, False, lambda a: norm(a) <= F(1, 6)),
        (S12, 4, None, True, lambda a: True),
        (S12, 4, 0.25, True, lambda a: norm(a) == F(1, 4)),
        (search._box(5), 4, 0.2, False, lambda a: norm(a) < F(1, 5)),
        (tuple(v for v in search._signed_divisors(24) if abs(v) <= 6), 4, None, False, lambda a: classify_type(a) == "B"),
    ],
    ids=["plain", "strict", "non-strict", "sum-zero", "norm-equals", "box", "type-filter"],
)
def test_enumerate_matches_naive_reference_tiny(values, count, bound, solved, keep):
    # one group of `count` parameters, one more in a join, so the candidates
    # are the (sum-zero) multisets of the support in support order
    sweep = search._Sweep((search._Group(values, count + solved),), bound, search.JOIN if solved else False)
    combos = combinations_with_replacement(values, count + solved)
    candidates = [c for c in combos if not solved or sum(c) == 0]
    ref = _first_per_key(candidates, keep)
    assert ref
    assert [a.elements for a in search._confirm(sweep, keep)] == ref


def _sum_zero_reference(modulus, length):
    """Brute force with the representative rule of sum_zero_divisor_lists:
    the candidates are the sum-zero multisets, each written in support
    order (|v|, then sign)."""
    combos = combinations_with_replacement(_signed_divisors(modulus), length)
    return _first_per_key(tuple(sorted(c, key=_support_order)) for c in combos if sum(c) == 0)


@pytest.mark.parametrize(
    "modulus, length", [(60, 4), (72, 5), (120, 5), (30, 6), (72, 6), (12, 7), (18, 7), (30, 7)]
)
def test_sum_zero_divisor_lists_representatives(modulus, length):
    ours = [a.elements for a in sum_zero_divisor_lists(modulus, length)]
    assert ours == _sum_zero_reference(modulus, length)


@pytest.mark.parametrize("modulus, length", [(720, 3), (60, 4), (72, 5), (120, 5), (30, 6), (12, 7), (30, 7)])
def test_sum_zero_divisor_lists_are_canonical(modulus, length):
    # every length builds its SignedLists without make_list, each the
    # member of its +- pair that is its own key
    lists = sum_zero_divisor_lists(modulus, length)
    assert lists
    for a in lists:
        assert a == make_list(a.elements)
        assert a.elements == canonical_pair_key(a)
        assert all(type(v) is int for v in a.elements)


@pytest.mark.parametrize("modulus, length", [(432, 7), (720, 5), (1728, 7), (720, 3), (30, 6)])
def test_sum_zero_lists_carry_exact_norms(modulus, length):
    # the bulk int64 norms equal the scalar gcd sum of a fresh make_list
    lists = sum_zero_divisor_lists(modulus, length)
    assert lists
    for a in lists:
        assert a.known_norm is not None
        assert a.known_norm == norm(make_list(a.elements)), a


def test_sum_zero_lists_without_rows():
    assert sum_zero_divisor_lists(12, 2) == []


def _largest_prime_below(n):
    p = n - 1
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p -= 1
    return p


def test_sum_zero_norms_int64_bound():
    # past (length * top)^2 < 2^63 the lists carry no norm, and norm() computes it
    past = sum_zero_divisor_lists(6 * 1_000_000_007, 3)
    assert [a.elements for a in past] == [(-1, -2, 3), (-1, -1, 2)]
    assert all(a.known_norm is None and norm(a) == F(1, 4) for a in past)
    # just below it, with (length * top)^2 above 2^62, the int64 pass is exact:
    # over 2p the one list [-1, -1, 2], over 6p length-6 lists that mix
    # p-sized elements with small ones
    for k, length in ((2, 3), (6, 6)):
        p = _largest_prime_below(isqrt(2**63 - 1) // (length * k) + 1)
        assert 2**62 < (length * k * p) ** 2 < 2**63
        below = sum_zero_divisor_lists(k * p, length)
        assert below
        for a in below:
            assert a.known_norm is not None and a.known_norm == norm(make_list(a.elements)), a


def test_canonical_pair_key_is_the_smaller_of_the_pair():
    # reference: the smaller canonical tuple of a list and its negation
    rng = random.Random(9)
    lists = [e.list for name in GOLDEN_NAMES for e in load_golden(name).entries]
    box = [v for v in range(-60, 61) if v]
    lists += [make_list(rng.choices(box, k=rng.randint(1, 9))) for _ in range(20000)]
    for a in lists:
        assert canonical_pair_key(a) == min(a.elements, a.negate().elements), a


def _sum_zero_sweep(modulus, length, bound):
    """The join of sum_zero_divisor_lists(modulus, length), with the float norm bound `bound`."""
    vals = search._signed_divisors(modulus)
    return search._Sweep((search._Group(vals, length),), bound, search.JOIN)


def test_sum_zero_prefilter_keeps_quarter_keys():
    # the kept member of each pair is the one that starts negative, so the
    # float bound must keep a row exactly when it keeps its negation
    quarter = [a for a in sum_zero_divisor_lists(1728, 7) if norm(a) == F(1, 4)]
    assert quarter
    # the type-B sweep over 1728: each row is its own pair key, in the same order
    bounded = search._confirm(_sum_zero_sweep(1728, 7, 0.25), lambda a: norm(a) == F(1, 4))
    assert keys(bounded) == keys(quarter) and bounded == quarter
    # the bound 0.0 prunes too: no list has norm 0
    assert sum_zero_divisor_lists(1728, 4) and search._confirm(_sum_zero_sweep(1728, 4, 0.0), lambda a: True) == []


def test_sum_zero_join_two_groups():
    # [a,-2a,b,-2b,c,-2c,d] with a, b, c among the divisors of 18 and d
    # among the divisors of 36, kept where the sum is zero: d is the
    # parameter of a second group.  The support of a, b, c runs from
    # large |v| to small, so the last head block, a = -1, holds the list
    # [-1,2,-1,2,-1,2,-3], which comes before its negation in sorted order
    # and so is the representative.
    support = tuple(v for d in (18, 9, 6, 3, 2, 1) for v in (d, -d))
    last = tuple(_signed_divisors(36))
    sweep = search._Sweep((search._Group(support, 3, (1, -2)), search._Group(last, 1)), None, search.JOIN)
    triples = combinations_with_replacement(support, 3)
    cands = [(a, -2 * a, b, -2 * b, c, -2 * c, a + b + c) for a, b, c in triples if a + b + c in last]
    # each multiset is reached once, as its tuple in support order
    live = [t for t in cands if make_list(t).length == 7 and make_list(t).is_primitive()]
    assert sorted(map(tuple, search._rows(sweep).tolist())) == sorted(live)
    ref = _first_per_key(cands)
    assert (-1, -1, -1, 2, 2, 2, -3) in ref
    assert [a.elements for a in search._confirm(sweep, lambda a: True)] == ref


def _support_order(v):
    return (abs(v), v > 0)


# 2*3*11*13: the prime classes see only 2 and 3, and _live_rows drops the rest
@pytest.mark.parametrize("modulus, count", [(60, 48), (72, 36), (2 * 3 * 11 * 13, 28)])
def test_divisor_sweep_5_representatives(modulus, count):
    # candidates: four divisors in support order, then the solved fifth
    combos = combinations_with_replacement(_signed_divisors(modulus), 4)
    cands = (tuple(sorted(c, key=_support_order)) + (-sum(c),) for c in combos)
    ref = _first_per_key(cands, lambda a: norm(a) == F(1, 4))
    assert len(ref) == count
    assert [a.elements for a in divisor_sweep_5(modulus)] == ref


def test_family_search_5_representatives():
    box = [v for v in range(-20, 21) if v]
    cands = ((a, -2 * a, b, -3 * b, a + 2 * b) for a in box for b in box)
    ref = _first_per_key(cands, lambda a: norm(a) == F(1, 4) and family_membership(a) == "sporadic")
    assert len(ref) == 19
    assert [a.elements for a in family_search_5(20, 20)] == ref


def test_float_prefilter_bound_is_checked(monkeypatch):
    assert 2.9e-14 < search._prefilter_error(9) < 3.1e-14
    monkeypatch.setattr(search, "FLOAT_TOL", 1e-16)
    with pytest.raises(ArithmeticError):
        divisor_sweep_5(60)


def test_sweep_int64_limits():
    # past 2^53 a float bound is unsound, but a sweep without one is exact
    support = tuple(v for d in (1, 2**54, 2**54 + 1) for v in (-d, d))
    sweep = search._Sweep((search._Group(support, 3),), None, search.JOIN)
    assert keys(search._confirm(sweep, lambda a: True)) == {(-1, -(2**54), 2**54 + 1)}
    with pytest.raises(ArithmeticError):
        search._rows(search._Sweep(sweep.groups, 1.0, search.JOIN))
    # the join key, a row sum times the support size, must fit in int64
    huge = tuple(v for d in (1, 2**61) for v in (-d, d))
    with pytest.raises(ValueError, match="join key"):
        search._rows(search._Sweep((search._Group(huge, 3),), None, search.JOIN))


def test_divisor_sweep_jobs_invariant(monkeypatch):
    # tiny modulus: sharding must not change the rows, nor their
    # lexicographic order, nor the result set; the pinned CPU count allows
    # two jobs on a one-CPU machine too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep = search._Sweep((search._Group(search._signed_divisors(360), 4),), 0.25, True)
    one = search._rows(sweep, 1).tolist()
    assert one and one == sorted(one) and search._rows(sweep, 2).tolist() == one
    assert keys(divisor_sweep_5(modulus=360)) == keys(divisor_sweep_5(modulus=360, jobs=2))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two jobs need two CPUs")
def test_pool_workers_load_numpy_first():
    # in a fresh interpreter numpy is not loaded when the sweep starts its
    # pool, so the first numpy call is in the workers, and the parent loads
    # numpy to unpickle their rows; the result is the one recorded for this
    # call before numpy loaded lazily
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import json, multiprocessing, sys\n"
        "import ratio_lab.search as search\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "at_pool, pool = [], multiprocessing.Pool\n"
        "multiprocessing.Pool = lambda jobs: at_pool.append(loaded()) or pool(jobs)\n"
        "lists = search.divisor_sweep_5(360, jobs=2)\n"
        "print(json.dumps({'at_pool': at_pool, 'after': bool(loaded()), 'lists': repr([a.elements for a in lists])}))\n"
    )
    got = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout)
    assert got["at_pool"] == [[]] and got["after"]
    assert hashlib.sha1(got["lists"].encode()).hexdigest()[:10] == "333cb129c3"


def test_sum_zero_join_jobs_invariant(monkeypatch):
    # the join shards its loop over the first head parameter
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep = _sum_zero_sweep(720, 7, None)
    one = search._rows(sweep, 1).tolist()
    assert one and one == sorted(one) and search._rows(sweep, 2).tolist() == one


def test_head_deal_jobs_invariant(monkeypatch):
    # two jobs deal the heads [part::2]: one head (lead 0, all of it in part
    # 0), then 78 heads of two parameters (lead 2) under a lowered TAIL_ROWS
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep = search._Sweep((search._Group(search._signed_divisors(12), 4),), 0.3)

    def rows(jobs):  # sorted, so a head dealt twice shows
        return sorted(map(tuple, search._rows(sweep, jobs).tolist()))

    assert search._n_combos(sweep.groups, [0] * 4) <= search.TAIL_ROWS
    one = rows(1)
    assert one and rows(2) == one
    monkeypatch.setattr(search, "TAIL_ROWS", 100)
    assert search._n_combos(sweep.groups, [0, 0]) == 78 and search._n_combos(sweep.groups, [0, 0, 0]) > 100
    assert rows(1) == one and rows(2) == one


def test_paired_heads_masked_before_the_deal():
    # the join of sum_zero_divisor_lists(720, 7) has one lead parameter; the
    # odd first indices go before the heads are dealt, so both of two shares
    # work (_scan takes its share directly, so no CPU count is read)
    sweep = _sum_zero_sweep(720, 7, None)
    shares = [search._scan(sweep, part, 2).tolist() for part in (0, 1)]
    assert all(shares)
    assert sorted(shares[0] + shares[1]) == sorted(search._scan(sweep).tolist())


def _live_candidates(sweep):
    """Every live row of a sweep by brute force, in the engine's layout,
    mapped to its +- class.  A row is a multiset of parameters per group,
    in support order, each giving its multiples, then minus the row sum
    if `solved` is True; a join keeps the rows that sum to zero.  The
    class is the smaller of the row and the row of the negated parameters."""
    groups, solved = sweep.groups, sweep.solved
    joined = solved == search.JOIN

    def layout(params):
        row = tuple(m * v for g, ps in zip(groups, params) for v in ps for m in g.mults)
        return row + (-sum(row),) if solved is True else row

    out = {}
    for params in product(*(combinations_with_replacement(g.values, g.count) for g in groups)):
        row = layout(params)
        if (joined and sum(row)) or 0 in row:
            continue
        a = make_list(row)
        if a.length == len(row) and a.is_primitive() and (sweep.bound is None or norm(a) <= F(sweep.bound)):
            negated = tuple(tuple(sorted((-v for v in ps), key=_support_order)) for ps in params)
            out[row] = min(row, layout(negated))
    return out


@pytest.mark.parametrize(
    "groups, bound, solved, tail_rows",
    [
        ((search._Group(S12, 4),), 0.3, False, search.TAIL_ROWS),
        ((search._Group(S12, 4),), 0.3, False, 100),  # as in test_head_deal_jobs_invariant
        ((search._Group(search._box(6), 1, (1, -2)), search._Group(search._box(4), 1, (1, -3))), None, True, search.TAIL_ROWS),
        ((search._Group(S12, 4),), None, search.JOIN, search.TAIL_ROWS),
    ],
    ids=["lead-0", "lead-2", "family-lead-0", "join-lead-1"],
)
def test_paired_sweep_visits_one_row_per_pair(monkeypatch, groups, bound, solved, tail_rows):
    # on (-d, d) supports every row starts negative, one per +- class
    monkeypatch.setattr(search, "TAIL_ROWS", tail_rows)
    sweep = search._Sweep(groups, bound, solved)
    ref = _live_candidates(sweep)
    classes = set(ref.values())
    assert len(ref) == 2 * len(classes)
    ours = list(map(tuple, search._rows(sweep).tolist()))
    assert all(r[0] < 0 for r in ours)
    assert len(set(ours)) == len(ours) == len(classes)
    assert set(ours) <= ref.keys() and {ref[r] for r in ours} == classes


@pytest.mark.parametrize(
    "groups, bound",
    [
        # the length-4 lemma's [a,-3a,b,-3b] family: a is positive only
        ((search._Group(tuple(range(1, 41)), 1, (1, -3)), search._Group(search._box(40), 1, (1, -3))), 0.2),
        # pairs laid out (d, -d): the rows that start negative are not the smaller ones
        ((search._Group(tuple(-v for v in S12), 4),), 0.3),
    ],
    ids=["positive-only", "positive-first"],
)
def test_unpaired_sweep_visits_every_row(groups, bound):
    sweep = search._Sweep(groups, bound)
    ref = sorted(_live_candidates(sweep))
    assert ref
    assert sorted(map(tuple, search._rows(sweep).tolist())) == ref


S858 = search._signed_divisors(2 * 3 * 11 * 13)


@pytest.mark.parametrize(
    "groups, solved, tail_rows",
    [
        ((search._Group(S858, 4),), search.JOIN, search.TAIL_ROWS),
        ((search._Group(S858, 4),), True, search.TAIL_ROWS),
        ((search._Group(search._box(12), 3),), False, search.TAIL_ROWS),
        ((search._Group(search._box(12), 3),), False, 300),
        ((search._Group(search._box(12), 3),), False, 100),
        ((search._Group(search._box(9), 1, (1, -2)), search._Group(search._box(10), 1, (1, -3))), True, search.TAIL_ROWS),
        # lead 1 over 280 values: the tail key class*280 + first index needs 16 bits
        ((search._Group(search._box(140), 2),), False, 1000),
    ],
    ids=["join-858", "free-858-lead-1", "box-lead-0", "box-lead-1", "box-lead-2", "family-lead-0", "box-lead-1-16-bit-key"],
)
def test_prime_classes_drop_only_dead_rows(monkeypatch, groups, solved, tail_rows):
    # without a float bound _rows is every live row that starts negative (one
    # per +- pair), by brute force: the classes skip only rows that _live_rows
    # drops, also where the support has primes above 7
    monkeypatch.setattr(search, "TAIL_ROWS", tail_rows)
    sweep = search._Sweep(groups, None, solved)
    ref = sorted(r for r in _live_candidates(sweep) if r[0] < 0)
    assert ref
    assert sorted(map(tuple, search._rows(sweep).tolist())) == ref


def test_live_rows_sees_no_row_a_small_prime_divides(monkeypatch):
    # every row reaching _live_rows has, for each of 2, 3, 5 and 7, an element
    # it does not divide: lead 1 (divisor_sweep_5), lead 0 (the length-3 and
    # length-4 lemma sweeps), and both shares of 2 of a join and of a lead-2
    # one-head sweep
    seen = []

    def spy(rows):
        seen.append(rows)
        return live_rows(rows)

    live_rows = search._live_rows
    monkeypatch.setattr(search, "_live_rows", spy)
    assert divisor_sweep_5(360)
    small_norm_catalog(3, F(1, 7))
    small_norm_catalog(4, F(11, 60))
    monkeypatch.setattr(search, "TAIL_ROWS", 100)
    box = search._Sweep((search._Group(search._box(12), 3),), 0.3)
    join = _sum_zero_sweep(720, 7, None)
    for part in (0, 1):
        assert len(search._scan(join, part, 2)) and len(search._scan(box, part, 2))
    g = np.concatenate([np.gcd.reduce(rows, axis=1) for rows in seen])
    assert len(g) > 10000
    for p in (2, 3, 5, 7):
        assert not (g % p == 0).any(), p


class _Started(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Started


def test_jobs_bounded_by_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", _refuse)
    monkeypatch.setattr(search, "_scan", _refuse)
    for jobs in (0, -1, 3, 10**6):
        with pytest.raises(ValueError, match=f"jobs must be between 1 and 2 \\(the number of CPUs\\), got {jobs}$"):
            divisor_sweep_5(60, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be between"):
            search._type_b_sweep_7(jobs=jobs)
        for length in (7, 9):  # before the first sweep
            with pytest.raises(ValueError, match="jobs must be between"):
                search.classify_length(length, jobs=jobs)
    # the upper end is allowed: the sweep gets as far as creating its pool
    with pytest.raises(_Started):
        divisor_sweep_5(60, jobs=2)


def test_small_norm_3_scan_cap(monkeypatch):
    # 2000/12001 needs a scan bound of 12002, whose cross-term tables would
    # take several GB each; 499/2997 needs 1000, 333/2000 needs 1001; from
    # 1/6 on no scan bound is finite
    monkeypatch.setattr(search, "_confirm", _refuse)
    for threshold, bound in ((F(2000, 12001), 12002), (F(333, 2000), 1001)):
        with pytest.raises(ValueError, match=f"needs a scan bound of {bound}, above the cap of 1000"):
            small_norm_catalog(3, threshold)
    for threshold in (F(1, 6), F(1, 5)):
        with pytest.raises(ValueError, match="infinitely many length-3 lists below thresholds >= 1/6$"):
            small_norm_catalog(3, threshold)
    with pytest.raises(_Started):
        small_norm_catalog(3, F(499, 2997))


def test_small_norm_complete_only_up_to(monkeypatch):
    # each length refuses a threshold past the one its catalog is complete to
    monkeypatch.setattr(search, "_confirm", _refuse)
    for n, top in ((4, F(11, 60)), (5, F(31, 168)), (6, F(7, 36)), (7, F(5, 24)), (8, F(8, 45))):
        for threshold in (top + F(1, 10**6), F(2)):
            with pytest.raises(ValueError, match=f"^the length-{n} catalog is complete only up to {top}$"):
                small_norm_catalog(n, threshold)
        with pytest.raises(_Started):
            small_norm_catalog(n, top)


def test_small_norm_selection_rule(small_norm):
    # norm < threshold at lengths 3 and 4, <= at 5..8, so a list whose norm
    # is exactly the threshold is left out at 3 and 4 and kept from 5 on
    assert len(small_norm(3, F(5, 36)).entries) == 1
    assert len(small_norm(3, F(5, 36) + F(1, 10**9)).entries) == 5
    edge = canonical_pair_key(make_list([1, -3, -5, 15]))
    assert norm(make_list([1, -3, -5, 15])) == F(8, 45)
    assert edge not in small_norm(4, F(8, 45)).keys()
    assert edge in small_norm(4, F(11, 60)).keys()
    for n, top, at_top in ((6, F(7, 36), 2), (7, F(5, 24), 8), (8, F(8, 45), 1)):
        assert sum(e.norm == top for e in small_norm(n, top).entries) == at_top


def test_empty_support():
    # every integer divides 0, so a divisor support of 0 is refused; a
    # sweep over an empty box has no rows
    with pytest.raises(ValueError, match="every integer divides 0$"):
        divisor_sweep_5(0)
    for length in range(2, 8):
        with pytest.raises(ValueError, match="every integer divides 0$"):
            sum_zero_divisor_lists(0, length)
    for a_bound, b_bound in ((1, 0), (0, 0), (0, 5)):
        assert family_search_5(a_bound, b_bound) == []


@pytest.mark.parametrize(
    "text",
    [
        '{"name": "sporadic_length9"}',
        "[]",
        '{"name": "sporadic_length9", "entries": 3}',
        '{"name": "sporadic_length9", "entries": [{"list": ["1", "-2"]}]}',
        '{"name": "sporadic_length9", "entries": [',
    ],
    ids=["no-entries", "top-level-list", "entries-not-a-list", "entry-without-norm", "not-json"],
)
def test_malformed_catalog_file(tmp_path, monkeypatch, text):
    path = tmp_path / "sporadic_length9.json"
    path.write_text(text)
    monkeypatch.setenv("RATIO_LAB_CATALOG_DIR", str(tmp_path))
    with pytest.raises(ValueError, match=f"malformed catalog file {re.escape(str(path))}"):
        load_golden("sporadic_length9")


def test_golden_catalogs_load_and_verify():
    counts = {"sporadic_length5": 29, "sporadic_length7": 21, "sporadic_length9": 2}
    for name in GOLDEN_NAMES:
        cat = load_golden(name)
        report = verify_catalog(cat)
        assert report.ok, report
        if name in counts:
            assert len(cat.entries) == counts[name]


def test_golden_sporadics_are_sporadic():
    for name in ("sporadic_length5", "sporadic_length7", "sporadic_length9"):
        for e in load_golden(name).entries:
            assert e.norm == F(1, 4)
            assert e.list.total == 0 and e.list.length % 2 == 1
            assert family_membership(e.list) == "sporadic"


def test_catalog_env_override(tmp_path, monkeypatch):
    cat = load_golden("sporadic_length9")
    (tmp_path / "sporadic_length9.json").write_text(json.dumps(cat.to_json()))
    monkeypatch.setenv("RATIO_LAB_CATALOG_DIR", str(tmp_path))
    again = load_golden("sporadic_length9")
    assert again.keys() == cat.keys()


def test_verify_catalog_flags_corruption():
    cat = load_golden("sporadic_length9")
    bad = Catalog(
        name=cat.name,
        entries=(cat.entries[0], type(cat.entries[1])(list=cat.entries[1].list, norm=F(1, 5))),
    )
    report = verify_catalog(bad)
    assert len(report.failures) == 1
    assert report.checked == 2


def test_verify_catalog_empty():
    report = verify_catalog(Catalog(name="empty", entries=()))
    assert report.ok and report.checked == 0


def test_d2_family_probe_all_integral():
    report = d2_family_probe(range(1, 5), range(1, 5))
    assert report["checked"] > 0
    assert report["integral"] == report["checked"]
    # the (a,b)=(1,1) instance of the first family is present
    assert any(c["a"] == 1 and c["b"] == 1 for c in report["cases"])
