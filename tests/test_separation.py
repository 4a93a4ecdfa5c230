import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

import ratio_lab.arith
import ratio_lab.separation as separation
from ratio_lab.arith import divisors, factorize
from ratio_lab.lists import SignedList, make_list, norm
from ratio_lab.search import PAIRABLE_SUPPORT
from ratio_lab.separation import (
    SeparationWitness,
    check_decomposition,
    find_separations,
    forced_coefficients,
    max_separation,
    separation_orders,
    support_bound,
)

F = Fraction

CHEB = make_list([30, -15, -10, -6, 1])


def test_worked_example_separations():
    for k in (2, 3, 5):
        assert find_separations(CHEB, k), f"expected {k}-separation"
    assert not find_separations(CHEB, 6)
    assert max_separation(CHEB) == 5


def test_prime_power_example():
    a = make_list([1, -5, 25])
    ws = find_separations(a, 5)
    assert len(ws) >= 2
    # the two splits 5 x [-1,5] + [1] and 5 x [5] + [1,-5] show up with
    # the same primitive parts [1], [1,-5] but distinct coefficients
    splits = {(w.B, w.C, w.b_part.elements, w.c_part.elements) for w in ws}
    assert (1, -5, (1,), (1, -5)) in splits
    assert (25, 1, (1,), (1, -5)) in splits
    assert max_separation(a) == 5


def test_pair_separation():
    a = make_list([1, -2])
    ws = find_separations(a, 2)
    assert len(ws) == 1
    assert max_separation(a) == 2
    nb, nc, nm = check_decomposition(a, ws[0])
    assert (nb, nc, nm) == (F(1, 12), F(1, 12), F(0))


def test_check_decomposition_on_worked_example():
    for w in find_separations(CHEB, 5):
        check_decomposition(CHEB, w)
    assert norm(CHEB) == F(1, 4)


def test_find_separations_requires_primitive():
    with pytest.raises(ValueError):
        find_separations(make_list([2, -4]), 2)


class _Started(Exception):
    pass


def test_split_walk_entry_cap(monkeypatch):
    def no_walk(*args):
        raise _Started

    monkeypatch.setattr(separation, "combinations", no_walk)
    monkeypatch.setattr(separation, "factorize", no_walk)
    a = make_list(range(1, 39, 2))
    for query in (lambda: find_separations(a, 2), lambda: separation_orders(a), lambda: max_separation(a)):
        with pytest.raises(ValueError, match="list has 19 entries, above the cap of 18"):
            query()
    with pytest.raises(_Started):  # 18 entries get as far as the walk
        separation_orders(make_list(range(1, 37, 2)))


def test_separation_orders_factorizes_each_entry_once(monkeypatch):
    # each entry past 1 is a multiple of a prime above 10^6, so a coefficient
    # factorized on its own is trial-divided up to 10^6
    P = 999_999_999_989
    a = make_list([1] + [i * P for i in range(1, 8)])
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(ratio_lab.arith, "factorize", counted)
    monkeypatch.setattr(separation, "factorize", counted, raising=False)
    assert separation_orders(a) == [2, 3, 5, 7, P]
    assert sorted(calls) == sorted(abs(e) for e in a.elements)


def test_max_separation_factorizes_nothing(monkeypatch):
    P = 999_999_999_989

    def refused(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(ratio_lab.arith, "factorize", refused)
    monkeypatch.setattr(separation, "factorize", refused, raising=False)
    assert max_separation(make_list([1] + [i * P for i in range(1, 8)])) == P


def test_support_bound_values():
    assert support_bound(4, 4).modulus == 4**3 * 3**3
    assert support_bound(7, 7).modulus == 2**12 * 3**6 * 5**6 * 7**6
    assert support_bound(2, 2).modulus == 2


def test_preset_moduli_are_divisor_closed_under_general_bound():
    # the quoted support of pairable sum-zero lists must divide the
    # general-position modulus of at-most-7-separated length-7 lists
    assert support_bound(7, 7).modulus % PAIRABLE_SUPPORT == 0


def _random_primitive_list(rng, length, bound=60):
    while True:
        raw = [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(length)]
        a = make_list(raw)
        if a.length == length and a.is_primitive():
            return a


def test_decomposition_identity_on_random_lists():
    rng = random.Random(7)
    witnesses = 0
    for _ in range(150):
        a = _random_primitive_list(rng, rng.randint(2, 5))
        for k in (2, 3, 4, 5):
            for w in find_separations(a, k):
                check_decomposition(a, w)
                witnesses += 1
    assert witnesses > 100


def test_valuation_gap_forces_separation():
    # if valuations of p jump by >= r with no element in between,
    # the list is p^r-separated
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 2)
        e1 = rng.randint(0, 1)
        e2 = e1 + r + rng.randint(0, 1)
        u1 = rng.choice([1, 7, 11, 13])
        u2 = rng.choice([1, 7, 11, 13])
        a = make_list(
            [
                rng.choice([-1, 1]) * p**e1 * u1,
                rng.choice([-1, 1]) * p**e2 * u2,
                rng.choice([-1, 1]) * rng.choice([1, 7, 11, 13, 17]),
            ]
        )
        if a.length != 3 or not a.is_primitive():
            continue
        vals = sorted(_valuation(abs(e), p) for e in a.elements)
        lo = max(v for v in vals if v <= e1) if any(v <= e1 for v in vals) else None
        # recompute the actual gap hypothesis on the realized list
        gap_ok = _has_gap(vals, r)
        if gap_ok:
            assert find_separations(a, p**r), (a.elements, p, r)
            found += 1
    assert found > 50


def _valuation(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _has_gap(sorted_vals, r):
    for v1, v2 in zip(sorted_vals, sorted_vals[1:]):
        if v2 - v1 >= r:
            return True
    return False


def test_support_bound_property_small():
    # every primitive length-3 list with max_separation <= k has all
    # elements dividing the bound's modulus (sampled; the exhaustive
    # scan lives in the acceptance suite)
    rng = random.Random(3)
    for _ in range(200):
        a = _random_primitive_list(rng, 3, bound=50)
        k = max_separation(a)
        if k < 2:
            continue
        m = support_bound(3, k).modulus
        for e in a.elements:
            assert m % abs(e) == 0, (a.elements, k, m)


def test_forced_coefficients():
    b = make_list([1, -2, -3, 6])
    c = make_list([1, -2, 4, -8, 16])
    assert b.total == 2 and c.total == 11
    B, C = forced_coefficients(b, c)
    assert {abs(B), abs(C)} == {11, 2}
    assert B * b.total + C * c.total == 0
    assert forced_coefficients(make_list([1, -2, -3, 4]), c) is None
    B, C = forced_coefficients(make_list([1]), make_list([1, 2]))
    assert (abs(B), abs(C)) == (3, 1) and B * 1 + C * 3 == 0


def test_witness_json():
    w = find_separations(make_list([1, -2]), 2)[0]
    d = w.to_json()
    assert d["k"] == 2 and set(d) == {"k", "B", "C", "b", "c"}


# The split walk that find_separations and max_separation ran on before they
# worked from signed contents alone: make_list builds both parts of every
# split.  Kept verbatim as the reference the current code must match.


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


def _reference_max_separation(a: SignedList) -> int:
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


def _reference_witnesses(a, k):
    out = []
    for b_idx, b, B, c, C in _partitions(a):
        w = _witness_if_valid(a, k, b_idx, b, B, c, C)
        if w is not None:
            out.append(w)
    out.sort(key=lambda w: sorted(w.b_indices))
    return out


def _criterion_8_lists():
    # the random lists of the acceptance suite's criterion 8
    rng = random.Random(22)
    for _ in range(1000):
        n = rng.randint(2, 5)
        a = make_list([rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(n)])
        if a.length >= 2 and a.is_primitive():
            yield a


def _smooth_lists(count):
    # random primitive lists of length 2..6 with entries +-2^i 3^j 5^l, where
    # a side's content and the other side's lcm share primes
    rng = random.Random(5)
    out = []
    while len(out) < count:
        n = rng.randint(2, 6)
        a = make_list([rng.choice([-1, 1]) * 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2) for _ in range(n)])
        if a.length == n and a.is_primitive():
            out.append(a)
    return out


def _as_tuple(w):
    return (w.k, w.B, w.C, w.b_part.elements, w.c_part.elements, tuple(sorted(w.b_indices)))


def test_witnesses_match_reference_walk():
    lists = list(_criterion_8_lists()) + _smooth_lists(150) + [CHEB, make_list([1, -5, 25]), make_list([4, 6, -9, 10, -15, 12])]
    witnesses = 0
    for a in lists:
        for k in range(2, 8):
            got = [_as_tuple(w) for w in find_separations(a, k)]
            assert got == [_as_tuple(w) for w in _reference_witnesses(a, k)], (a, k)
            witnesses += len(got)
        assert max_separation(a) == _reference_max_separation(a), a
    assert witnesses > 100


def test_separation_orders_match_range_scan():
    for a in list(_criterion_8_lists())[:300] + _smooth_lists(100) + [CHEB, make_list([1, -5, 25])]:
        top = _reference_max_separation(a)
        assert separation_orders(a) == [k for k in range(2, top + 1) if _reference_witnesses(a, k)], a
    assert separation_orders(CHEB) == [2, 3, 5]
