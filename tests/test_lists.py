import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratio_lab.lists import (
    SignedList,
    classify_type,
    concat,
    evaluate,
    involute,
    make_list,
    norm,
    norm_by_integration,
    scale,
)

F = Fraction

nonzero_ints = st.integers(min_value=-1000, max_value=1000).filter(lambda a: a != 0)
raw_lists = st.lists(nonzero_ints, min_size=1, max_size=8)
nonempty_lists = raw_lists.map(make_list).filter(lambda a: a.length > 0)


def test_make_list_canonicalizes():
    a = make_list([30, 2, -1, -10, -30, 15, -6])
    assert a.elements == (-1, 2, -6, -10, 15)


def test_make_list_trivia():
    assert make_list([5]).elements == (5,)
    assert make_list([3, -3]).elements == ()
    with pytest.raises(ValueError):
        make_list([1, 0])


def test_make_list_preserves_length_parity():
    rng = random.Random(0)
    for _ in range(200):
        raw = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(rng.randint(1, 9))]
        assert make_list(raw).length % 2 == len(raw) % 2


def _norm_per_pair(elements):
    """Reference: one Fraction per ordered pair, (1/12) sum gcd^2/(a_i a_j)."""
    return sum((F(gcd(x, y) ** 2, 12 * x * y) for x in elements for y in elements), F(0))


def test_norm_reference_values():
    for raw, expected in (
        ([1, -2], F(1, 12)),
        ([1, -2, 4], F(1, 8)),
        ([4, -6, 9], F(43, 216)),
        ([1, -2, -3, 6], F(1, 9)),
        ([1, -6, -10, -15, 30], F(1, 4)),
    ):
        assert norm(make_list(raw)) == _norm_per_pair(raw) == expected
    for a in (1, 7, -13):
        assert norm(make_list([a])) == F(1, 12)


def test_norm_empty_list():
    empty = make_list([1, -1])
    with pytest.raises(ValueError):
        norm(empty)
    with pytest.raises(ValueError):
        norm_by_integration(empty)


def test_integration_oracle_small_cases():
    assert norm_by_integration(make_list([1])) == F(1, 12)
    assert norm_by_integration(make_list([1, -2])) == F(1, 12)
    assert norm_by_integration(make_list([30, 1, -15, -10, -6])) == F(1, 4)


def test_integration_norm_large_entries():
    # 2*10^6 overflows int64 breakpoint sums that 10^6 still fits
    for a in (make_list([1, 2, -1_000_000]), make_list([1, 2, -2_000_000])):
        assert norm_by_integration(a) == norm(a)
    # past 2^26 the float order of the breakpoints is no longer exact
    with pytest.raises(ValueError):
        norm_by_integration(make_list([1, 2**26]))
    # 2 + 2^21 breakpoints, past the cap: refused before any allocation
    with pytest.raises(ValueError, match="breakpoints"):
        norm_by_integration(make_list([3, 2**21 + 1]))


def test_integration_norm_repeated_and_unit_entries():
    # +-1 entries have no breakpoints, repeated entries share theirs, and
    # each other entry's run of breakpoints is reduced on its own: a
    # reduce that dropped or shifted one entry's run would miss these
    for raw, expected in (
        ([-1, 2, 3, -4, -6, -6, 12], F(1, 4)),
        ([1, 1, -2, -2, 5], F(9, 20)),
        ([4, -6, 9], F(43, 216)),
        ([1, 1, 1, -2], F(7, 12)),
        ([-1, -1, -1], F(3, 4)),
    ):
        a = make_list(raw)
        assert norm_by_integration(a) == norm(a) == expected, raw


@settings(max_examples=150, deadline=None)
@given(nonempty_lists)
def test_norm_matches_integration(a):
    assert norm(a) == norm_by_integration(a)


big_ints = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda a: a != 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(big_ints, min_size=1, max_size=12), st.data())
def test_norm_matches_per_pair_sum(raw, data):
    # repeat some drawn values so that equal entries are exercised
    raw = raw + data.draw(st.lists(st.sampled_from(raw), max_size=4))
    a = make_list(raw[:12])
    if a.length:
        assert norm(a) == _norm_per_pair(a.elements)


def test_evaluate_points():
    assert evaluate(make_list([1, -2]), F(0)) == 1
    a = make_list([3, -4, -5, 12])
    x = F(1, 100)
    # on (0, 1/12): two positive and two negative elements, so the halves
    # cancel and only the slope term -s*x with s = 6 remains
    assert evaluate(a, x) == -6 * x
    assert evaluate(make_list([7]), F(1, 14)) == 0


@settings(max_examples=100, deadline=None)
@given(nonempty_lists, st.fractions(min_value=-3, max_value=3))
def test_evaluate_periodic(a, x):
    assert evaluate(a, x) == evaluate(a, x + 1)


def test_involute_examples():
    assert involute(make_list([30, 1, -10, -15, -6])) == make_list([15, 2, -10, -6, -1])
    assert involute(make_list([2, -4])) == make_list([2, -4])
    assert involute(make_list([1])) == make_list([-1, 2])


@settings(max_examples=100, deadline=None)
@given(nonempty_lists)
def test_involute_is_norm_preserving_involution(a):
    b = involute(a)
    assert involute(b) == a
    if b.length:
        assert norm(b) == norm(a)


@settings(max_examples=60, deadline=None)
@given(nonempty_lists, st.fractions(min_value=0, max_value=1))
def test_involute_shifts_by_half(a, x):
    # the pointwise identity needs x off the breakpoints of both sides;
    # at breakpoints the psi(integer) = 1/2 convention breaks oddness
    if any((2 * el * x).denominator == 1 for el in a.elements):
        return
    assert evaluate(involute(a), x) == evaluate(a, x + F(1, 2))


@settings(max_examples=100, deadline=None)
@given(nonempty_lists, st.integers(min_value=-7, max_value=7).filter(lambda k: k != 0))
def test_scale_preserves_norm(a, k):
    assert norm(scale(a, k)) == norm(a)


def test_scale_examples():
    assert scale(make_list([1, -2]), 3) == make_list([3, -6])
    assert scale(make_list([1, -2]), -1) == make_list([-1, 2])
    assert norm(scale(make_list([4, -6, 9]), 7)) == F(43, 216)
    with pytest.raises(ValueError):
        scale(make_list([1]), 0)


def test_concat_examples():
    assert concat(make_list([1, -2]), make_list([2, 4])) == make_list([1, 4])
    assert concat(make_list([1]), make_list([3])) == make_list([1, 3])
    assert concat(make_list([1, -2]), make_list([-1, 2])).length == 0


@settings(max_examples=100, deadline=None)
@given(raw_lists.map(make_list), raw_lists.map(make_list))
def test_concat_length_constraints(a, b):
    c = concat(a, b)
    assert c.length % 2 == (a.length + b.length) % 2
    assert c.length >= abs(a.length - b.length)


def test_classify_type():
    assert classify_type(make_list([1, -2, -3, 6, 9])) == "A"
    assert classify_type(make_list([1, -3, 9])) == "B"
    assert classify_type(make_list([1, -2])) == "A"
    assert classify_type(make_list([1, -3, -5, 15])) == "B"
    # even length: no leftover allowed
    assert classify_type(make_list([1, -2, 5])) == "A"
    assert classify_type(make_list([1, -2, 5, 7])) == "B"


# The canonicaliser and the backtracking type test that make_list and
# classify_type ran before they decided list shapes by counting.  Kept
# verbatim as the reference the current code must match.


def _canonical_key(a: int) -> tuple[int, int]:
    # ascending |value|; negative before positive at equal |value|
    return (abs(a), 0 if a < 0 else 1)


def _reference_make_list(raw) -> SignedList:
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


def _reference_classify_type(a: SignedList):
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


def _reference_lists():
    """Every multiset of length 1..4 over +-1..12, then seeded random raw
    lists: entries in +-1..60, and t * (-2)^k chains with repeated values."""
    values = [v for v in range(-12, 13) if v]
    for n in range(1, 5):
        yield from combinations_with_replacement(values, n)
    rng = random.Random(10)
    for _ in range(20000):
        yield [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(rng.randint(1, 9))]
    for _ in range(20000):
        t = rng.choice((-1, 1)) * rng.randint(1, 9)
        yield [t * (-2) ** rng.randint(0, 5) for _ in range(rng.randint(1, 9))]


def test_shape_rules_match_reference():
    type_b = 0
    for raw in _reference_lists():
        a = make_list(raw)
        assert a.elements == _reference_make_list(raw).elements, raw
        if a.length:
            kind = classify_type(a)
            assert kind == _reference_classify_type(a), raw
            type_b += kind == "B"
    assert type_b > 10000


def test_odd_sum_zero_norm_at_least_quarter():
    # the sweeps' one float bound, 1/4 for norm-1/4 searches, rests on this
    rng = random.Random(1)
    for length in (3, 5, 7, 9):
        checked = 0
        while checked < 50:
            body = [rng.choice([-1, 1]) * rng.randint(1, 60) for _ in range(length - 1)]
            last = -sum(body)
            if last == 0:
                continue
            a = make_list(body + [last])
            if a.length != length or a.total != 0:
                continue
            assert norm(a) >= F(1, 4)
            # off the breakpoints the values sit in Z + 1/2
            x = F(rng.randint(1, 96), 97)
            v = evaluate(a, x)
            assert (v - F(1, 2)).denominator == 1
            checked += 1


def test_pair_norm_closed_form():
    for a in range(1, 12):
        for b in range(-12, 13):
            if b == 0 or abs(a) == abs(b):
                continue
            from math import gcd

            if gcd(a, abs(b)) != 1:
                continue
            assert norm(make_list([a, b])) == F(1, 6) * (1 + F(1, a * b))


def test_known_norm_leaves_value_semantics():
    # a carried norm takes no part in equality, hashing or repr, and only its
    # builder sets it: every list made through make_list starts without one
    e = (-1, -2, 3)
    a = SignedList(e, F(1, 4))
    assert a == SignedList(e) and hash(a) == hash(SignedList(e)) and repr(a) == repr(SignedList(e))
    assert make_list(e).known_norm is None
    assert all(b.known_norm is None for b in (a.negate(), scale(a, 3), involute(a), concat(a, a)))
    assert pickle.loads(pickle.dumps(a)).known_norm == F(1, 4)
    # norm returns a carried norm as it is, without the gcd sum
    assert norm(SignedList(e, F(7))) == F(7)


def test_json_round_trip():
    a = make_list([1, -2, 4])
    assert a.to_json() == ["1", "-2", "4"]
    assert SignedList.from_json(a.to_json()) == a
