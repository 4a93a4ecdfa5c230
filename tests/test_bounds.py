import random
from fractions import Fraction

import pytest

import ratio_lab.bounds as bounds
from ratio_lab.bounds import (
    INFINITY,
    build_table,
    g1_closed_form,
    g_nd_lower,
    g_tilde_lower,
    least_mertens_bound,
    max_length_for_D,
    mertens_product_bound,
)
from ratio_lab.arith import primes_upto
from ratio_lab.lists import make_list, norm

F = Fraction

TABLE = build_table(40, 3)

G_ROW = [F(1, 12), F(1, 8), F(1, 9), F(1, 6), F(17, 108), F(5, 27), F(37, 216), F(95, 432), F(2, 9), F(325, 1296)]
G1_ROW = [F(1, 6), F(1, 6), F(1, 6), F(7, 36), F(7, 36), F(17, 72), F(2, 9), F(55, 216), F(55, 216), F(8, 27)]


def test_reference_table_rows():
    assert [TABLE.g[n] for n in range(2, 12)] == G_ROW
    assert [TABLE.g1[n] for n in range(2, 12)] == G1_ROW


def test_table_seeds_and_monotonicity():
    for n in range(1, TABLE.n_max + 1):
        assert TABLE.gr[0][n] == F(n * n, 12)
        for r in range(TABLE.r_max):
            assert TABLE.gr[r][n] >= TABLE.gr[r + 1][n]
        assert TABLE.gr[TABLE.r_max][n] >= TABLE.g[n]
    for r in range(TABLE.r_max + 1):
        assert TABLE.gr[r][1] == F(1, 12)
    for n in range(2, TABLE.n_max + 1):
        assert TABLE.g1[n] >= TABLE.g[n]


def test_g1_closed_form_matches_row_and_list_norm():
    for n in range(1, 21):
        v = g1_closed_form(n)
        assert TABLE.gr[1][n] == v
        assert norm(make_list([(-2) ** j for j in range(n)])) == v
    assert g1_closed_form(1) == F(1, 12)
    assert g1_closed_form(3) == F(1, 8)
    assert g1_closed_form(7) == F(89, 384)


def _reference_g1(n):
    # the alternating series of the docstring, one Fraction per term
    alt = sum(Fraction((-1) ** j, 2**j) for j in range(n))
    return Fraction(1, 12) * (Fraction(n, 3) + Fraction(2, 3) * alt)


def test_g1_closed_form_matches_its_series():
    for n in range(1, 501):
        assert g1_closed_form(n) == _reference_g1(n), n


def _reference_table(n_max, r_max):
    # the recursion of the module docstring as a direct O(n^3) Fraction scan
    # over every split i and every j in its window
    primes = primes_upto((r_max + 1) ** 2 + 1)[: r_max + 1]

    gr: list[list[Fraction]] = [
        [Fraction(n * n, 12) for n in range(n_max + 1)]
    ]
    gr[0][0] = Fraction(0)
    for r in range(1, r_max + 1):
        p = Fraction(primes[r - 1])
        row = [Fraction(0), Fraction(1, 12)]
        prev = gr[r - 1]
        for n in range(2, n_max + 1):
            best = prev[n]
            for i in range(1, n):
                split = row[i] + prev[n - i]
                if split < best:
                    best = split
                j_min = min(row[j] for j in range(abs(n - 2 * i), n, 2))
                mixed = (1 - 1 / p) * split + j_min / p
                if mixed < best:
                    best = mixed
            row.append(best)
        gr.append(row)

    p = Fraction(primes[r_max])
    g: list[Fraction] = [Fraction(0), Fraction(1, 12)]
    top = gr[r_max]
    for n in range(2, n_max + 1):
        best = top[n]
        for i in range(1, n):
            split = g[i] + g[n - i]
            if split < best:
                best = split
            j_min = min(g[j] for j in range(abs(n - 2 * i), n, 2))
            mixed = (1 - 1 / p) * split + j_min / p
            if mixed < best:
                best = mixed
        g.append(best)

    g1: list[Fraction] = [Fraction(0), Fraction(0)]
    for n in range(2, n_max + 1):
        g1.append(min(g[i] + g[n - i] for i in range(1, n)))
    return gr, g, g1


@pytest.mark.parametrize("r_max", range(1, 6))
@pytest.mark.parametrize("n_max", [2, 3, 11, 40])
def test_row_kernel_matches_reference_scan(n_max, r_max):
    gr, g, g1 = _reference_table(n_max, r_max)
    table = build_table(n_max, r_max)
    assert [list(row) for row in table.gr] == gr
    assert list(table.g) == g
    assert list(table.g1) == g1


class _Started(Exception):
    pass


def test_build_table_validation(monkeypatch):
    def no_row(*args):
        raise _Started

    monkeypatch.setattr(bounds, "_row", no_row)
    for n_max in (1, 1025, 10**6):
        with pytest.raises(ValueError, match=f"n_max must be between 2 and 1024, got {n_max}$"):
            build_table(n_max, 3)
    for r_max in (0, 9, 10**6):
        with pytest.raises(ValueError, match=f"r_max must be between 1 and 8, got {r_max}$"):
            build_table(11, r_max)
    for n_max, r_max in ((2, 1), (1024, 8)):  # the ends of the ranges get as far as a row
        with pytest.raises(_Started):
            build_table(n_max, r_max)


def test_mertens_product_bound():
    assert mertens_product_bound(4) == F(1, 18)
    assert mertens_product_bound(2) == F(1, 18)
    assert mertens_product_bound(256) > 1
    # the dyadic envelope (evaluated at n = 2^m) first exceeds 1 at m = 8
    assert mertens_product_bound(128) <= 1


def _reference_mertens(n):
    # the product of the docstring, one Fraction per prime
    m = n.bit_length() - 1
    value = Fraction(n, 12)
    for p in primes_upto(m * m + 1)[:m]:
        value *= Fraction(p - 1, p + 1)
    return value


def test_mertens_product_bound_matches_its_product():
    # both ends of each dyadic range 2^m <= n < 2^(m+1)
    for m in range(1, 21):
        for n in (2**m, 2 ** (m + 1) - 1):
            assert mertens_product_bound(n) == _reference_mertens(n), n


def test_mertens_block_minima_do_not_fall():
    for m in range(1, 21):
        assert mertens_product_bound(2 ** (m + 1)) >= mertens_product_bound(2**m), m


def test_least_mertens_bound_matches_a_direct_scan():
    # the least bound over n..8192 covers the block of n and the next one
    # whole for n < 4096, where the two-point minimum must equal it
    suffix_min = {8192: mertens_product_bound(8192)}
    for n in range(8191, 1, -1):
        suffix_min[n] = min(mertens_product_bound(n), suffix_min[n + 1])
    for n in range(2, 4096):
        assert least_mertens_bound(n) == suffix_min[n], n
    # so G(n) <= 1 is ruled out past 226, not from 226 on
    assert mertens_product_bound(226) == F(565, 567)
    assert least_mertens_bound(227) > 1 >= least_mertens_bound(226)


def test_entries_are_lower_bounds_on_random_norms():
    rng = random.Random(5)
    for _ in range(400):
        length = rng.randint(1, 8)
        raw = [rng.choice([-1, 1]) * rng.randint(1, 200) for _ in range(length)]
        a = make_list(raw)
        if a.length == 0:
            continue
        assert norm(a) >= TABLE.g[a.length]


def test_witnessed_minima_respect_bounds():
    g7 = norm(make_list([1, -2, -3, 6, 9, -18, 36]))
    g8 = norm(make_list([1, -2, -3, 6, -5, 10, 15, -30]))
    assert g7 == F(5, 24)
    assert g8 == F(8, 45)
    assert TABLE.g[7] <= g7
    assert TABLE.g[8] <= g8
    assert mertens_product_bound(7) <= g7
    assert mertens_product_bound(8) <= g8


def test_g_nd_lower():
    assert g_nd_lower(TABLE, 9, 9) is INFINITY
    assert g_nd_lower(TABLE, 5, 0) == TABLE.g[5]
    for d in range(1, 8):
        for n in range(d + 1, 2 * d + 3):
            assert g_nd_lower(TABLE, n, d) == F(d + 1, 12)
        for n in range(2 * d + 3, min(2 * d + 8, TABLE.n_max + 1)):
            assert g_nd_lower(TABLE, n, d) >= F(d, 12) + F(1, 9)


def test_g_tilde_lower():
    for d in range(1, 6):
        for n in range(d + 2, 2 * d + 5):
            assert g_tilde_lower(TABLE, n, d) >= F(d + 2, 12)
        for n in range(2 * d + 5, min(2 * d + 10, TABLE.n_max + 1)):
            # the composition term certifies only (d+1)/9 per part-count,
            # which caps the bound below d/12 + 7/36 when d <= 2
            certified = min(F(d, 12) + F(7, 36), F(d + 1, 9))
            assert g_tilde_lower(TABLE, n, d) >= certified
        if d >= 3:
            for n in range(2 * d + 5, min(2 * d + 10, TABLE.n_max + 1)):
                assert g_tilde_lower(TABLE, n, d) >= F(d, 12) + F(7, 36)


def test_lower_bounds_refuse_a_too_small_table():
    table = build_table(10)
    for lower in (g_nd_lower, g_tilde_lower):
        with pytest.raises(ValueError, match="table too small"):
            lower(table, 20, 1)


def test_g_tilde_dimension_inequality_for_D1():
    # sum-zero lists of excess D escape dimension 3D^2-1 only with norm
    # above D^2/4; checked at D=1 for the lengths the table covers
    D = 1
    d = 3 * D * D - 1
    for n in range(d + 2, TABLE.n_max + 1):
        assert g_tilde_lower(TABLE, n, d) >= F(D * D, 4) + F(1, 12)


def test_max_length_for_D():
    table = build_table(256, 3)
    assert max_length_for_D(table, 2) == 81
    assert max_length_for_D(table, 2, use_g1=True) == 75
    assert max_length_for_D(table, 1) == 10
    with pytest.raises(ValueError):
        max_length_for_D(TABLE, 3)  # table too small to cross 9/4
    # the r_max = 2 row is above 1 at 90..94 but not at 96: the cutoff depends on n_max
    assert [max_length_for_D(build_table(n, 2), 2) for n in (90, 95, 98)] == [89, 89, 97]
    with pytest.raises(ValueError):
        max_length_for_D(build_table(96, 2), 2)
