"""Independent arithmetic and output checkers for the ratio-lab benchmark.

Nothing here calls ratio_lab.  Program outputs are read through their
attributes only (`.elements`, `.entries`, `.norm`, ...) and compared with
values computed here from the definitions:

- the saw-tooth norm as one integer sum over the common denominator
  lcm(|a_i|)^2, instead of the program's one Fraction per pair;
- Landau's step function scanned in integers, floor(a*m/v), instead of
  one Fraction per breakpoint;
- Legendre's formula for prime valuations with a separate prime sieve;
- pairability by largest-first matching, the three infinite families by
  their closed forms, and sum-zero lists by brute-force enumeration.

Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm

QUARTER = Fraction(1, 4)

# Facts stated in the paper, kept as data so that the checks do not depend
# on the program's own output.
PAPER_SPORADIC_COUNTS = {5: 29, 7: 21, 9: 2}
PAPER_LENGTH8 = (Fraction(8, 45), (1, -2, -3, 6, -5, 10, 15, -30))
PAPER_LENGTH4_EXTRA = (1, -3, -5, 15)
PAPER_LENGTH4_SWEEP = {
    Fraction(1, 6): 9,
    Fraction(19, 108): 4,
    Fraction(17, 96): 2,
    Fraction(13, 72): 4,
}
PAPER_G_ROW = "1/12 1/8 1/9 1/6 17/108 5/27 37/216 95/432 2/9 325/1296"
PAPER_G1_ROW = "1/6 1/6 1/6 7/36 7/36 17/72 2/9 55/216 55/216 8/27"
PAPER_CUTOFFS = (81, 75)  # max_length_for_D(table, 2) from the G and G(n;1) rows

# (length, cutoff, strict) for each lemma catalog
LEMMA_CUTOFFS = {
    4: (Fraction(11, 60), True),
    5: (Fraction(13, 72), False),
    8: (Fraction(8, 45), False),
}
# the shape each lemma catalog is restricted to: pairable or not
LEMMA_PAIRABLE = {4: False, 5: True, 8: None}
# small sub-supports on which a brute-force scan must find nothing the
# catalog misses: length -> modulus
LEMMA_BRUTE_MODULI = {4: 72, 5: 36, 8: 6}


# ---------------------------------------------------------------------------
# arithmetic


def key(elements) -> tuple[int, ...]:
    """Sorted elements, minimised over the global sign flip."""
    els = tuple(sorted(elements))
    return min(els, tuple(sorted(-e for e in els)))


def exact_norm(elements) -> Fraction:
    """N(a) = sum over ordered pairs gcd(a_i, a_j)^2 / (12 a_i a_j), summed
    in integers over the common denominator 12 * lcm(|a_i|)^2."""
    els = list(elements)
    if not els or 0 in els:
        raise ValueError("need a non-empty list of nonzero integers")
    big = reduce(lcm, (abs(e) for e in els))
    weights = [big // e for e in els]
    cross = 0
    for i in range(len(els)):
        ei, wi = els[i], weights[i]
        for j in range(i + 1, len(els)):
            g = gcd(ei, els[j])
            cross += g * g * wi * weights[j]
    return Fraction(len(els) * big * big + 2 * cross, 12 * big * big)


def float_norm(elements) -> float:
    els = list(elements)
    total = len(els) / 12.0
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            g = gcd(els[i], els[j])
            total += g * g / (6.0 * els[i] * els[j])
    return total


def is_degenerate(elements) -> bool:
    s = set(elements)
    return 0 in s or any(-x in s for x in s)


def is_primitive(elements) -> bool:
    return reduce(gcd, (abs(e) for e in elements), 0) == 1


def is_pairable(elements) -> bool:
    """Splits into couples (t, -2t), plus one leftover when the length is
    odd.  The element of largest |value| can only be the large half of a
    couple (or the leftover), so matching largest-first is exact."""
    els = list(elements)
    leftovers = set(els) if len(els) % 2 else {None}
    for leftover in leftovers:
        rest = list(els)
        if leftover is not None:
            rest.remove(leftover)
        rest.sort(key=abs)
        ok = True
        while rest and ok:
            big = rest.pop()
            half = -big // 2
            if big % 2 or half not in rest:
                ok = False
            else:
                rest.remove(half)
        if ok:
            return True
    return False


def split_spec(elements) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(numerator, denominator) of a sum-zero list, the longer side below."""
    pos = tuple(sorted(e for e in elements if e > 0))
    neg = tuple(sorted(-e for e in elements if e < 0))
    return (pos, neg) if len(pos) <= len(neg) else (neg, pos)


def landau_extremes(num, den) -> tuple[int, int]:
    """(min, max) of f(x) = sum floor(a x) - sum floor(b x) over [0, 1),
    evaluated at every breakpoint m/v in integers."""
    points = set()
    for v in set(num) | set(den):
        for m in range(1, v):
            g = gcd(m, v)
            points.add((m // g, v // g))
    lo = hi = 0
    for m, v in points:
        f = sum(a * m // v for a in num) - sum(b * m // v for b in den)
        lo = min(lo, f)
        hi = max(hi, f)
    return lo, hi


def primes_upto(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    out = []
    for p in range(2, limit + 1):
        if flags[p]:
            out.append(p)
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return out


def legendre(m: int, p: int) -> int:
    """v_p(m!) = sum_t floor(m / p^t)."""
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def valuation_excess(num, den, n: int, p: int) -> int:
    """v_p of the ratio at n: sum v_p((a n)!) - sum v_p((b n)!)."""
    return sum(legendre(a * n, p) for a in num) - sum(legendre(b * n, p) for b in den)


def first_valuation_failure(num, den, n_max: int):
    """First (n, p), n ascending then p ascending, with a negative
    valuation; None when there is none for n <= n_max."""
    biggest = max(num + den)
    primes = primes_upto(biggest * n_max)
    for n in range(1, n_max + 1):
        for p in primes:
            if p > biggest * n:
                break
            if valuation_excess(num, den, n, p) < 0:
                return (n, p)
    return None


def family_of(elements) -> str | None:
    """'family1/2/3' when a primitive sum-zero D = 1 list is a member of
    one of the three infinite families, else None.

    family1: [a+b, -a, -b]; family2: [2a, 2b, -a, -b, -(a+b)];
    family3: [2a, b, -a, -2b, -(a-b)] with a > b > 0; all up to sign.
    """
    if len(elements) == 3:
        return "family1"
    if len(elements) != 5:
        return None
    num, den = split_spec(elements)
    if len(num) != 2:
        return None
    p1, p2 = num
    den = sorted(den)
    if p1 % 2 == 0 and p2 % 2 == 0:
        a, b = p1 // 2, p2 // 2
        if sorted((a, b, a + b)) == den:
            return "family2"
    for x, y in ((p1, p2), (p2, p1)):
        if x % 2 == 0:
            a, b = x // 2, y
            if a > b and sorted((a, 2 * b, a - b)) == den:
                return "family3"
    return None


def family_members_5(modulus: int) -> set[tuple[int, ...]]:
    """Keys of every length-5 family member with at least four elements
    dividing the modulus (then a and b divide it too)."""
    divs = divisors(modulus)
    out = set()
    for a in divs:
        for b in divs:
            if gcd(a, b) != 1:
                continue
            shapes = [(2 * a, 2 * b, -a, -b, -(a + b))]
            if a > b:
                shapes.append((2 * a, b, -a, -2 * b, -(a - b)))
            for s in shapes:
                if not is_degenerate(s) and sum(modulus % abs(e) == 0 for e in s) >= 4:
                    out.add(key(s))
    return out


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def signed_divisors(m: int) -> list[int]:
    divs = divisors(m)
    return sorted(divs + [-d for d in divs])


def sum_zero_keys(modulus: int, length: int) -> set[tuple[int, ...]]:
    """Every primitive non-degenerate sum-zero list of the length with all
    elements dividing the modulus, as keys, by brute force."""
    vals = signed_divisors(modulus)
    valset = set(vals)
    out = set()
    for combo in combinations_with_replacement(vals, length - 1):
        last = -sum(combo)
        if last not in valset or last < combo[-1]:
            continue
        full = combo + (last,)
        if not is_degenerate(full) and is_primitive(full):
            out.add(key(full))
    return out


def small_norm_keys(length: int, modulus: int) -> set[tuple[int, ...]]:
    """Brute force: every primitive non-degenerate list of the length over
    the signed divisors of the modulus that the lemma catalog of that
    length must hold (below its cutoff, of its pairability)."""
    cutoff, strict = LEMMA_CUTOFFS[length]
    want_pairable = LEMMA_PAIRABLE[length]
    top = float(cutoff) + 1e-9
    out = set()
    for combo in combinations_with_replacement(signed_divisors(modulus), length):
        if is_degenerate(combo) or not is_primitive(combo) or float_norm(combo) > top:
            continue
        if want_pairable is not None and is_pairable(combo) != want_pairable:
            continue
        value = exact_norm(combo)
        if value < cutoff or (not strict and value == cutoff):
            out.add(key(combo))
    return out


def liouville_elements(n: int) -> tuple[int, ...]:
    """{lambda(d) d : d | n} with lambda(d) = (-1)^Omega(d)."""
    out = []
    for d in divisors(n):
        omega, m, p = 0, d, 2
        while m > 1:
            while m % p == 0:
                m //= p
                omega += 1
            p += 1
        out.append(d if omega % 2 == 0 else -d)
    return tuple(out)


def support_modulus(n: int, k: int) -> int:
    """prod over primes p <= k of p^(r (n-1)), p^r the largest power <= k."""
    out = 1
    for p in primes_upto(k):
        r, q = 0, p
        while q <= k:
            q *= p
            r += 1
        out *= p ** (r * (n - 1))
    return out


def paper_catalog(name: str, root: str) -> list[tuple[int, ...]]:
    """The lists of a shipped catalog, read as plain JSON."""
    path = os.path.join(root, "src", "ratio_lab", "catalogs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(x) for x in e["list"]) for e in json.load(fh)["entries"]]


# ---------------------------------------------------------------------------
# checkers


def check_d1_list(elements, length: int) -> list[str]:
    """A sporadic-style D = 1 answer: length, sum zero, primitive,
    non-degenerate, norm exactly 1/4 and integral by Landau."""
    els = tuple(elements)
    errs = []
    if len(els) != length:
        errs.append(f"{els}: length {len(els)} != {length}")
    if sum(els) != 0:
        errs.append(f"{els}: sum {sum(els)} != 0")
    if not is_primitive(els):
        errs.append(f"{els}: not primitive")
    if is_degenerate(els):
        errs.append(f"{els}: degenerate")
    if errs:
        return errs
    if exact_norm(els) != QUARTER:
        errs.append(f"{els}: norm {exact_norm(els)} != 1/4")
    num, den = split_spec(els)
    if len(den) - len(num) != 1:
        errs.append(f"{els}: D = {len(den) - len(num)} != 1")
    elif landau_extremes(num, den)[0] < 0:
        errs.append(f"{els}: Landau minimum is negative")
    return errs


def check_distinct(lists) -> list[str]:
    keys = [key(els) for els in lists]
    return [] if len(set(keys)) == len(keys) else ["entries repeat up to sign"]


def check_cli(query, code: int, stdout: str) -> list[str]:
    """`ratio-lab --format json` output for one query: ("norm", elements),
    ("check", numerator, denominator) or ("liouville", N)."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"{query}: unreadable output {stdout!r}"]
    kind = query[0]
    if kind == "norm":
        want = (0, str(exact_norm(query[1])))
        got = (code, out.get("norm"))
    elif kind == "check":
        num, den = query[1], query[2]
        lo, hi = landau_extremes(num, den)
        family = None  # only family vs sporadic: the family numbering is the program's own
        if lo >= 0 and len(den) - len(num) == 1:
            family = "family" if family_of(num + tuple(-b for b in den)) else "sporadic"
        got_family = out.get("family")
        if got_family and got_family.startswith("family"):
            got_family = "family"
        want = (0 if lo >= 0 else 1, lo >= 0, lo, hi, family)
        got = (code, out.get("integral"), out.get("landau_min"), out.get("landau_max"), got_family)
    else:
        own = liouville_elements(query[1])
        want = (0, sorted(own), str(exact_norm(own)), str(exact_norm(own)))
        got = (code, sorted(int(x) for x in out.get("list", [])), out.get("norm_formula"), out.get("norm_direct"))
    return [] if got == want else [f"{query}: CLI gave {got}, expected {want}"]


def check_sweep5(result, modulus: int, paper5, a_bound: int = 108, b_bound: int = 72) -> list[str]:
    """family_search_5(a_bound, b_bound) + divisor_sweep_5(modulus) + tags.

    Every list is a D = 1 norm-1/4 list; the tags agree with the closed
    forms; the family scan holds exactly the paper's sporadics of shape
    [a,-2a,b,-3b,a+2b] in its box; the divisor sweep holds exactly the
    paper's sporadics and the family members that have four elements
    dividing the modulus.
    """
    family_lists, sweep_lists, tags = result
    errs = []
    for els in family_lists + sweep_lists:
        errs += check_d1_list(els, 5)
    for part in (family_lists, sweep_lists):
        errs += check_distinct(part)
    for els, tag in zip(family_lists + sweep_lists, tags):
        if (tag == "sporadic") != (family_of(els) is None):
            errs.append(f"{els}: tagged {tag}, closed forms say {family_of(els)}")
    paper_keys = {key(e) for e in paper5}
    expected_family_scan = {
        key(e) for e in paper5 if _shape_a_2a_b_3b(e, a_bound, b_bound)
    }
    if {key(e) for e in family_lists} != expected_family_scan:
        errs.append("family_search_5: differs from the paper's lists of its shape")
    expected_sweep = {
        k for k in paper_keys if sum(modulus % abs(e) == 0 for e in k) >= 4
    } | family_members_5(modulus)
    if {key(e) for e in sweep_lists} != expected_sweep:
        errs.append(f"divisor_sweep_5({modulus}): differs from the paper's lists on that support")
    return errs


def _shape_a_2a_b_3b(elements, a_bound: int, b_bound: int) -> bool:
    """Is the list [a, -2a, b, -3b, a+2b] (up to sign) within the box?"""
    for sign in (1, -1):
        s = sorted(sign * e for e in elements)
        for a in s:
            for b in s:
                if abs(a) <= a_bound and abs(b) <= b_bound and gcd(a, b) == 1:
                    if sorted([a, -2 * a, b, -3 * b, a + 2 * b]) == s:
                        return True
    return False


def check_type_b7(lists, modulus: int, paper7) -> list[str]:
    """The norm-1/4 part of sum_zero_divisor_lists(modulus, 7): every list
    a D = 1 norm-1/4 list, and exactly the paper's length-7 lists whose
    elements all divide the modulus (length 7 has no infinite family)."""
    errs = []
    for els in lists:
        errs += check_d1_list(els, 7)
    errs += check_distinct(lists)
    expected = {key(e) for e in paper7 if all(modulus % abs(x) == 0 for x in e)}
    if {key(e) for e in lists} != expected:
        errs.append(f"type-B sweep over {modulus}: differs from the paper's lists on that support")
    return errs


def check_small_norm(length: int, entries, brute_keys) -> list[str]:
    """One lemma catalog, given as (elements, stored norm) pairs."""
    cutoff, strict = LEMMA_CUTOFFS[length]
    errs = []
    lists = [tuple(els) for els, _ in entries]
    for els, stored in entries:
        if len(els) != length or not is_primitive(els) or is_degenerate(els):
            errs.append(f"{els}: not a primitive non-degenerate length-{length} list")
            continue
        value = exact_norm(els)
        if value != stored:
            errs.append(f"{els}: stored norm {stored} != {value}")
        if value > cutoff or (strict and value == cutoff):
            errs.append(f"{els}: norm {value} not below the cutoff {cutoff}")
        want = LEMMA_PAIRABLE[length]
        if want is not None and is_pairable(els) != want:
            errs.append(f"{els}: pairable is {not want}")
    errs += check_distinct(lists)
    keys = {key(e) for e in lists}
    missing = brute_keys - keys
    if missing:
        errs.append(f"length {length}: brute force finds {len(missing)} lists the catalog misses, e.g. {min(missing)}")
    if length == 4:
        sweep = [e for e in lists if all(1728 % abs(x) == 0 for x in e)]
        dist = {}
        for e in sweep:
            dist[exact_norm(e)] = dist.get(exact_norm(e), 0) + 1
        if dist != PAPER_LENGTH4_SWEEP:
            errs.append(f"length 4: sweep part norms {dist} differ from the paper")
        if key(PAPER_LENGTH4_EXTRA) not in keys:
            errs.append("length 4: [1,-3,-5,15] missing")
    elif length == 8:
        value, witness = PAPER_LENGTH8
        if keys != {key(witness)} or [exact_norm(e) for e in lists] != [value]:
            errs.append("length 8: not the single list at 8/45")
    return errs


def check_bounds(rows, cutoffs, g1_values) -> list[str]:
    """G and G(n;1) rows for n = 2..11, the D = 2 cutoffs, and the G_1
    closed form against the norm of [(-2)^j : j < n]."""
    g_row, g1_row = rows
    errs = []
    if " ".join(map(str, g_row)) != PAPER_G_ROW:
        errs.append(f"G row {g_row} differs from the paper")
    if " ".join(map(str, g1_row)) != PAPER_G1_ROW:
        errs.append(f"G(n;1) row {g1_row} differs from the paper")
    if tuple(cutoffs) != PAPER_CUTOFFS:
        errs.append(f"D = 2 cutoffs {cutoffs} != {PAPER_CUTOFFS}")
    for n, value in g1_values:
        if value != exact_norm([(-2) ** j for j in range(n)]):
            errs.append(f"g1_closed_form({n}) = {value} differs from the norm of [(-2)^j]")
    return errs


def check_norm(elements, value) -> list[str]:
    """`norm` and `norm_by_integration` are each checked against the
    integer form, so they also agree with each other."""
    own = exact_norm(elements)
    return [] if value == own else [f"{tuple(elements)}: norm {value} != {own}"]


def check_integrality(spec, extremes, quarter_spec) -> list[str]:
    """landau_min_max equals the integer scan; norm_quarter_check gives the
    spec back exactly when the norm is 1/4 exactly when f >= 0."""
    num, den = spec
    errs = []
    own = landau_extremes(num, den)
    if tuple(extremes) != own:
        errs.append(f"{spec}: landau_min_max {extremes} != {own}")
    integral = own[0] >= 0
    quarter = exact_norm(num + tuple(-b for b in den)) == QUARTER
    if integral != quarter:
        errs.append(f"{spec}: Landau says integral={integral}, norm says {quarter}")
    got = None if quarter_spec is None else (tuple(quarter_spec.numerator), tuple(quarter_spec.denominator))
    if got != (spec if quarter else None):
        errs.append(f"{spec}: norm_quarter_check gave {got}")
    return errs


def check_valuation(spec, n_max: int, result) -> list[str]:
    """None for integral specs; otherwise the first (n, p) with a negative
    valuation, which the Legendre sums confirm."""
    num, den = spec
    integral = landau_extremes(num, den)[0] >= 0
    if integral:
        return [] if result is None else [f"{spec}: integral, but the oracle reports {result}"]
    if result is not None:
        n, p = result
        if valuation_excess(num, den, n, p) >= 0:
            return [f"{spec}: witness {result} has a nonnegative valuation"]
    if result != first_valuation_failure(num, den, n_max):
        return [f"{spec}: oracle {result} is not the first failure up to n = {n_max}"]
    return []


def check_separation(elements, found, max_sep, support) -> list[str]:
    """found: k -> [(B, b, C, c, k-reduced merged norm triple)], from
    find_separations and check_decomposition.  Each witness rebuilds the
    list and satisfies the norm identity; max_separation agrees with the
    witnesses; the elements divide the support bound of the list."""
    els = tuple(elements)
    errs = []
    own_total = exact_norm(els)
    for k, witnesses in found.items():
        for B, b, C, c, (nb, nc, n_merged) in witnesses:
            rebuilt = [B * e for e in b] + [C * e for e in c]
            if sorted(rebuilt) != sorted(els):
                errs.append(f"{els}: k={k} witness {B}*{b} + {C}*{c} does not rebuild the list")
                continue
            if (B % k == 0) == (C % k == 0):
                errs.append(f"{els}: k={k} witness needs exactly one coefficient divisible by k")
            rb = [(B // k if B % k == 0 else B) * e for e in b]
            rc = [(C // k if C % k == 0 else C) * e for e in c]
            merged = _cancel(rb + rc)
            own_b, own_c = exact_norm(b), exact_norm(c)
            own_m = exact_norm(merged) if merged else Fraction(0)
            if (nb, nc, n_merged) != (own_b, own_c, own_m):
                errs.append(f"{els}: k={k} decomposition norms {(nb, nc, n_merged)} != {(own_b, own_c, own_m)}")
            if own_total != (1 - Fraction(1, k)) * (own_b + own_c) + own_m / k:
                errs.append(f"{els}: k={k} norm identity fails")
    separated = [k for k, w in found.items() if w]
    if any(k > max_sep for k in separated) or (max_sep in found and not found[max_sep]):
        errs.append(f"{els}: max_separation {max_sep} disagrees with witnesses for {separated}")
    k_bound = max(max_sep, 2)
    n, k, modulus = support
    if (n, k) != (len(els), k_bound) or modulus != support_modulus(n, k):
        errs.append(f"{els}: support_bound{(n, k)} modulus {modulus} != {support_modulus(len(els), k_bound)}")
    elif any(modulus % abs(e) for e in els):
        errs.append(f"{els}: at most {k_bound}-separated but not within support modulus {modulus}")
    return errs


def _cancel(elements) -> list[int]:
    """Remove (x, -x) pairs."""
    counts = {}
    for e in elements:
        counts[e] = counts.get(e, 0) + 1
    out = []
    for v in {abs(e) for e in elements}:
        d = counts.get(v, 0) - counts.get(-v, 0)
        out += [v if d > 0 else -v] * abs(d)
    return out


def check_liouville(n: int, elements, d_of_n: int, formula) -> list[str]:
    own = liouville_elements(n)
    errs = []
    if sorted(elements) != sorted(own):
        errs.append(f"build_liouville({n}) list differs from {{lambda(d) d : d | N}}")
    if d_of_n != len(own):
        errs.append(f"build_liouville({n}).d_of_N = {d_of_n} != {len(own)}")
    if formula != exact_norm(own):
        errs.append(f"liouville_norm_formula({n}) = {formula} != {exact_norm(own)}")
    return errs


def check_verify(name: str, entries, report, paper_counts: dict) -> list[str]:
    """verify_catalog on a shipped catalog: ok, every entry checked, and
    the entries pass the checks here."""
    errs = []
    if not report.ok or report.checked != len(entries):
        errs.append(f"verify_catalog({name}): ok={report.ok}, checked {report.checked} of {len(entries)}")
    for els, stored in entries:
        if exact_norm(els) != stored:
            errs.append(f"{name}: {els} stored norm {stored} != {exact_norm(els)}")
    if name.startswith("sporadic_length"):
        length = int(name[len("sporadic_length"):])
        if len(entries) != paper_counts[length]:
            errs.append(f"{name}: {len(entries)} entries, paper has {paper_counts[length]}")
        for els, _ in entries:
            errs += check_d1_list(els, length)
    return errs


def check_sum_zero(result_keys, expected_keys, label: str) -> list[str]:
    if result_keys == expected_keys:
        return []
    return [
        f"{label}: {len(result_keys)} lists, brute force finds {len(expected_keys)} "
        f"({len(expected_keys - result_keys)} missing, {len(result_keys - expected_keys)} extra)"
    ]
