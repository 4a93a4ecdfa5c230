"""Tests of the benchmark's own checkers, tracer and harness.

    python3 -m pytest perfbench -q

Each checker must pass a correct output and reject a corrupted one; a
tiny run of each workload must complete and report sane counts.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

F = Fraction


def paper(n):
    return checks.paper_catalog(f"sporadic_length{n}", ROOT)


def cli_stdout(lists):
    return json.dumps({"entries": [{"list": [str(x) for x in e]} for e in lists]})


# -- arithmetic --------------------------------------------------------------


def test_exact_norm_known_values():
    assert checks.exact_norm([4, -6, 9]) == F(43, 216)
    assert checks.exact_norm([1, -2, -3, 6]) == F(1, 9)
    assert checks.exact_norm([1]) == F(1, 12)
    for lists in (paper(5), paper(7), paper(9)):
        assert all(checks.exact_norm(e) == F(1, 4) for e in lists)


def test_landau_and_families():
    # (30n)! n! / ((15n)! (10n)! (6n)!) is integral (Chebyshev), so is (3n)!/n!^3
    assert checks.landau_extremes((1, 30), (6, 10, 15))[0] >= 0
    assert checks.landau_extremes((3,), (1, 1, 1))[0] >= 0
    # (2n)! (5n)! / (n! (3n)!^2) is not: f(1/3) = 0 + 1 - 0 - 2 < 0
    assert checks.landau_extremes((2, 5), (1, 3, 3))[0] < 0
    assert checks.family_of((5, -2, -3)) == "family1"
    assert checks.family_of((2 * 3, 2 * 5, -3, -5, -8)) == "family2"
    assert checks.family_of((2 * 5, 3, -5, -6, -2)) == "family3"
    assert all(checks.family_of(e) is None for e in paper(5))


def test_pairable():
    assert checks.is_pairable((1, -2, 3, -6, 5))
    assert checks.is_pairable((3, -6, 1, -2))
    assert not checks.is_pairable((1, -3, -5, 15))


def test_sum_zero_brute_force_small():
    # sum-zero triples over the divisors of 2: [1, 1, -2] only, up to sign
    assert checks.sum_zero_keys(2, 3) == {(-2, 1, 1)}


# -- checkers reject corrupted outputs -----------------------------------------


def test_classify_checkers_reject_a_swapped_entry():
    found = [e for e in paper(7) if all(432 % abs(x) == 0 for x in e)]
    swapped = found[:2] + [(1, 2, 4, 8, -3, -5, -7)]
    assert checks.exact_norm(swapped[-1]) != F(1, 4)
    assert checks.check_type_b7(swapped, 432, paper(7))
    family = [e for e in paper(5) if checks._shape_a_2a_b_3b(e, 108, 72)]
    sweep = [k for k in map(checks.key, paper(5)) if sum(1800 % abs(x) == 0 for x in k) >= 4]
    sweep += sorted(checks.family_members_5(1800))
    tags = ["sporadic"] * len(family) + ["family" if checks.family_of(e) else "sporadic" for e in sweep]
    assert checks.check_sweep5((family, sweep, tags), 1800, paper(5)) == []
    bad = sweep[:-1] + [(1, 3, 8, -5, -7)]
    assert checks.exact_norm(bad[-1]) != F(1, 4)
    assert checks.check_sweep5((family, bad, tags), 1800, paper(5))


def test_type_b_checker_rejects_missing_and_foreign_lists():
    found = [e for e in paper(7) if all(432 % abs(x) == 0 for x in e)]
    assert len(found) == 3
    assert checks.check_type_b7(found, 432, paper(7)) == []
    assert checks.check_type_b7(found[1:], 432, paper(7))
    assert checks.check_type_b7(found + [(1, -2, -3, 6, 9, -18, 36)], 432, paper(7))


def test_lemma_checker_rejects_dropped_entry():
    four = [(e, checks.exact_norm(e)) for e in checks.paper_catalog("small_norm_length4", ROOT)]
    brute = checks.small_norm_keys(4, checks.LEMMA_BRUTE_MODULI[4])
    assert checks.check_small_norm(4, four, brute) == []
    dropped = [entry for entry in four if checks.key(entry[0]) in brute][0]
    problems = checks.check_small_norm(4, [e for e in four if e is not dropped], brute)
    assert any("brute force" in p for p in problems)
    eight = [(checks.PAPER_LENGTH8[1], F(8, 45))]
    assert checks.check_small_norm(8, eight, checks.small_norm_keys(8, 6)) == []
    assert checks.check_small_norm(8, [], set())


def test_valuation_checker_rejects_forged_witness():
    num, den = (2, 5), (1, 3, 3)  # not integral: f(1/3) = -1
    first = checks.first_valuation_failure(num, den, 4)
    assert first is not None
    assert checks.check_valuation((num, den), 4, first) == []
    assert checks.check_valuation((num, den), 4, (1, 5))
    assert checks.check_valuation((num, den), 4, None)
    integral = ((1, 30), (6, 10, 15))
    assert checks.check_valuation(integral, 4, None) == []
    assert checks.check_valuation(integral, 4, (1, 2))


def test_norm_checker_rejects_mismatch():
    assert checks.check_norm((4, -6, 9), F(43, 216)) == []
    assert checks.check_norm((4, -6, 9), F(43, 215))


def test_sum_zero_checker_rejects_wrong_enumeration():
    expected = checks.sum_zero_keys(12, 4)
    assert checks.check_sum_zero(set(expected), expected, "m=12") == []
    assert checks.check_sum_zero(set(list(expected)[1:]), expected, "m=12")
    assert checks.check_sum_zero(expected | {(-5, 1, 1, 3)}, expected, "m=12")


def test_cli_checker_rejects_wrong_answers():
    norm = json.dumps({"norm": "43/216"})
    assert checks.check_cli(("norm", (4, -6, 9)), 0, norm) == []
    assert checks.check_cli(("norm", (4, -6, 10)), 0, norm)
    spec = ((1, 30), (6, 10, 15))
    lo, hi = checks.landau_extremes(*spec)
    out = {"integral": True, "landau_min": lo, "landau_max": hi, "family": "sporadic"}
    assert checks.check_cli(("check", *spec), 0, json.dumps(out)) == []
    assert checks.check_cli(("check", *spec), 1, json.dumps(out))
    assert checks.check_cli(("check", *spec), 0, json.dumps({**out, "family": "family2"}))
    own = checks.liouville_elements(6)
    out = {"list": [str(x) for x in own], "norm_formula": "1/9", "norm_direct": "1/9"}
    assert checks.check_cli(("liouville", 6), 0, json.dumps(out)) == []
    assert checks.check_cli(("liouville", 6), 0, json.dumps({**out, "norm_formula": "1/8"}))


def test_integrality_checker_rejects_wrong_landau():
    spec = ((1, 30), (6, 10, 15))
    lo_hi = checks.landau_extremes(*spec)

    class Spec:
        numerator, denominator = spec

    assert checks.check_integrality(spec, lo_hi, Spec) == []
    assert checks.check_integrality(spec, (lo_hi[0] - 1, lo_hi[1]), Spec)
    assert checks.check_integrality(spec, lo_hi, None)


# -- tracer ------------------------------------------------------------------


def test_tracer_counts_nested_calls_and_restores_bindings():
    import ratio_lab.lists
    import ratio_lab.search

    original = ratio_lab.search.make_list
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ratio_lab.search.make_list is not original
        result = ratio_lab.search.sum_zero_divisor_lists(12, 4)
    finally:
        tracer.uninstall()
    assert ratio_lab.search.make_list is original and ratio_lab.lists.make_list is original
    values = spans.per_layer_metrics(tracer, rounds=1)
    assert values["search.sum_zero_divisor_lists.calls"] == 1
    assert values["search.sum_zero_divisor_lists.lists"] == len(result)
    assert values["search.sum_zero_divisor_lists.materialised"] >= len(result)
    assert values["lists.make_list.calls"] >= values["search.sum_zero_divisor_lists.materialised"]
    assert 0 <= values["lists.make_list.self_s"] <= values["search.sum_zero_divisor_lists.self_s"] + 1


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.per_layer_names()


# -- tiny runs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["classify", "minimal-norms", "certify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else [(n, u) for n, u, _ in spans.per_layer_names()]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(expected)
    # the only failures are the length-6 enumerations, two per certify round
    if workload == "certify":
        assert result["failed"] > 0 and result["failed"] % 2 == 0
    else:
        assert result["failed"] == 0
