"""Command-line front end.

Every fraction prints as "p/q" with positive reduced denominator, never
as a decimal.  Lists on the command line are comma-separated integers.
Exit codes: 0 on success / verification pass, 1 on a verification
failure (non-integral spec, catalog mismatch), 2 on usage errors, and
141 (128 + SIGPIPE, what a shell reports for a command killed by it)
with nothing on stderr when the reader closes stdout early.  JSON output
is stable-ordered and round-trips through the emitting types.  classify
--jobs N deals the head loop of each divisor-support sweep (length 5,
all three length-7 sweeps, length 9) out to N worker processes; the
length-5 family scan and the length-9 recombination run in the main
process, and results are identical for any N from 1 to the number of
CPUs.  separate without --k lists every k that has a witness: the
divisors > 1 of each split side's order |B| / gcd(B, lcm(c)), c the
other side's primitive part.  Each library function raises
ValueError on an input it does not take (the limits are in their
docstrings), and that is a usage error, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from functools import cache

from ratio_lab.bounds import build_table, least_mertens_bound, max_length_for_D
from ratio_lab.integrality import (
    RatioSpec,
    family_membership,
    is_integral,
    landau_min_max,
    to_list,
)
from ratio_lab.lists import involute, make_list, norm
from ratio_lab.liouville import (
    asymptotic_ratio_probe,
    build_liouville,
    liouville_norm_formula,
    n_sub_k,
)
from ratio_lab.search import (
    GOLDEN_NAMES,
    classify_length,
    load_golden,
    small_norm_catalog,
    verify_catalog,
)
from ratio_lab.separation import find_separations, separation_orders

__all__ = ["main", "run"]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_norm(args) -> int:
    a = make_list(args.list)
    value = norm(a)
    _emit(args, {"list": a.to_json(), "norm": _frac(value)}, [_frac(value)])
    return 0


def _cmd_involute(args) -> int:
    a = make_list(args.list)
    bar = involute(a)
    payload = {
        "list": a.to_json(),
        "involute": bar.to_json(),
        "norm": _frac(norm(a)),
        "involute_norm": _frac(norm(bar)),
    }
    _emit(args, payload, [f"{list(bar.elements)}  norm {_frac(norm(bar))}"])
    return 0


def _cmd_separate(args) -> int:
    a = make_list(args.list)
    if args.k is not None:
        witnesses = find_separations(a, args.k)
        payload = {
            "list": a.to_json(),
            "k": args.k,
            "separated": bool(witnesses),
            "witnesses": [w.to_json() for w in witnesses],
        }
        lines = [f"{args.k}-separated: {'yes' if witnesses else 'no'}"]
        for w in witnesses:
            lines.append(
                f"  a = {w.B} * {list(w.b_part.elements)} + {w.C} * {list(w.c_part.elements)}"
            )
        _emit(args, payload, lines)
        return 0
    ks = separation_orders(a)
    top = max(ks, default=1)
    payload = {"list": a.to_json(), "max_separation": top, "separated_for": ks}
    _emit(args, payload, [f"max separation: {top}", f"k with witnesses: {ks}"])
    return 0


def _cmd_check(args) -> int:
    spec = RatioSpec(numerator=tuple(args.num), denominator=tuple(args.den))
    lo, hi = landau_min_max(spec)
    integral = lo >= 0
    family = None
    if integral and spec.D == 1:
        family = family_membership(to_list(spec))
    payload = {
        "integral": integral,
        "D": spec.D,
        "family": family,
        "landau_min": lo,
        "landau_max": hi,
    }
    lines = [f"integral: {integral}  D: {spec.D}  family: {family}"]
    _emit(args, payload, lines)
    return 0 if integral else 1


def _cmd_bounds(args) -> int:
    table = build_table(args.nmax, args.rmax)
    g_row = {str(n): _frac(table.g[n]) for n in range(2, args.nmax + 1)}
    g1_row = {str(n): _frac(table.g1[n]) for n in range(2, args.nmax + 1)}
    payload = {"n_max": args.nmax, "G": g_row, "G1": g1_row}
    if least_mertens_bound(args.nmax + 1) > 1:  # the D = 2 cutoffs, if no length past the table has G(n) <= 1
        with contextlib.suppress(ValueError):  # and the table witnesses both crossings
            payload |= {"max_length_D2": max_length_for_D(table, 2), "max_length_D2_g1": max_length_for_D(table, 2, use_g1=True)}
    lines = ["n    G(n)        G(n;1)"]
    for n in range(2, args.nmax + 1):
        lines.append(f"{n:<4} {g_row[str(n)]:<11} {g1_row[str(n)]}")
    _emit(args, payload, lines)
    return 0


def _catalog_lines(cat) -> list[str]:
    lines = [f"{cat.name}: {len(cat.entries)} entries"]
    for e in cat.entries:
        lines.append(f"  {list(e.list.elements)}  norm {_frac(e.norm)}")
    return lines


def _cmd_classify(args) -> int:
    cat = classify_length(args.length, jobs=args.jobs)
    _emit(args, cat.to_json(), _catalog_lines(cat))
    try:
        golden = load_golden(f"sporadic_length{args.length}")
    except FileNotFoundError:
        return 0
    report = verify_catalog(cat, golden)
    if not report.ok:
        for line in report.failures + report.golden_diff:
            print(line, file=sys.stderr)
        return 1
    return 0


def _cmd_small_norm(args) -> int:
    cat = small_norm_catalog(args.length, args.threshold)
    _emit(args, cat.to_json(), _catalog_lines(cat))
    return 0


def _cmd_liouville(args) -> int:
    if args.probe is not None:
        upper, lower = asymptotic_ratio_probe(args.probe)
        n_k = n_sub_k(args.probe)
        payload = {
            "k": args.probe,
            "N_k": str(n_k),
            "upper": _frac(upper),
            "lower": _frac(lower),
            "ratio": float(upper / lower),
        }
        lines = [
            f"k={args.probe}  N_k={n_k}",
            f"upper {_frac(upper)}  lower {_frac(lower)}  ratio {float(upper / lower):.6f}",
        ]
        _emit(args, payload, lines)
        return 0
    ll = build_liouville(args.N)
    formula = liouville_norm_formula(args.N)
    direct = norm(ll.list)
    payload = {
        "N": args.N,
        "list": ll.list.to_json(),
        "length": ll.d_of_N,
        "norm_formula": _frac(formula),
        "norm_direct": _frac(direct),
        "agree": formula == direct,
    }
    lines = [
        f"L({args.N}) = {list(ll.list.elements)}",
        f"norm {_frac(direct)} (formula {_frac(formula)})",
    ]
    _emit(args, payload, lines)
    return 0 if formula == direct else 1


def _cmd_catalog(args) -> int:
    names = [args.name] if args.name else list(GOLDEN_NAMES)
    failures = []
    payloads = []
    lines = []
    for name in names:
        cat = load_golden(name)
        report = verify_catalog(cat)
        payloads.append(
            {
                "name": name,
                "entries": len(cat.entries),
                "ok": report.ok,
                "failures": list(report.failures),
            }
        )
        lines.extend(_catalog_lines(cat))
        lines.append(f"  verified: {'ok' if report.ok else 'FAILED'}")
        failures.extend(report.failures)
    _emit(args, {"catalogs": payloads}, lines)
    return 1 if failures else 0


@cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratio-lab",
        description="saw-tooth norms, factorial-ratio integrality, searches",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="exact norm of a list")
    p.add_argument("--list", type=_parse_int_list, required=True)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("involute", help="apply the reciprocal involution")
    p.add_argument("--list", type=_parse_int_list, required=True)
    p.set_defaults(fn=_cmd_involute)

    p = sub.add_parser("separate", help="k-separation witnesses")
    p.add_argument("--list", type=_parse_int_list, required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("check", help="factorial-ratio integrality check")
    p.add_argument("--num", type=_parse_int_list, required=True)
    p.add_argument("--den", type=_parse_int_list, required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("bounds", help="lower-bound tables for minimal norms")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--rmax", type=int, default=3)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("classify", help="sporadic norm-1/4 lists of a length")
    p.add_argument("--length", type=int, choices=(5, 7, 9), required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("small-norm", help="small-norm catalog at a lemma cutoff")
    p.add_argument("--length", type=int, choices=range(3, 9), required=True)
    p.add_argument("--threshold", type=_parse_fraction, required=True)
    p.set_defaults(fn=_cmd_small_norm)

    p = sub.add_parser("liouville", help="Liouville divisor lists and probe")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--N", type=int)
    mode.add_argument("--probe", type=int, metavar="K")
    p.set_defaults(fn=_cmd_liouville)

    p = sub.add_parser("catalog", help="print and verify bundled catalogs")
    p.add_argument("--name", choices=GOLDEN_NAMES)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # lift Python's 4300-digit cap on int-to-str conversion (3.10.7 on) while
    # the answer is computed and printed; parsing, above, keeps it, and the
    # work caps bound the answer's size
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
