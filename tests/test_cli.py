import json
import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest

from ratio_lab.cli import _build_parser, run
from ratio_lab.lists import make_list, norm


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's ratio_lab."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_norm_text(capsys):
    code, out = invoke(capsys, "norm", "--list", "4,-6,9")
    assert code == 0
    assert out.strip() == "43/216"


def test_norm_json_round_trip(capsys):
    code, out = invoke(capsys, "--format", "json", "norm", "--list", "1,-6,-10,-15,30")
    assert code == 0
    data = json.loads(out)
    assert data["norm"] == "1/4"
    assert [int(s) for s in data["list"]] == [1, -6, -10, -15, 30]


def test_check_chebyshev(capsys):
    code, out = invoke(capsys, "--format", "json", "check", "--num", "30,1", "--den", "15,10,6")
    assert code == 0
    data = json.loads(out)
    assert data["integral"] is True
    assert data["D"] == 1
    assert data["family"] == "sporadic"


def test_check_failure_exit(capsys):
    code, out = invoke(capsys, "--format", "json", "check", "--num", "2,3", "--den", "1,4")
    assert code == 1
    assert json.loads(out)["integral"] is False


@pytest.mark.parametrize(
    "num, den, message",
    [
        ("1000000000,1000000000", "1999999999,1", "2999999997 breakpoints times 4 entries"),
        # under 10^6 breakpoints, but each sums over 1400 entries
        (
            ",".join(map(str, range(1, 1400, 2))),
            ",".join(map(str, [*range(2, 1400, 2), 700])),
            "977901 breakpoints times 1400 entries",
        ),
    ],
    ids=["large-entries", "many-entries"],
)
def test_check_breakpoint_cap_is_usage_error(capsys, num, den, message):
    assert run(["check", "--num", num, "--den", den]) == 2
    assert f"error: {message}, above the cap of 2*10^6" in capsys.readouterr().err


@pytest.mark.parametrize("k", [None, "2"])
def test_separate_entry_cap_is_usage_error(capsys, k):
    argv = ["separate", "--list", ",".join(map(str, range(1, 39, 2)))]
    assert run(argv + (["--k", k] if k else [])) == 2
    assert "error: list has 19 entries, above the cap of 18" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1", "257", "100000"])
def test_liouville_probe_cap_is_usage_error(capsys, k):
    assert run(["liouville", "--probe", k]) == 2
    assert f"error: k must be between 2 and 256, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--list", "1,-2"],  # fits the stdout buffer: fails at the last flush
        ["--format", "json", "bounds", "--nmax", "256"],  # larger than the buffer: fails in print
    ],
)
def test_closed_stdout_exits_quietly(argv):
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered, as it is by default on a pipe
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ratio_lab.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


# what perfbench's setup probe does, then the commands that need no numpy
# kernel; it prints the codes, the numpy submodules loaded by then, and
# the results of two calls that do need a kernel
_PURE_PYTHON_QUERIES = """
import contextlib, io, json, sys
import ratio_lab.cli as cli, ratio_lab.search as search
from ratio_lab.lists import make_list, norm_by_integration
for name in search.GOLDEN_NAMES:
    search.load_golden(name)
argvs = [
    ["norm", "--list", "4,-6,9"],
    ["involute", "--list", "4,-6,9"],
    ["separate", "--list", "30,-15,-10,-6,1"],
    ["separate", "--list", "30,-15,-10,-6,1", "--k", "5"],
    ["liouville", "--N", "360"],
    ["bounds", "--nmax", "20", "--rmax", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["--format", "json", *argv]) for argv in argvs]
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
pool = "multiprocessing" in sys.modules
integration = str(norm_by_integration(make_list([4, -6, 9])))
with contextlib.redirect_stdout(io.StringIO()) as out:
    check = cli.run(["--format", "json", "check", "--num", "30,1", "--den", "15,10,6"])
print(json.dumps({"codes": codes, "loaded": loaded, "pool": pool, "integration": integration, "check": [check, json.loads(out.getvalue())["integral"]]}))
"""


def test_pure_python_queries_never_load_numpy():
    # numpy loads on the first kernel call and multiprocessing only for a
    # sweep dealt to workers: importing the package, loading the golden
    # catalogs and the pure-Python commands leave both unloaded, and the
    # kernels still run once numpy loads
    proc = subprocess.run([sys.executable, "-c", _PURE_PYTHON_QUERIES], capture_output=True, text=True, env=_src_env(), check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 6
    assert got["loaded"] == [] and not got["pool"]
    assert got["integration"] == "43/216"
    assert got["check"] == [0, True]


def test_bounds_table(capsys):
    code, out = invoke(capsys, "--format", "json", "bounds", "--nmax", "11")
    assert code == 0
    data = json.loads(out)
    assert data["G"]["2"] == "1/12"
    assert data["G1"]["3"] == "1/6"
    assert len(data["G"]) == 10


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("nmax, rmax", [(85, 2), (100, 1)])
def test_bounds_table_without_the_crossing(capsys, fmt, nmax, rmax):
    # these tables stay at or below 1 at their last even length, so they
    # witness no D = 2 cutoff; the table prints without one
    code, out = invoke(capsys, "--format", fmt, "bounds", "--nmax", str(nmax), "--rmax", str(rmax))
    assert code == 0
    if fmt == "json":
        data = json.loads(out)
        assert len(data["G"]) == nmax - 1 and "max_length_D2" not in data and "max_length_D2_g1" not in data
    else:
        assert len(out.splitlines()) == nmax and out.splitlines()[-1].startswith(f"{nmax} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nmax", "1000000"], "--nmax must be between 2 and 1024, got 1000000"),
        (["--nmax", "1025"], "--nmax must be between 2 and 1024, got 1025"),
        (["--nmax", "1"], "--nmax must be between 2 and 1024, got 1"),
        (["--nmax", "11", "--rmax", "0"], "--rmax must be between 1 and 8, got 0"),
        (["--nmax", "11", "--rmax", "9"], "--rmax must be between 1 and 8, got 9"),
        (["--nmax", "11", "--rmax", "1000000"], "--rmax must be between 1 and 8, got 1000000"),
    ],
)
def test_bounds_limits_are_usage_errors(capsys, argv, message):
    # the message comes from build_table, which names --nmax n_max and --rmax r_max
    assert run(["bounds", *argv]) == 2
    flag, rule = message.split(" ", 1)
    assert f"error: {flag[2]}_max {rule}\n" in capsys.readouterr().err


def test_separate_worked_example(capsys):
    code, out = invoke(capsys, "--format", "json", "separate", "--list", "30,-15,-10,-6,1")
    assert code == 0
    data = json.loads(out)
    assert data["max_separation"] == 5
    assert set(data["separated_for"]) >= {2, 3, 5}
    assert 6 not in data["separated_for"]


def test_separate_lists_every_k_with_a_witness(capsys):
    # [1, -2^40] is 2^j-separated for j = 1..40 and for no other k; a scan
    # of every k up to the maximum would take 2^40 steps
    code, out = invoke(capsys, "--format", "json", "separate", "--list", "1,-1099511627776")
    assert code == 0
    data = json.loads(out)
    assert data["separated_for"] == [2**j for j in range(1, 41)]
    assert data["max_separation"] == 2**40


def test_separate_with_k(capsys):
    code, out = invoke(capsys, "--format", "json", "separate", "--list", "30,-15,-10,-6,1", "--k", "3")
    assert code == 0
    assert json.loads(out)["separated"] is True


def test_involute(capsys):
    code, out = invoke(capsys, "--format", "json", "involute", "--list", "1,-2")
    assert code == 0
    data = json.loads(out)
    assert data["involute"] == ["-1"]  # psi(2x)-psi(x) shift; same norm 1/12
    assert data["involute_norm"] == data["norm"] == "1/12"


# the time.time() budget of a refused query, from the call to the exit code
REFUSAL_BUDGET_S = 1.0


@pytest.mark.parametrize("command", ["norm", "involute"])
def test_norm_work_cap_is_usage_error(capsys, command):
    # refused before any pair term: 1..20000, 2*10^8 pairs over an lcm of
    # about 29 000 bits, and 20 random even entries of 4300 digits (the
    # most int() parses from a string; even, so involute keeps them), 190
    # pairs over 224-word entries
    rng = random.Random(1)
    huge = [rng.randrange(10**4299, 10**4300, 2) for _ in range(20)]
    for entries in (range(1, 20001), huge):
        start = time.time()
        code = run([command, "--list=" + ",".join(map(str, entries))])
        assert time.time() - start < REFUSAL_BUDGET_S
        assert code == 2
        assert "above the cap of 10^10" in capsys.readouterr().err


def test_liouville(capsys):
    code, out = invoke(capsys, "--format", "json", "liouville", "--N", "6")
    assert code == 0
    data = json.loads(out)
    assert data["norm_formula"] == "1/9"
    assert data["agree"] is True


def test_liouville_probe(capsys):
    code, out = invoke(capsys, "--format", "json", "liouville", "--probe", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] >= 1.0


def test_liouville_unfactored_n_is_usage_error(capsys):
    # 10^18 + 3 has no factor up to 10^6, and is above 10^12
    code = run(["liouville", "--N", "1000000000000000003"])
    assert code == 2
    assert "not certified prime" in capsys.readouterr().err


def test_liouville_divisor_cap_is_usage_error(capsys):
    # the product of the primes up to 41 has 2^13 divisors
    code = run(["liouville", "--N", "304250263527210"])
    assert code == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_liouville_needs_exactly_one_mode():
    for argv in ([], ["--N", "6", "--probe", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(["liouville", *argv])
        assert exc.value.code == 2


def test_small_norm_3_scan_cap_is_usage_error(capsys, monkeypatch):
    # a scan bound of 12002 would build cross-term tables of several GB
    def no_scan(*args):
        raise AssertionError("a scan was started")

    monkeypatch.setattr("ratio_lab.search._confirm", no_scan)
    assert run(["small-norm", "--length", "3", "--threshold", "2000/12001"]) == 2
    assert "error: threshold 2000/12001 needs a scan bound of 12002, above the cap of 1000" in capsys.readouterr().err


def test_small_norm_past_complete_threshold_is_usage_error(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a scan was started")

    monkeypatch.setattr("ratio_lab.search._confirm", no_scan)
    for length, top in (("7", "5/24"), ("8", "8/45")):
        assert run(["small-norm", "--length", length, "--threshold", "2"]) == 2
        assert f"complete only up to {top}" in capsys.readouterr().err


def test_small_norm_catalog_cli(capsys):
    code, out = invoke(capsys, "--format", "json", "small-norm", "--length", "4", "--threshold", "11/60")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 20
    assert all("/" in e["norm"] for e in data["entries"])


def test_catalog_verify(capsys):
    code, out = invoke(capsys, "--format", "json", "catalog", "--name", "sporadic_length9")
    assert code == 0
    data = json.loads(out)
    assert data["catalogs"][0]["ok"] is True
    assert data["catalogs"][0]["entries"] == 2


def test_catalog_past_breakpoint_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    # verifying [3, 2^21 + 1] takes its integration norm, with 2 + 2^21 breakpoints
    a = make_list([3, 2**21 + 1])
    entry = {"list": a.to_json(), "norm": f"{norm(a).numerator}/{norm(a).denominator}"}
    (tmp_path / "sporadic_length9.json").write_text(json.dumps({"name": "sporadic_length9", "entries": [entry]}))
    monkeypatch.setenv("RATIO_LAB_CATALOG_DIR", str(tmp_path))
    assert run(["catalog", "--name", "sporadic_length9"]) == 2
    assert "breakpoints" in capsys.readouterr().err


@pytest.mark.parametrize("data", [{"name": "sporadic_length9"}, []], ids=["no-entries", "top-level-list"])
def test_catalog_malformed_file_is_usage_error(tmp_path, monkeypatch, capsys, data):
    (tmp_path / "sporadic_length9.json").write_text(json.dumps(data))
    monkeypatch.setenv("RATIO_LAB_CATALOG_DIR", str(tmp_path))
    assert run(["catalog", "--name", "sporadic_length9"]) == 2
    assert "error: malformed catalog file" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["norm"])  # missing --list
    assert exc.value.code == 2


def test_bad_list_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--list", "1,x,3"])
    assert exc.value.code == 2


def test_fractions_never_decimals(capsys):
    code, out = invoke(capsys, "norm", "--list", "1,-2")
    assert code == 0
    assert "." not in out
    assert out.strip() == "1/12"


class _PoolCreated(Exception):
    pass


def _refuse_pool(*args, **kwargs):
    raise _PoolCreated


def test_classify_jobs_bounded_by_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", _refuse_pool)
    for jobs in ("0", "-1", "3", "1000000"):
        assert run(["classify", "--length", "5", "--jobs", jobs]) == 2
        assert f"error: jobs must be between 1 and 2 (the number of CPUs), got {jobs}" in capsys.readouterr().err
    # the upper end is allowed: the sweep gets as far as creating its pool
    with pytest.raises(_PoolCreated):
        run(["classify", "--length", "5", "--jobs", "2"])


def test_shared_parser_carries_nothing_between_calls(capsys):
    # run builds its parser once per process; each pair runs back to back,
    # the second call without the option or format the first one set
    assert _build_parser() is _build_parser()
    pairs = [
        (["separate", "--list", "30,-15,-10,-6,1", "--k", "3"], "3-separated: yes\n  a = 1 * [1, -10] + -3 * [2, 5, -10]\n"),
        (["separate", "--list", "30,-15,-10,-6,1"], "max separation: 5\nk with witnesses: [2, 3, 5]\n"),
        (["liouville", "--N", "6"], "L(6) = [1, -2, -3, 6]\nnorm 1/9 (formula 1/9)\n"),
        (["liouville", "--probe", "2"], "k=2  N_k=16\nupper 17/96  lower 5/72  ratio 2.550000\n"),
        (["--format", "json", "norm", "--list", "4,-6,9"], '{"list": ["4", "-6", "9"], "norm": "43/216"}\n'),
        (["norm", "--list", "4,-6,9"], "43/216\n"),
    ]
    for argv, expected in pairs:
        assert invoke(capsys, *argv) == (0, expected)
    with pytest.raises(SystemExit) as exc:
        run(["liouville", "--N", "6", "--probe", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert invoke(capsys, "liouville", "--N", "6") == (0, "L(6) = [1, -2, -3, 6]\nnorm 1/9 (formula 1/9)\n")


with open(os.path.join(os.path.dirname(__file__), "data", "readme_examples.json"), encoding="utf-8") as _fh:
    README_EXAMPLES = json.load(_fh)


@pytest.mark.parametrize("case", README_EXAMPLES, ids=lambda c: "-".join(c["argv"][1:3]))
def test_readme_examples_unchanged(capsys, case):
    # the README's CLI examples in both formats (classify --length 5 in JSON
    # only), stdout and exit code recorded from an earlier build: every
    # change keeps them byte-identical
    assert invoke(capsys, *case["argv"]) == (case["code"], case["stdout"])
