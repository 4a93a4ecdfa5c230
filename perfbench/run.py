"""ratio-lab benchmark.

    python3 perfbench/run.py --workload {classify,minimal-norms,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src`.
The run measures set-up (`setup_s`), then repeats whole rounds of the
workload for S seconds (at least one round), checking every output of a
round against the independent computations of checks.py once the round
is over; checking time does not count towards S.

With --trace 0 the last line of stdout is one JSON object holding
`correct`, `attempted`, `failed` and the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of spans.py instead.  The lines
before it print the workload's own timings by name and unit.  Each run
also writes perfbench/results/<workload>-seed<N>-trace<T>.json with the
machine, the counts and every metric's samples and median.

Exit codes: 0 when every output checked out, 1 when one did not, 2 when
the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
# timed inside a fresh interpreter, so the parent's wake-up latency is left out
SETUP_PROBE = (
    "from time import perf_counter\n"
    "start = perf_counter()\n"
    "import ratio_lab.cli, ratio_lab.search as s\n"
    "for name in s.GOLDEN_NAMES:\n"
    "    s.load_golden(name)\n"
    "print(perf_counter() - start)\n"
)
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import ratio_lab from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ratio_lab", "__init__.py")):
        raise FileNotFoundError(f"no ratio_lab package under {SRC}")
    sys.path.insert(0, SRC)
    import ratio_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(ratio_lab.__file__))) != SRC:
        raise FileNotFoundError(f"ratio_lab was imported from {ratio_lab.__file__}, not {SRC}")
    return ratio_lab


def measure_setup(env: dict) -> list[float]:
    """Seconds a fresh process takes to import ratio_lab and load the five
    golden catalogs, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, check=True, timeout=120,
            capture_output=True, text=True,
        )
        samples.append(float(proc.stdout))
    return samples


def run_batch(batch):
    outputs = []
    start = perf_counter()
    for item in batch.items:
        try:
            outputs.append(batch.call(item))
        except Exception as exc:  # a failed call is counted, not fatal
            outputs.append(exc)
    return outputs, perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summarise(samples: list[float]) -> dict:
    """Median, plus the highest listed percentile with at least ten samples
    beyond it (only from forty samples on)."""
    out = {"samples": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 40:
        ordered = sorted(samples)
        for pct in (99.9, 99, 95, 90, 75):
            if len(samples) * (1 - pct / 100) >= 10:
                out[f"p{pct:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
                break
    return out


def check_round(record, tally: dict) -> None:
    """Check every output of one round and add to the run's tally."""
    for batch, outputs, _ in record:
        for item, out in zip(batch.items, outputs):
            tally["attempted"] += 1
            raised = isinstance(out, Exception)
            errs = [f"raised {out!r}"] if raised else batch.check(item, out)
            if errs:
                tally["failed"] += 1
                if raised or not batch.known_fault(item):
                    tally["correct"] = False
                tally["problems"] += [f"{batch.kind}: {e}" for e in errs]


def round_samples(workload, times: list[dict]) -> dict[str, tuple[float, list[float]]]:
    """round_s and the workload's own timings: (value, per-round samples).
    A time is the mean over rounds; a rate is all items over all seconds."""
    rounds = [sum(s for _, s in t.values()) for t in times]
    out = {"round_s": (statistics.fmean(rounds), rounds)}
    for name, unit, _, kinds in workload.details:
        items = [sum(t[k][0] for k in kinds if k in t) for t in times]
        seconds = [sum(t[k][1] for k in kinds if k in t) for t in times]
        if not sum(items):
            continue
        if unit == "s":
            out[name] = (statistics.fmean(seconds), seconds)
        else:
            out[name] = (sum(items) / sum(seconds), [i / s for i, s in zip(items, seconds)])
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    ctx = Context(ROOT, tiny=args.tiny)
    setup = measure_setup(ctx.env())
    workload = WORKLOADS[args.workload](ctx)
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    tally = {"attempted": 0, "failed": 0, "correct": True, "problems": []}
    times = []  # per round: kind -> (items, seconds)
    walls = []
    try:
        # whole rounds only; stop when the next one would mostly fall past the end
        while not walls or sum(walls) + statistics.median(walls) / 2 < args.seconds:
            begin = perf_counter()
            with tracer.paused() if tracer else contextlib.nullcontext():
                batches = workload.round(rng)
            record = [(b, *run_batch(b)) for b in batches]
            walls.append(perf_counter() - begin)
            timing = {}
            for batch, _, seconds in record:
                items, total = timing.get(batch.kind, (0, 0.0))
                timing[batch.kind] = (items + len(batch.items), total + seconds)
            times.append(timing)
            with tracer.paused() if tracer else contextlib.nullcontext():
                check_round(record, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = peak_rss_mb()

    measured = {"setup_s": (statistics.median(setup), setup)}
    measured.update(round_samples(workload, times))
    measured["peak_rss_mb"] = (peak, [peak])
    units = dict(END_TO_END)
    units.update({name: unit for name, unit, _, _ in workload.details})
    summary = {
        name: {"unit": units[name], "value": value, **summarise(vals), "values": vals}
        for name, (value, vals) in measured.items()
    }
    if tracer is None:
        metrics = {name: {"value": measured[name][0], "unit": unit} for name, unit in END_TO_END}
    else:
        from spans import per_layer_metrics, per_layer_names

        values = per_layer_metrics(tracer, len(times))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}
        summary.update({name: {**m, "samples": 1, "median": m["value"]} for name, m in metrics.items()})

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "rounds": len(times),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": tally["correct"],
        "metrics": summary,
        "problems": sorted(set(tally["problems"]))[:50],
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    for metric, (value, vals) in measured.items():
        print(f"{args.workload}  {metric}  {value:.6g} {units[metric]}  ({len(vals)} samples)")
    result = {k: tally[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if tally["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
