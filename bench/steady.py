"""Steadiness report: two sets of ten runs of a workload, seeds 1-10 and
11-20, and per end-to-end metric the median, the quartiles and the relative
IQR next to the metric's bound in BENCHMARK.json.

    python3 bench/steady.py --workload mesh

A spread is the IQR (statistics.quantiles, n=4) as a share of the median.
Verdicts: "steady" when the spread is at most a third of the bound, "within"
when at most the bound, "WIDE" beyond it.  The second set's median must not
be worse than the first set's by more than the bound.  Exits 1 when any
check fails, or when a run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: {result['failed']} of {result['attempted']} tasks failed\n{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["end_to_end"]
    ok = True
    medians = []
    report = {"workload": args.workload, "sets": []}
    for k in range(SETS):
        seeds = [1 + k * RUNS + i for i in range(RUNS)]
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, bench["run_seconds"]))
            print(f"set {k + 1} seed {seed}: " + " ".join(f"{n}={v:.4g}" for n, v in runs[-1].items()), flush=True)
        print(f"\nset {k + 1}, {args.workload}, {len(runs)} runs")
        print(f"{'metric':<16}{'unit':<7}{'median':>10}{'q1':>10}{'q3':>10}{'rel_iqr':>9}{'bound':>7}  verdict")
        set_medians = {}
        for m in declared:
            median, q1, q3, rel = spread([r[m["name"]] for r in runs])
            set_medians[m["name"]] = median
            if rel <= m["bound"] / 3:
                verdict = "steady"
            elif rel <= m["bound"]:
                verdict = "within"
            else:
                verdict, ok = "WIDE", False
            print(f"{m['name']:<16}{m['unit']:<7}{median:>10.4g}{q1:>10.4g}{q3:>10.4g}{rel:>9.3f}{m['bound']:>7.2f}  {verdict}")
        medians.append(set_medians)
        report["sets"].append({"seeds": seeds, "runs": runs, "medians": set_medians})

    print("\nsecond set against first")
    for m in declared:
        first, second = medians[0][m["name"]], medians[1][m["name"]]
        worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        ok = ok and verdict == "ok"
        print(f"{m['name']:<16}{first:>10.4g}{second:>10.4g}{worse:>+9.3f}{m['bound']:>7.2f}  {verdict}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"steady-{args.workload}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
