"""Run-to-run spread of the benchmark, and its baseline file:

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--out FILE]

Runs the benchmark with tracing off once per seed 1..RUNS on each workload,
then once traced (seed 1).  For every end-to-end metric it prints the
median and the spread, the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound in BENCHMARK.json; the spread should stay below a third
of the bound.  With --out it also writes the medians, spreads, raw values,
per-layer values, what each layer metric should move, and the machine
facts as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line plus the machine facts."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = [line.split("machine ", 1)[1] for line in lines if line.strip().startswith("machine ")]
    result["machine"] = json.loads(machine[0])
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    worst = 0.0
    for name in args.workload:
        runs = [bench_run(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": failed,
                 "machine": runs[0]["machine"], "end_to_end": {}}
        print(f"{name}: {entry['attempted']} ops, {failed} failed")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            entry["end_to_end"][metric] = {"median": median, "spread": spread, "bound": bound,
                                           "unit": runs[0]["metrics"][metric]["unit"],
                                           "values": values}
            print(f"  {metric:<14} median {median:<12.6g} spread {spread:7.4f} "
                  f"(bound {bound}, a third is {bound / 3:.4f})")
        traced = bench_run(name, 1, seconds, 1)
        entry["per_layer"] = {
            metric: {**value, "moves": tracing.MOVES[metric][0],
                     "on": list(tracing.MOVES[metric][1])}
            for metric, value in traced["metrics"].items()}
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
