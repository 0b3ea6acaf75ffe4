"""Paired benchmark runs of two source checkouts, written to a before/after ledger file.

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME

PARENT and CHANGE are source checkouts (a `git clone` at the parent commit, and the
tree under test).  Each runs its own, unchanged `perfbench/run.py --trace 0` on every
workload BENCHMARK.json lists, for its `run_seconds`, in PAIRS pairs.  Pair i of the
ledger's k-th set runs both sides on seed 100·k + i + 1, the parent first in even pairs
and the change first in odd ones, so that a drift of the machine over the set falls on
both sides alike.

Each invocation adds one set to BENCH_NAME.json in the working directory (made if
absent), written again after every run: every run's summary line with its workload,
pair, seed, side and order; the seconds per run; each side's revision; the machine
facts run.py printed; and, per workload and end-to-end metric, each side's median and
quartiles and the pairs the change won.  A side's revision is its `git describe`, and,
where its tree differs from HEAD, the sha256 of `git diff HEAD --binary -- src
perfbench` (the code the benchmark runs): once the change is committed, `git diff
PARENT_COMMIT CHANGE_COMMIT --binary -- src perfbench` hashes the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True)
    return proc.stdout.decode() if proc.returncode == 0 else None


def revision(checkout: Path) -> str | None:
    described = git(checkout, "describe", "--always", "--dirty")
    diff = git(checkout, "diff", "HEAD", "--binary", "--", "src", "perfbench")
    if described is None or diff is None:
        return None
    if not diff:
        return described.strip()
    return f"{described.strip()} diff:{hashlib.sha256(diff.encode()).hexdigest()}"


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its summary line and machine facts, or its failure."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    machine = [json.loads(line.split("machine ", 1)[1]) for line in lines
               if line.strip().startswith("machine ")]
    return {"summary": json.loads(lines[-1]), "machine": machine[0] if machine else None}


def tally(runs: list[dict], metrics: dict) -> dict:
    """Per workload and metric: each side's median and quartiles, and the pairs won."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload and "summary" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["summary"]["metrics"]
        pairs = {i: p for i, p in pairs.items() if len(p) == 2}
        out[workload] = {}
        for name, better in metrics.items():
            values = {side: [p[side][name]["value"] for p in pairs.values()] for side in SIDES}
            if len(values["parent"]) < 2:
                continue
            sign = 1.0 if better == "lower" else -1.0
            diffs = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            stats = {side: {"median": statistics.median(v), "quartiles": statistics.quantiles(v, n=4)}
                     for side, v in values.items()}
            q1, _, q3 = stats["parent"]["quartiles"]
            out[workload][name] = {
                **stats, "pairs": len(diffs), "change_won": sum(d > 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
                # the change's gain in the medians, against the spread of the parent's runs
                "median_gain": sign * (stats["parent"]["median"] - stats["change"]["median"]),
                "parent_iqr": q3 - q1}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench_spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench_spec["end_to_end"]}
    seconds = bench_spec["run_seconds"]
    path = Path(f"BENCH_{args.label}.json")
    ledger = json.loads(path.read_text()) if path.exists() else {"label": args.label, "sets": []}
    seeds = [100 * (len(ledger["sets"]) + 1) + i + 1 for i in range(PAIRS)]
    ledger["sets"].append({"seconds": seconds, "pairs": PAIRS, "seeds": seeds,
                           "revisions": {side: revision(c) for side, c in checkouts.items()},
                           "machine": None, "runs": []})
    ours = ledger["sets"][-1]
    for workload in (w["name"] for w in bench_spec["workloads"]):
        for i, seed in enumerate(seeds):
            for order, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                run = bench(checkouts[side], workload, seed, seconds)
                ours["machine"] = ours["machine"] or run.get("machine")
                ours["runs"].append({"workload": workload, "pair": i, "seed": seed,
                                     "side": side, "order": order,
                                     **{k: v for k, v in run.items() if k != "machine"}})
                ours["summary"] = tally(ours["runs"], metrics)
                path.write_text(json.dumps(ledger, indent=1) + "\n")
                print(f"{workload} pair {i} {side}: "
                      f"{run['summary']['metrics'] if 'summary' in run else run}", flush=True)
    failed = [r for r in ours["runs"] if "summary" not in r or r["summary"]["failed"]]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
