"""Fast self-check of the benchmark, on tiny grids:

    python3 perfbench/selfcheck.py

It confirms that every metric named in BENCHMARK.json is emitted (end-to-end
with tracing off, per-layer with tracing on) with no failed op, that a
forced bad output or a missing output file counts as a failed op, that a
wrapped attribute that no longer exists leaves its metrics absent without
failing the run, and that the runner refuses to run without the adimax
sources.  Exits non-zero on
the first problem.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
import tracing
import workloads

ROOT = run.ROOT


def _fail(message: str) -> int:
    print(f"selfcheck FAILED: {message}", file=sys.stderr)
    return 1


def _corrupt_run_csv(op: dict, out: Path) -> None:
    """Scale the last Q_l2 of run.csv by 1 + 1e-9: a drift the check must catch."""
    path = out / "run.csv"
    if not path.exists():
        return
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("Q_l2")
    rows[-1][col] = repr(float(rows[-1][col]) * (1.0 + 1e-9))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _drop_outputs(op: dict, out: Path) -> None:
    for path in out.glob("*.csv"):
        path.unlink()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {False: {m["name"] for m in bench["end_to_end"]},
             True: {m["name"] for m in bench["per_layer"]}}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    full = workloads.make_workload
    workloads.make_workload = functools.partial(full, tiny=True)
    try:
        for w in bench["workloads"]:
            for trace in (False, True):
                result = run.run_workload(w["name"], 0, 0.0, trace)
                with contextlib.redirect_stdout(io.StringIO()):
                    emitted = set(run.report(w["name"], result, trace, units))
                if emitted != names[trace]:
                    return _fail(f"{w['name']} trace={trace}: missing "
                                 f"{sorted(names[trace] - emitted)}, extra "
                                 f"{sorted(emitted - names[trace])}")
                if result["failed"]:
                    return _fail(f"{w['name']} trace={trace}: {result['problems']}")
                print(f"ok   {w['name']:<11} trace={int(trace)}: {len(emitted)} metrics, "
                      f"{result['attempted']} ops passed")
    finally:
        workloads.make_workload = full

    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / "selfcheck"
    for tamper, expect in ((_corrupt_run_csv, "Q_l2 drift"), (_drop_outputs, "MANIFEST")):
        ops = workloads.make_workload("tick-dense", 0, tiny=True)
        spec = run.write_spec(workdir, ops, 0.0, False, workdir / "spans.json")
        result = child.run(spec, workdir, tamper=tamper)
        shutil.rmtree(workdir)
        wanted = 1 if tamper is _corrupt_run_csv else 2
        if result["failed"] != wanted or expect not in " ".join(result["problems"]):
            return _fail(f"{tamper.__name__}: {result['failed']} failed ops "
                         f"{result['problems']}, expected {wanted} naming {expect!r}")
        print(f"ok   {tamper.__name__}: {result['failed']}/{result['attempted']} ops failed")

    # a wrapped attribute that no longer exists leaves its metrics absent
    targets = tracing.TARGETS
    tracing.TARGETS = tuple((owner, "_renamed_away" if name == tracing.SOLVE else attr, name)
                            for owner, attr, name in targets)
    try:
        ops = workloads.make_workload("paper-step", 0, tiny=True)
        spec = run.write_spec(workdir, ops, 0.0, True, workdir / "spans.json")
        result = child.run(spec, workdir)
    finally:
        tracing.TARGETS = targets
        shutil.rmtree(workdir)
    thomas = {m for m, deps in tracing.DEPENDS.items() if tracing.SOLVE in deps}
    if result["failed"] or set(result["absent"]) != thomas:
        return _fail(f"missing {tracing.SOLVE}: absent {result['absent']}, "
                     f"problems {result['problems']}")
    print(f"ok   missing {tracing.SOLVE}: {len(thomas)} metrics absent, run completed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tick-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return _fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode} with no result")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
