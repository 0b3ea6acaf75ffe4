"""Benchmark of the adimax CLI drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports adimax from `src/`.
NAME is a workload from BENCHMARK.json, or `all` to run each in turn.  The
seed draws each op's dt (see workloads.py); the same seed gives the same
configs.

Each workload runs in a fresh Python process with a single caller (see
child.py): it runs the closed loop for S seconds (`wall_s` is the median over
its iterations of the summed driver-call times, `peak_rss_mb` its peak
resident set), and between iterations starts processes that only start up,
import adimax and parse the configs (their median is `setup_s`).  Numpy's
own threading is left as installed.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics, with `--trace 1` with the per-layer metrics; the lines
before it give the same numbers by name with their units, the failed-op
ratio, and the machine facts.  Spans of a traced run are written to
`.perfbench/spans-NAME-seedN.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import child
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(child.__file__).resolve()
RUN_TIMEOUT_S = 170.0


def cache_bytes() -> dict:
    """L2 (per core) and L3 sizes as glibc's sysconf reports them on Linux."""
    try:
        sysconf = ctypes.CDLL(None).sysconf
    except (OSError, AttributeError):
        return {}
    # _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE in glibc's <bits/confname.h>
    sizes = {"l2_bytes": sysconf(191), "l3_bytes": sysconf(194)}
    return {k: v for k, v in sizes.items() if v > 0}


def machine_facts(ops: list[dict], numpy_version: str) -> dict:
    n = workloads.largest_grid(ops)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, **cache_bytes(), "largest_grid": f"{n}^3",
            "state_bytes": workloads.state_bytes(n, n, n)}


def write_spec(workdir: Path, ops: list[dict], seconds: float, trace: bool,
               spans: Path) -> dict:
    """Write each op's config file and the spec the child process reads."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    configs = []
    for k, op in enumerate(ops):
        path = workdir / f"op{k}.cfg"
        path.write_text(workloads.config_text(op))
        configs.append(str(path))
    spec = {"ops": ops, "configs": configs, "seconds": seconds, "trace": trace,
            "alloc_grid": workloads.largest_grid(ops), "spans": str(spans)}
    (workdir / "spec.json").write_text(json.dumps(spec))
    return spec


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.make_workload(name, seed)
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    try:
        write_spec(workdir, ops, seconds, trace,
                   ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json")
        proc = subprocess.run([sys.executable, str(CHILD), "run", str(workdir)], cwd=ROOT,
                              env=child.python_env(), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: benchmark process exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = machine_facts(ops, result.pop("numpy"))
    return result


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def report(name: str, result: dict, trace: bool, units: dict) -> dict:
    """Print one workload's metrics by name with units; return the JSON metrics."""
    if trace:
        values = result["layers"]
    else:
        values = {"wall_s": result["wall_s"], "setup_s": result["setup_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    its = result["iterations"]
    print(f"workload {name}: {len(its['untraced'])} untraced + {len(its['traced'])} traced "
          f"iterations, {result['attempted']} ops attempted, {result['failed']} failed")
    for metric, value in values.items():
        print(f"  {metric:<38} {value:>14.6g} {units.get(metric, '')}")
    print(f"  {'fail_ratio':<38} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']} ops)")
    print(f"  iterations (s): untraced {_fmt(its['untraced'])}, traced {_fmt(its['traced'])}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for metric in result.get("absent", ()):
        print(f"  absent {metric} (its wrapped attribute no longer exists)")
    print(f"  machine {json.dumps(result['machine'])}")
    return {metric: {"value": value, "unit": units.get(metric, "")}
            for metric, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adimax" / "__init__.py").is_file():
        print(f"no adimax sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    try:
        for name in chosen:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            values = report(name, result, bool(args.trace), units)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
