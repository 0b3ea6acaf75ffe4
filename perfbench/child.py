"""One benchmark process: `child.py setup WORKDIR` or `child.py run WORKDIR`.

`setup` imports adimax, parses and validates every config of the workload,
prints `ready` and exits; the `run` process times it from spawn to that line.

`run` drives the workload as a closed loop: one caller, and each CLI driver
call (`adimax.cli.main`) starts when the previous one returns.  It repeats
the workload's ops until the time budget is spent, checks every op's output
outside the timed region, and prints one JSON object as its last line.
Between iterations it starts set-up processes, so the set-up median spans
the whole run rather than one moment of it.  With tracing on, iterations
alternate untraced and traced, so the two medians give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import check_op

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2  # per iteration, and as many before the first


def python_env() -> dict:
    """The environment with the checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(workdir: Path) -> float:
    """Spawn to `ready`: interpreter start, adimax import, config parse."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "setup", str(workdir)], cwd=ROOT,
                            env=python_env(), stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return seconds


def call_op(argv: list[str], tracer=None) -> tuple[float, str, str | None]:
    """Run one CLI call; returns (seconds, stdout, error or None)."""
    from adimax import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.open(f"driver.{argv[0]}") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return seconds, out.getvalue(), error


def check(op: dict, out: Path, stdout: str, error: str | None) -> list[str]:
    if error:
        return [error]
    try:
        return check_op(out, op, stdout)
    except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
        return [f"{type(exc).__name__}: {exc}"]


def run(spec: dict, workdir: Path, tamper=None) -> dict:
    """Closed loop over the workload's ops; `tamper(op, out)` may alter an
    op's output between the call and its check (used by the self-check)."""
    ops, configs = spec["ops"], spec["configs"]
    tracer = tracing.Tracer() if spec["trace"] else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    attempted, failed, problems = 0, 0, []
    deadline = time.perf_counter() + spec["seconds"]
    setups = [setup_seconds(workdir) for _ in range(SETUP_PROBES)]
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        results = []
        try:
            for k, (op, config) in enumerate(zip(ops, configs)):
                out = workdir / f"out{k}"
                shutil.rmtree(out, ignore_errors=True)
                argv = [op["kind"], "--config", config, "--out", str(out)]
                results.append((op, out, *call_op(argv, tracer if traced else None)))
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(r[2] for r in results))
        for op, out, _, stdout, error in results:
            attempted += 1
            if tamper is not None:
                tamper(op, out)
            found = check(op, out, stdout, error)
            if found:
                failed += 1
                problems.append(f"{op['kind']}: {'; '.join(found)}")
            shutil.rmtree(out, ignore_errors=True)
        setups += [setup_seconds(workdir) for _ in range(SETUP_PROBES)]
        # a traced run needs a warm untraced iteration to compare with; stop
        # early rather than start an iteration that would overrun the budget
        enough = tracer is None or (len(walls[True]) >= 1 and len(walls[False]) >= 2)
        if enough and time.perf_counter() + statistics.median(walls[False]) > deadline:
            break

    import numpy

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "iterations": {"untraced": walls[False], "traced": walls[True]},
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, tracer.missing)
        if not tracer.missing.intersection(tracing.STAGES):
            layers["stepper.alloc_peak_mb"] = tracing.alloc_peak_mb(spec["alloc_grid"],
                                                                    ops[0]["dt"])
        # the first iteration is cold (fresh memory from the OS): leave it out
        warm = walls[False][1:] or walls[False]
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(warm) - 1.0)
        result["layers"] = layers
        result["absent"] = sorted(set(tracing.MOVES) - set(layers))
        tracer.write(Path(spec["spans"]))
    return result


def main(argv: list[str]) -> int:
    mode, workdir = argv[1], Path(argv[2])
    spec = json.loads((workdir / "spec.json").read_text())
    if mode == "setup":
        from adimax import cli  # noqa: F401  (the entry point users start from)
        from adimax.harness import parse_config

        for config in spec["configs"]:
            parse_config(config)
        print("ready", flush=True)
        return 0
    print(json.dumps(run(spec, workdir)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
