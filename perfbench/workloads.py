"""Workload definitions and output checks for the adimax benchmark.

A workload is a fixed list of CLI driver calls (ops).  The seed draws only
the time step of each op, with the step count held, so it moves lambda and
the Courant number but never the amount of work: every stage does the same
tridiagonal solves and every report tick the same sums whatever dt is.

Each op is handed to the program as a generated `key = value` config file
plus an `--out` directory, exactly as a user would run it.  The checks read
the files the op wrote, at the tolerances the test suite uses, and run
outside the timed region.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

DRIFT_TOL = 1e-11       # conserved functionals, relative to their first value
DIVERGENCE_TOL = 1e-10  # every divergence norm in run.csv
RESIDUAL_TOL = 1e-12    # step_residual of one step from the final state
RATE_WINDOW = (1.7, 2.2)

RUN_FUNCTIONALS = ("Q_h1x", "Q_h1y", "Q_h1z", "Q_l2", "Q_h1tx", "Q_h1ty", "Q_h1tz", "Q_l2t")
RUN_DIVERGENCE = ("DivE_Linf", "DivE_L2", "DivH_Linf", "DivH_L2")
# the drift columns test_energy_audit_drift_columns holds to 1e-11
AUDIT_DRIFTS = ("EH1_n0", "EH2_n0", "EHt1_n0", "EHt2_n0", "EH1s_n0", "EH2s_n0")

def _cube(n: int) -> dict:
    return {"nx": n, "ny": n, "nz": n}


def _timed(rng: random.Random, dt: float, steps: int) -> dict:
    """Draw dt within 5 % of its nominal value and hold the step count."""
    dt = dt * rng.uniform(0.95, 1.05)
    return {"dt": dt, "T": steps * dt}


def make_workload(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ops of one workload: dicts with the CLI kind and the config keys.

    `tiny` shrinks every grid and step count for the self-check; the op mix
    and the checks stay the same.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "paper-step":
        n, steps = (8, 2) if tiny else (100, 16)
        return [dict(kind="run", **_cube(n), **_timed(rng, 0.05, steps), cadence=steps,
                     snapshots=True)]
    if name == "tick-dense":
        n, steps = (8, 3) if tiny else (64, 8)
        return [dict(kind="run", **_cube(n), **_timed(rng, 0.05, steps), cadence=1),
                dict(kind="energy-audit", **_cube(n), **_timed(rng, 0.05, steps), cadence=1)]
    if name == "desk-small":
        grids, steps, n = ((10, 20), 40, 8) if tiny else ((10, 20, 40), 400, 20)
        return [dict(kind="converge-space", **_cube(grids[0]), grid_list=grids,
                     **_timed(rng, 0.0025, steps)),
                dict(kind="stability", **_cube(n), **_timed(rng, 0.25, steps), cadence=40)]
    raise ValueError(f"unknown workload {name!r}")


def config_text(op: dict) -> str:
    """Render an op as a config file the CLI parses with `--config`."""
    lines = []
    for key, value in op.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def state_bytes(nx: int, ny: int, nz: int) -> int:
    """Bytes of the six float64 Yee lattices of one field state."""
    cells = (nx * (ny + 1) * (nz + 1) + (nx + 1) * ny * (nz + 1) + (nx + 1) * (ny + 1) * nz
             + (nx + 1) * ny * nz + nx * (ny + 1) * nz + nx * ny * (nz + 1))
    return 8 * cells


def largest_grid(ops: list[dict]) -> int:
    """Cells per axis of the largest cube any op of the workload steps."""
    return max(max(op.get("grid_list") or (op["nx"],)) for op in ops)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name) -> list[float]:
    return [float(r[name]) for r in rows if r[name] != ""]


def _check_drift(rows, columns, problems, relative: bool) -> None:
    for name in columns:
        values = _column(rows, name)
        if not values:
            continue
        ref = abs(values[0]) if relative else 1.0
        worst = max(abs(v - values[0]) / ref if relative else abs(v) for v in values)
        if not worst <= DRIFT_TOL:
            problems.append(f"{name} drift {worst:.3e} > {DRIFT_TOL:g}")


def _tick_rows(rows, op, name, problems) -> None:
    steps, cadence = round(op["T"] / op["dt"]), op["cadence"]
    expected = steps // cadence + 1 + (steps % cadence != 0)
    if len(rows) != expected:
        problems.append(f"{name} has {len(rows)} rows, expected {expected}")


def check_run(out: Path, op: dict, stdout: str) -> list[str]:
    # imported here: the parent process uses this module without adimax on its path
    import adimax
    import numpy as np

    problems: list[str] = []
    rows = _rows(out / "run.csv")
    _tick_rows(rows, op, "run.csv", problems)
    _check_drift(rows, RUN_FUNCTIONALS, problems, relative=True)
    for name in RUN_DIVERGENCE:
        worst = max(_column(rows, name))
        if not worst <= DIVERGENCE_TOL:
            problems.append(f"{name} {worst:.3e} > {DIVERGENCE_TOL:g}")
    if op.get("snapshots"):
        arrays = {}
        for comp in adimax.COMPONENTS:
            tag, data, cells, level = adimax.read_component_blob(out / f"snapshot_{comp}.bin")
            if tag != comp or cells != (op["nx"], op["ny"], op["nz"]):
                problems.append(f"snapshot_{comp}.bin header {tag!r} {cells}")
            if not np.isfinite(data).all():
                problems.append(f"snapshot_{comp}.bin holds non-finite values")
            arrays[comp] = data
        if not problems:
            grid = adimax.make_grid(op["nx"], op["ny"], op["nz"], op["dt"])
            med = adimax.Medium(op.get("eps", 1.0), op.get("mu", 1.0))
            state = adimax.FieldState(**arrays, time_level=level)
            half = adimax.stage1(state, grid, med)
            nxt = adimax.stage2(half, grid, med)
            res = adimax.step_residual(state, half, nxt, grid, med)
            if not res <= RESIDUAL_TOL:
                problems.append(f"step_residual {res:.3e} > {RESIDUAL_TOL:g}")
    return problems


def check_energy_audit(out: Path, op: dict, stdout: str) -> list[str]:
    problems: list[str] = []
    rows = _rows(out / "energy_audit.csv")
    _tick_rows(rows, op, "energy_audit.csv", problems)
    _check_drift(rows, AUDIT_DRIFTS, problems, relative=False)
    return problems


def check_converge_space(out: Path, op: dict, stdout: str) -> list[str]:
    rows = _rows(out / "converge_space.csv")
    if len(rows) != len(op["grid_list"]):
        return [f"converge_space.csv has {len(rows)} rows"]
    lo, hi = RATE_WINDOW
    return [f"{name} {float(r[name]):.3f} outside [{lo}, {hi}] at h={r['resolution']}"
            for r in rows[1:] for name in ("rate1", "rate2") if not lo <= float(r[name]) <= hi]


def check_stability(out: Path, op: dict, stdout: str) -> list[str]:
    if "stability PASS" not in stdout:
        return ["stability verdict is not PASS"]
    return []


CHECKS = {
    "run": check_run,
    "energy-audit": check_energy_audit,
    "converge-space": check_converge_space,
    "stability": check_stability,
}


def check_op(out: Path, op: dict, stdout: str) -> list[str]:
    """All problems with one op's outputs; the MANIFEST must list what exists."""
    manifest = out / "MANIFEST"
    if not manifest.exists():
        return ["no MANIFEST written"]
    missing = [n for n in manifest.read_text().split() if not (out / n).exists()]
    if missing:
        return [f"MANIFEST lists missing files {missing}"]
    return CHECKS[op["kind"]](out, op, stdout)
